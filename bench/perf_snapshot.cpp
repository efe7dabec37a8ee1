// Machine-readable solver performance snapshot (ISSUE 2 perf harness).
//
// Runs the exact ILP pipeline (aggregated BMCGAP model + branch-and-bound)
// over fixed-seed instances at several chain lengths, once with the solver
// fast path's LP levers disabled ("baseline": cold node LPs + full-scan
// Dantzig pricing) and once with them enabled ("fastpath": warm-started
// re-solves + partial pricing), and writes BENCH_solver.json with
// median/p90 wall times, simplex iterations, node counts, and warm-start
// hit rates per instance. Both configurations branch the same way
// (reliability branching, delta nodes); that part has no switch.
//
// Flags:
//   --out <path>            output path (default BENCH_solver.json)
//   --quick                 fewer repetitions / seeds (CI mode)
//   --reps <n>              override repetitions per instance
//   --check-against <path>  compare against a committed snapshot and exit
//                           non-zero if any instance's baseline-normalized
//                           fastpath median (fast_ms / base_ms, host speed
//                           cancels) regressed by more than
//                           --regression-factor
//   --regression-factor <x> regression threshold (default 2.0)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ilp_exact.h"
#include "io/json.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace mecra;

// Pre-PR BM_BranchAndBoundExact medians (ms), measured on the commit before
// the solver fast path landed (same machine class as CI). Kept so the
// speedup the fast path bought stays on record even after the "baseline"
// config drifts.
constexpr double kPrePrMedianMs[] = {0.044, 0.038, 0.251};  // chain 4, 8, 12

struct MeasureResult {
  double median_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  std::size_t warm_attempts = 0;
  std::size_t warm_hits = 0;
};

sim::Scenario scenario_for(std::size_t chain_len, std::uint64_t seed_salt) {
  sim::ScenarioParams params;
  params.request.chain_length_low = chain_len;
  params.request.chain_length_high = chain_len;
  params.residual_fraction = 0.25;
  util::Rng rng(0xBEEF + chain_len + seed_salt * 7919);
  auto s = sim::make_scenario(params, rng);
  MECRA_CHECK(s.has_value());
  return std::move(*s);
}

core::AugmentOptions options_for(bool fastpath) {
  core::AugmentOptions opt;
  opt.ilp.time_limit_seconds = 5.0;
  if (!fastpath) {
    // Pre-fast-path solver: cold two-phase LP per node, classic full-scan
    // Dantzig pricing.
    opt.ilp.warm_lp = false;
    opt.ilp.lp_options.pricing_window = static_cast<std::size_t>(-1);
  }
  return opt;
}

MeasureResult measure(const core::BmcgapInstance& instance, bool fastpath,
                      std::size_t reps) {
  const core::AugmentOptions opt = options_for(fastpath);
  std::vector<double> times_ms;
  times_ms.reserve(reps);
  core::AugmentationResult last;
  for (std::size_t r = 0; r < reps; ++r) {
    const util::Timer timer;
    last = core::augment_ilp(instance, opt);
    times_ms.push_back(timer.elapsed_seconds() * 1e3);
  }
  MeasureResult out;
  out.median_ms = util::quantile(times_ms, 0.5);
  out.p90_ms = util::quantile(times_ms, 0.9);
  out.nodes = last.solver_nodes;
  out.lp_iterations = last.solver_lp_iterations;
  out.warm_attempts = last.solver_warm_attempts;
  out.warm_hits = last.solver_warm_hits;
  return out;
}

io::Json to_json(const MeasureResult& m) {
  io::JsonObject o;
  o.set("median_ms", m.median_ms);
  o.set("p90_ms", m.p90_ms);
  o.set("nodes", m.nodes);
  o.set("lp_iterations", m.lp_iterations);
  o.set("warm_attempts", m.warm_attempts);
  o.set("warm_hits", m.warm_hits);
  o.set("warm_hit_rate",
        m.warm_attempts == 0 ? 0.0
                             : static_cast<double>(m.warm_hits) /
                                   static_cast<double>(m.warm_attempts));
  return io::Json(std::move(o));
}

int check_against(const io::Json& fresh, const std::string& path,
                  double factor) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check-against: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const io::Json committed = io::Json::parse(buf.str());

  int failures = 0;
  const auto& committed_runs = committed.as_object().at("instances").as_array();
  const auto& fresh_runs = fresh.as_object().at("instances").as_array();
  for (const auto& committed_run : committed_runs) {
    const auto& cobj = committed_run.as_object();
    const std::string& key = cobj.at("key").as_string();
    const io::JsonObject* fobj = nullptr;
    for (const auto& fr : fresh_runs) {
      if (fr.as_object().at("key").as_string() == key) {
        fobj = &fr.as_object();
        break;
      }
    }
    if (fobj == nullptr) continue;  // quick mode measures a subset
    // Compare BASELINE-NORMALIZED fast-path time (fast_ms / base_ms), not
    // absolute wall time: baseline and fastpath run in the same process on
    // the same machine, so host speed and load cancel out and the check is
    // portable between the committing machine and CI runners. A true 2x
    // fast-path regression doubles the ratio exactly.
    const auto relative = [](const io::JsonObject& run) {
      const double base =
          run.at("baseline").as_object().at("median_ms").as_double();
      const double fast =
          run.at("fastpath").as_object().at("median_ms").as_double();
      return base > 0.0 ? fast / base : 1.0;
    };
    const double committed_rel = relative(cobj);
    const double fresh_rel = relative(*fobj);
    const bool regressed = fresh_rel > factor * committed_rel;
    std::cout << (regressed ? "REGRESSED " : "ok        ") << key
              << "  committed fast/base=" << committed_rel
              << " fresh fast/base=" << fresh_rel << "\n";
    failures += regressed ? 1 : 0;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(
      argc, argv, {"quick", "reps", "out", "check-against",
                   "regression-factor"});
  const bool quick = args.get_bool("quick", false);
  const std::size_t reps = static_cast<std::size_t>(
      args.get_int("reps", quick ? 15 : 40));
  const std::size_t num_seeds = quick ? 1 : 3;
  const std::vector<std::size_t> chain_lens = {4, 8, 12, 20};

  io::JsonObject root;
  root.set("schema", "mecra-perf-snapshot-v1");
  root.set("description",
           "Exact-ILP solver snapshot: baseline = cold node LPs + full "
           "Dantzig pricing; fastpath = warm-started re-solves + partial "
           "pricing. Both use reliability branching and delta nodes.");
  root.set("reps", reps);
  {
    io::JsonObject pre;
    pre.set("BM_BranchAndBoundExact/4_median_ms", kPrePrMedianMs[0]);
    pre.set("BM_BranchAndBoundExact/8_median_ms", kPrePrMedianMs[1]);
    pre.set("BM_BranchAndBoundExact/12_median_ms", kPrePrMedianMs[2]);
    root.set("recorded_pre_pr", io::Json(std::move(pre)));
  }

  io::JsonArray instances;
  double warm_hits_total = 0.0;
  double warm_attempts_total = 0.0;
  std::vector<double> speedups;
  std::cout << "key                 base med   fast med   speedup  "
               "warm-hit  lp-iters base/fast\n";
  for (const std::size_t len : chain_lens) {
    for (std::size_t seed = 0; seed < num_seeds; ++seed) {
      const auto scenario = scenario_for(len, seed);
      const std::string key =
          "chain" + std::to_string(len) + "/seed" + std::to_string(seed);

      const MeasureResult base = measure(scenario.instance, false, reps);
      const MeasureResult fast = measure(scenario.instance, true, reps);
      const double speedup =
          fast.median_ms > 0.0 ? base.median_ms / fast.median_ms : 0.0;
      speedups.push_back(speedup);
      warm_hits_total += static_cast<double>(fast.warm_hits);
      warm_attempts_total += static_cast<double>(fast.warm_attempts);

      io::JsonObject entry;
      entry.set("key", key);
      entry.set("chain_len", len);
      entry.set("items", scenario.instance.num_items());
      entry.set("baseline", to_json(base));
      entry.set("fastpath", to_json(fast));
      entry.set("speedup", speedup);
      instances.push_back(io::Json(std::move(entry)));

      std::printf("%-18s %8.3fms %8.3fms %8.2fx %8.1f%% %9zu/%zu\n",
                  key.c_str(), base.median_ms, fast.median_ms, speedup,
                  100.0 * (fast.warm_attempts == 0
                               ? 0.0
                               : static_cast<double>(fast.warm_hits) /
                                     static_cast<double>(fast.warm_attempts)),
                  base.lp_iterations, fast.lp_iterations);
    }
  }
  root.set("instances", io::Json(std::move(instances)));

  io::JsonObject summary;
  summary.set("median_speedup", util::quantile(speedups, 0.5));
  summary.set("warm_hit_rate_overall",
              warm_attempts_total == 0.0
                  ? 0.0
                  : warm_hits_total / warm_attempts_total);
  root.set("summary", io::Json(std::move(summary)));

  const io::Json snapshot(std::move(root));
  const std::string out_path = args.get("out", "BENCH_solver.json");
  {
    std::ofstream out(out_path);
    MECRA_CHECK_MSG(static_cast<bool>(out), "cannot write output file");
    out << snapshot.dump(2) << "\n";
  }
  std::cout << "\nwrote " << out_path << "\n";

  if (args.has("check-against")) {
    const double factor = args.get_double("regression-factor", 2.0);
    return check_against(snapshot, args.get("check-against", ""), factor);
  }
  return 0;
}
