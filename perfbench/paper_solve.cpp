// paper_solve: the paper's Sec. 7 experiment. A fixed, seeded set of Sec.
// 7.1 default instances (sim::make_scenario) is solved on one thread by
// augment_ilp, augment_randomized and augment_heuristic; one op is one
// instance through all three solvers.
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/augmentation.h"
#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "core/validator.h"
#include "host.h"
#include "io/json.h"
#include "io/scenario_io.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mecra;

// ilp::IlpOptions::max_nodes == 0 selects this default cap.
constexpr std::size_t kDefaultNodeCap = 200000;
// The instance set is fixed (sim::RunConfig's default seed): ILP solve
// times are heavy-tailed, so a set drawn per --seed would make the run's
// work, not the program's speed, differ between seeds. --seed draws the
// randomized algorithm's rounding.
constexpr std::uint64_t kInstanceSeed = 20200817;

struct Params {
  std::size_t instances = 400;
  std::size_t chain_high = 10;  // |SFC| in [3, 10]
  std::size_t min_rounds = 3;
};

Params params_for(const RunOptions& o) {
  Params p;
  if (o.tiny) {
    p.instances = 1100;  // a p99 needs 1000 samples even in a smoke run
    p.chain_high = 4;
    p.min_rounds = 1;
  }
  return p;
}

/// Solver options: the paper's defaults, with the node cap as the only
/// limit (no wall clock, so results repeat exactly). Placements are not
/// trimmed back to the expectation, so each result is its algorithm's own
/// optimum and the ILP's objective bounds the heuristic's.
core::AugmentOptions solver_options(std::uint64_t seed) {
  core::AugmentOptions o;
  o.trim_to_expectation = false;
  o.ilp.time_limit_seconds = 0.0;
  o.seed = seed;
  return o;
}

struct Solved {
  core::AugmentationResult ilp;
  core::AugmentationResult randomized;
  core::AugmentationResult heuristic;
};

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double recover_s = 0.0;
  double recover_rss_mb = 0.0;
  std::vector<double> op_s;
  std::uint64_t solves = 0;
  std::uint64_t feasible = 0;
  std::uint64_t met = 0;
  double quality_sum = 0.0;
  double heuristic_vs_ilp = 0.0;
  double randomized_vs_ilp = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t cap_hits = 0;
  std::vector<double> nodes;
  double pivots = 0.0;
  double warm_attempts = 0.0;
  double warm_hits = 0.0;
  double items = 0.0;
  std::vector<double> fingerprint;  // achieved reliabilities, all solves
};

std::vector<sim::Scenario> build_instances(const Params& p, Trace* tr) {
  std::vector<sim::Scenario> out;
  out.reserve(p.instances);
  sim::ScenarioParams sp;  // Sec. 7.1 defaults
  sp.request.chain_length_high = p.chain_high;
  for (std::size_t i = 0; i < p.instances; ++i) {
    Scoped s(tr, "sim.make_scenario", static_cast<std::int64_t>(i));
    util::Rng rng(util::derive_seed(kInstanceSeed, i));
    std::optional<sim::Scenario> sc = sim::make_scenario(sp, rng);
    if (!sc.has_value()) {
      throw std::runtime_error("paper_solve: scenario " + std::to_string(i) +
                               " could not place its primaries");
    }
    out.push_back(std::move(*sc));
  }
  return out;
}

Round solve_round(const Params& p, std::uint64_t seed, Trace* tr,
                  Report& rep) {
  Round out;
  const double s0 = now_s();
  const std::vector<sim::Scenario> set = build_instances(p, tr);
  out.setup_s = now_s() - s0;

  std::vector<Solved> solved(set.size());
  out.op_s.reserve(set.size());
  const double w0 = now_s();
  for (std::size_t i = 0; i < set.size(); ++i) {
    const core::BmcgapInstance& inst = set[i].instance;
    const core::AugmentOptions opt =
        solver_options(util::derive_seed(seed, 1000000 + i));
    const auto id = static_cast<std::int64_t>(i);
    const double t0 = now_s();
    try {
      {
        Scoped s(tr, "core.augment_ilp", id);
        solved[i].ilp = core::augment_ilp(inst, opt);
      }
      {
        Scoped s(tr, "core.augment_randomized", id);
        solved[i].randomized = core::augment_randomized(inst, opt);
      }
      {
        Scoped s(tr, "core.augment_heuristic", id);
        solved[i].heuristic = core::augment_heuristic(inst, opt);
      }
    } catch (const std::exception& e) {
      ++out.failed;
      rep.check(false, "paper_solve: instance " + std::to_string(i) +
                           " threw: " + e.what());
    }
    out.op_s.push_back(now_s() - t0);
  }
  out.wall_s = now_s() - w0;
  out.peak_rss_mb = hwm_mb();

  {
    Scoped checks(tr, "bench.check");
    for (std::size_t i = 0; i < set.size(); ++i) {
      const core::BmcgapInstance& inst = set[i].instance;
      const Solved& s = solved[i];
      const std::string at = " on instance " + std::to_string(i);
      const bool ilp_ok = core::validate(inst, s.ilp).feasible;
      const bool heu_ok = core::validate(inst, s.heuristic).feasible;
      const bool rnd_ok = core::validate(inst, s.randomized).feasible;
      rep.check(ilp_ok, "paper_solve: ILP result infeasible" + at);
      rep.check(heu_ok, "paper_solve: heuristic result infeasible" + at);
      rep.check(s.randomized.max_usage <= 2.0 + 1e-9,
                "paper_solve: randomized usage above 2x (Thm 5.2)" + at);
      const bool capped = s.ilp.solver_nodes >= kDefaultNodeCap;
      // The ILP stops within its relative gap (1e-4) of the optimum,
      // which bounds the heuristic's objective.
      const double slack = 1e-4 * std::abs(s.heuristic.objective_gain) + 1e-6;
      rep.check(capped ||
                    s.ilp.objective_gain >= s.heuristic.objective_gain - slack,
                "paper_solve: ILP objective below the heuristic's" + at);
      out.solves += 3;
      out.feasible += static_cast<std::uint64_t>(ilp_ok) +
                      static_cast<std::uint64_t>(heu_ok) +
                      static_cast<std::uint64_t>(rnd_ok);
      out.met += static_cast<std::uint64_t>(s.ilp.expectation_met) +
                 static_cast<std::uint64_t>(s.heuristic.expectation_met) +
                 static_cast<std::uint64_t>(s.randomized.expectation_met);
      const double h = ratio(s.heuristic.achieved_reliability,
                             s.ilp.achieved_reliability);
      const double r = ratio(s.randomized.achieved_reliability,
                             s.ilp.achieved_reliability);
      out.heuristic_vs_ilp += h;
      out.randomized_vs_ilp += r;
      out.quality_sum += 0.5 * (h + r);
      out.cap_hits += static_cast<std::uint64_t>(capped);
      out.nodes.push_back(static_cast<double>(s.ilp.solver_nodes));
      out.pivots += static_cast<double>(s.ilp.solver_lp_iterations);
      out.warm_attempts += static_cast<double>(s.ilp.solver_warm_attempts);
      out.warm_hits += static_cast<double>(s.ilp.solver_warm_hits);
      out.items += static_cast<double>(inst.num_items());
      out.fingerprint.push_back(s.ilp.achieved_reliability);
      out.fingerprint.push_back(s.randomized.achieved_reliability);
      out.fingerprint.push_back(s.heuristic.achieved_reliability);
    }
  }

  // Restart drill: the experiment persists its instances with their
  // results as io::ScenarioArchive JSON; a restart reloads them all.
  std::vector<std::string> archived;
  archived.reserve(set.size());
  {
    Scoped s(tr, "io.archive_write");
    for (std::size_t i = 0; i < set.size(); ++i) {
      io::ScenarioArchive a{set[i].network, set[i].catalog, set[i].request,
                            set[i].primaries,
                            {solved[i].ilp, solved[i].randomized,
                             solved[i].heuristic}};
      archived.push_back(io::to_json(a).dump());
    }
  }
  std::vector<io::ScenarioArchive> reloaded;
  reloaded.reserve(set.size());
  {
    Scoped s(tr, "io.archive_reload");
    HeapPeak heap;
    const double r0 = now_s();
    for (const std::string& text : archived) {
      reloaded.push_back(io::archive_from_json(io::Json::parse(text)));
    }
    out.recover_s = now_s() - r0;
    out.recover_rss_mb = heap.stop();
  }
  bool same = reloaded.size() == set.size();
  for (std::size_t i = 0; same && i < set.size(); ++i) {
    const std::vector<core::AugmentationResult>& r = reloaded[i].results;
    same = r.size() == 3 && r[0].placements == solved[i].ilp.placements &&
           r[1].placements == solved[i].randomized.placements &&
           r[2].placements == solved[i].heuristic.placements;
  }
  rep.check(same, "paper_solve: reloaded archive differs from the results");
  return out;
}

}  // namespace

Report run_paper_solve(const RunOptions& options, Trace& trace) {
  Report rep;
  const Params p = params_for(options);

  if (!options.trace) {
    RoundBudget budget(options.seconds, p.min_rounds);
    std::vector<double> setup_s, recover_s, recover_mb, op_s, rate;
    Round first;
    std::size_t rounds = 0;
    while (budget.more(rounds)) {
      const HostSample h0 = host_sample();
      Round r = solve_round(p, options.seed, nullptr, rep);
      const HostSample h1 = host_sample();
      // Every round solves the same instances with the same seeds, so its
      // ratios are the run's.
      rep.check(rounds == 0 || r.fingerprint == first.fingerprint,
                "paper_solve: rounds of one seed solved differently");
      ++rounds;
      setup_s.push_back(r.setup_s);
      recover_s.push_back(r.recover_s);
      recover_mb.push_back(r.recover_rss_mb);
      op_s.insert(op_s.end(), r.op_s.begin(), r.op_s.end());
      rate.push_back(ratio(static_cast<double>(r.op_s.size()), r.wall_s));
      print_round("paper_solve", rounds, rate.back(),
                  1e3 * percentile(r.op_s, 0.50).value_or(std::nan("")),
                  1e3 * percentile(r.op_s, 0.99).value_or(std::nan("")),
                  r.setup_s, r.recover_s, steal_share(h0, h1));
      rep.attempted += r.op_s.size();
      rep.failed += r.failed;
      if (rounds == 1) first = std::move(r);
    }
    rep.set("setup_s", median(setup_s));
    rep.set("ops_per_s", median(rate));
    rep.set_percentile("op_ms_p50", op_s, 0.50, 1e3);
    rep.set_percentile("op_ms_p99", op_s, 0.99, 1e3);
    const auto solves = static_cast<double>(first.solves);
    rep.set("admit_ratio", ratio(static_cast<double>(first.feasible), solves));
    rep.set("expectation_met_ratio",
            ratio(static_cast<double>(first.met), solves));
    rep.set("quality_ratio",
            ratio(first.quality_sum, static_cast<double>(first.op_s.size())));
    rep.set("recover_s", median(recover_s));
    rep.set("recover_rss_mb", median(recover_mb));
    rep.set("peak_rss_mb", first.peak_rss_mb);
    std::printf("paper_solve: %zu rounds of %zu instances\n", rounds,
                p.instances);
    return rep;
  }

  // Traced mode: per round an untraced round (the trace.overhead
  // reference) and a traced one.
  RoundBudget budget(options.seconds, 1);
  double plain_wall = 0.0, traced_wall = 0.0, cpu_s = 0.0, cpu_wall = 0.0;
  std::uint64_t plain_ops = 0, traced_ops = 0, cap_hits = 0;
  double h_vs = 0.0, r_vs = 0.0, pivots = 0.0, warm_a = 0.0, warm_h = 0.0;
  double items = 0.0;
  std::vector<double> nodes;
  std::size_t rounds = 0;
  while (budget.more(rounds, nodes.size() < 1000 + 10)) {
    const Round plain = solve_round(p, options.seed, nullptr, rep);
    plain_wall += plain.wall_s;
    plain_ops += plain.op_s.size();

    Round r;
    const HostSample h0 = host_sample();
    {
      Scoped root(&trace, "paper_solve.solve",
                  static_cast<std::int64_t>(rounds));
      r = solve_round(p, options.seed, &trace, rep);
    }
    const HostSample h1 = host_sample();
    cpu_s += h1.cpu_s - h0.cpu_s;
    cpu_wall += h1.wall_s - h0.wall_s;
    traced_wall += r.wall_s;
    traced_ops += r.op_s.size();
    cap_hits += r.cap_hits;
    h_vs += r.heuristic_vs_ilp;
    r_vs += r.randomized_vs_ilp;
    pivots += r.pivots;
    warm_a += r.warm_attempts;
    warm_h += r.warm_hits;
    items += r.items;
    nodes.insert(nodes.end(), r.nodes.begin(), r.nodes.end());
    rep.attempted += r.op_s.size();
    rep.failed += r.failed;
    ++rounds;
  }
  const std::vector<Span>& spans = trace.spans();
  const double n = static_cast<double>(traced_ops);
  const std::vector<double> ilp = durations(spans, "core.augment_ilp");
  rep.set_percentile("core.augment_ilp_ms_p50", ilp, 0.50, 1e3);
  rep.set_percentile("core.augment_ilp_ms_p99", ilp, 0.99, 1e3);
  rep.set_percentile("core.augment_randomized_ms_p50",
                     durations(spans, "core.augment_randomized"), 0.50, 1e3);
  const std::vector<double> heuristic =
      durations(spans, "core.augment_heuristic");
  rep.set_percentile("core.augment_heuristic_us_p50", heuristic, 0.50, 1e6);
  rep.set_percentile("core.augment_heuristic_us_p99", heuristic, 0.99, 1e6);
  rep.set("ilp.nodes_mean", mean(nodes));
  rep.set_percentile("ilp.nodes_p99", nodes, 0.99, 1.0);
  rep.set("lp.pivots_per_ilp_mean", ratio(pivots, n));
  rep.set("ilp.warm_hit_ratio", ratio(warm_h, warm_a));
  rep.set("ilp.node_cap_hits", static_cast<double>(cap_hits));
  rep.set("core.heuristic_vs_ilp", ratio(h_vs, n));
  rep.set("core.randomized_vs_ilp", ratio(r_vs, n));
  rep.set("core.instance_items_mean", ratio(items, n));
  rep.set("sim.scenario_build_ms_mean",
          1e3 * mean(durations(spans, "sim.make_scenario")));
  rep.set("process.cpu_per_wall", ratio(cpu_s, cpu_wall));
  rep.set("trace.overhead",
          ratio(ratio(n, traced_wall),
                ratio(static_cast<double>(plain_ops), plain_wall)));
  std::printf("paper_solve traced: %zu rounds of %zu instances\n", rounds,
              p.instances);
  return rep;
}

}  // namespace perfbench
