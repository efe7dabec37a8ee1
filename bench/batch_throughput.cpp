// Machine-readable batch-admission throughput snapshot.
//
// Measures requests/second of admitting a saturated arrival batch against
// a large Waxman topology two ways. Both decide every request through the
// orchestrator's one admission kernel (random primaries, the BMCGAP over
// the N_l^+ balls of MecNetwork::cloudlets_within, the matching
// heuristic):
//
//   * "serial"  — the one-at-a-time Orchestrator::admit loop; primaries
//     are drawn from every cloudlet, so each chain position scans the
//     whole cloudlet set for capacity.
//   * "sharded" — one Orchestrator::admit_batch call at 1/2/4/8 worker
//     threads. Requests are bucketed by home shard and first tried with
//     primaries drawn from their shard's interior cloudlets only (about
//     sqrt(C) of them); the rest take the whole-network border pass. The
//     shard map build is excluded from the timed region (it is one-time
//     per network and amortizes across every batch of a run).
//
// The headline ratio (sharded median rps / serial median rps) therefore
// measures the shorter candidate scan of the shard phase, not
// parallelism: it holds on single-core runners, and extra threads only
// add wall-clock overlap.
//
// Flags:
//   --out <path>            output path (default BENCH_batch.json)
//   --quick                 fewer reps / smaller batch (CI mode)
//   --reps <n>              override repetitions per configuration
//   --requests <n>          override batch size
//   --check-against <path>  compare against a committed snapshot and exit
//                           non-zero if any configuration's
//                           serial-normalized sharded throughput
//                           (sharded_rps / serial_rps, host speed cancels)
//                           fell by more than --regression-factor
//   --regression-factor <x> regression threshold (default 2.0)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "orchestrator/orchestrator.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace mecra;

struct Measure {
  double median_rps = 0.0;
  double p90_ms = 0.0;
  double median_ms = 0.0;
  std::size_t admitted = 0;
};

sim::Scenario scenario_for(std::size_t num_aps, std::uint64_t seed) {
  sim::ScenarioParams params;
  params.num_aps = num_aps;
  params.request.chain_length_low = 4;
  params.request.chain_length_high = 4;
  params.residual_fraction = 0.6;
  util::Rng rng(0xBA7C4 + seed * 7919);
  auto s = sim::make_scenario(params, rng);
  MECRA_CHECK(s.has_value());
  return std::move(*s);
}

std::vector<mec::SfcRequest> requests_for(const sim::Scenario& s,
                                          std::size_t n) {
  mec::RequestParams rp;
  rp.chain_length_low = 4;
  rp.chain_length_high = 6;
  rp.expectation = 0.95;
  util::Rng rng(4242);
  std::vector<mec::SfcRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(
        mec::random_request(i, s.catalog, s.network.num_nodes(), rp, rng));
  }
  return requests;
}

Measure summarize(const std::vector<double>& times_s, std::size_t n,
                  std::size_t admitted) {
  std::vector<double> rps;
  std::vector<double> ms;
  rps.reserve(times_s.size());
  ms.reserve(times_s.size());
  for (const double t : times_s) {
    rps.push_back(static_cast<double>(n) / t);
    ms.push_back(t * 1e3);
  }
  Measure m;
  m.median_rps = util::quantile(rps, 0.5);
  m.median_ms = util::quantile(ms, 0.5);
  m.p90_ms = util::quantile(ms, 0.9);
  m.admitted = admitted;
  return m;
}

Measure measure_serial(const sim::Scenario& s,
                       const std::vector<mec::SfcRequest>& requests,
                       std::size_t reps) {
  std::vector<double> times;
  std::size_t admitted = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    orchestrator::Orchestrator orch(s.network, s.catalog, {});
    util::Rng rng(1000 + r);
    admitted = 0;
    const util::Timer timer;
    for (const mec::SfcRequest& request : requests) {
      if (orch.admit(request, rng).has_value()) ++admitted;
    }
    times.push_back(timer.elapsed_seconds());
  }
  return summarize(times, requests.size(), admitted);
}

Measure measure_sharded(const sim::Scenario& s,
                        const std::vector<mec::SfcRequest>& requests,
                        std::size_t threads, std::size_t reps) {
  std::vector<double> times;
  std::size_t admitted = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    orchestrator::OrchestratorOptions opt;
    opt.batch.threads = threads;
    orchestrator::Orchestrator orch(s.network, s.catalog, opt);
    (void)orch.shard_map();  // one-time build, outside the timed region
    util::Rng rng(1000 + r);
    const util::Timer timer;
    const auto ids = orch.admit_batch(requests, rng);
    times.push_back(timer.elapsed_seconds());
    admitted = 0;
    for (const auto& id : ids) {
      if (id.has_value()) ++admitted;
    }
  }
  return summarize(times, requests.size(), admitted);
}

void fill(io::JsonObject& o, const Measure& m) {
  o.set("median_rps", m.median_rps);
  o.set("median_ms", m.median_ms);
  o.set("p90_ms", m.p90_ms);
  o.set("admitted", m.admitted);
}

io::Json to_json(const Measure& m) {
  io::JsonObject o;
  fill(o, m);
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

  // Compare SERIAL-NORMALIZED sharded throughput (sharded_rps /
  // serial_rps): both run in the same process on the same machine, so host
  // speed cancels and the committed snapshot stays comparable on any
  // runner. A true 2x engine regression halves the ratio exactly.
  const auto ratios = [](const io::JsonObject& scenario_obj) {
    const double serial = scenario_obj.at("serial")
                              .as_object()
                              .at("median_rps")
                              .as_double();
    std::vector<std::pair<std::int64_t, double>> out;
    for (const auto& run : scenario_obj.at("sharded").as_array()) {
      const auto& obj = run.as_object();
      out.emplace_back(obj.at("threads").as_int(),
                       serial > 0.0
                           ? obj.at("median_rps").as_double() / serial
                           : 0.0);
    }
    return out;
  };

  int failures = 0;
  const auto& committed_runs =
      committed.as_object().at("scenarios").as_array();
  const auto& fresh_runs = fresh.as_object().at("scenarios").as_array();
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
    const auto committed_ratios = ratios(cobj);
    const auto fresh_ratios = ratios(*fobj);
    for (const auto& [threads, committed_ratio] : committed_ratios) {
      for (const auto& [fresh_threads, fresh_ratio] : fresh_ratios) {
        if (fresh_threads != threads) continue;
        const bool regressed = fresh_ratio * factor < committed_ratio;
        std::cout << (regressed ? "REGRESSED " : "ok        ") << key << "/t"
                  << threads << "  committed sharded/serial="
                  << committed_ratio << " fresh=" << fresh_ratio << "\n";
        failures += regressed ? 1 : 0;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::size_t reps =
      static_cast<std::size_t>(args.get_int("reps", quick ? 3 : 7));
  const std::size_t num_requests = static_cast<std::size_t>(
      args.get_int("requests", quick ? 60 : 120));
  const std::vector<std::size_t> ap_sizes =
      quick ? std::vector<std::size_t>{400}
            : std::vector<std::size_t>{400, 800};
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  io::JsonObject root;
  root.set("schema", "mecra-batch-throughput-v1");
  root.set("description",
           "Batch-admission throughput: serial = per-request "
           "Orchestrator::admit (primaries drawn from every cloudlet); "
           "sharded = Orchestrator::admit_batch at 1/2/4/8 threads "
           "(primaries first drawn from the home shard's interior "
           "cloudlets, the rest through the whole-network border pass). "
           "Both run the same admission kernel with N_l^+ from "
           "MecNetwork::cloudlets_within. Ratios are serial-normalized, so "
           "they transfer across machines.");
  root.set("reps", reps);
  root.set("requests", num_requests);

  io::JsonArray scenarios;
  double speedup_at_4 = 0.0;
  std::cout << "key             config       med rps    med ms   speedup\n";
  for (const std::size_t num_aps : ap_sizes) {
    const sim::Scenario s = scenario_for(num_aps, 0);
    const auto requests = requests_for(s, num_requests);
    const std::string key = "aps" + std::to_string(num_aps);

    const Measure serial = measure_serial(s, requests, reps);
    std::printf("%-15s %-10s %9.1f %9.3f %8s\n", key.c_str(), "serial",
                serial.median_rps, serial.median_ms, "1.00x");

    io::JsonObject entry;
    entry.set("key", key);
    entry.set("num_aps", num_aps);
    {
      orchestrator::Orchestrator probe(s.network, s.catalog, {});
      const mec::ShardMap& map = probe.shard_map();
      entry.set("shards", map.num_shards());
      entry.set("border_cloudlets", map.border_count());
    }
    entry.set("serial", to_json(serial));

    io::JsonArray sharded_runs;
    for (const std::size_t threads : thread_counts) {
      const Measure sharded = measure_sharded(s, requests, threads, reps);
      const double speedup = serial.median_rps > 0.0
                                 ? sharded.median_rps / serial.median_rps
                                 : 0.0;
      if (threads == 4) speedup_at_4 = std::max(speedup_at_4, speedup);
      io::JsonObject run;
      fill(run, sharded);
      run.set("threads", threads);
      run.set("speedup_vs_serial", speedup);
      sharded_runs.push_back(io::Json(std::move(run)));
      std::printf("%-15s sharded/%-2zu %9.1f %9.3f %7.2fx\n", key.c_str(),
                  threads, sharded.median_rps, sharded.median_ms, speedup);
    }
    entry.set("sharded", io::Json(std::move(sharded_runs)));
    scenarios.push_back(io::Json(std::move(entry)));
  }
  root.set("scenarios", io::Json(std::move(scenarios)));

  io::JsonObject summary;
  summary.set("best_speedup_at_4_threads", speedup_at_4);
  root.set("summary", io::Json(std::move(summary)));

  const io::Json snapshot(std::move(root));
  const std::string out_path = args.get("out", "BENCH_batch.json");
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
