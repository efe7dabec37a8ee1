// Machine-readable streaming-admission throughput snapshot.
//
// Drives a 1M-request open-loop Poisson trace (sim/simulate.h) two ways:
//
//   * "serial"    — sim::AdmissionMode::kPerEvent: every event is served
//     inline, one at a time — one Orchestrator::admit or teardown per
//     event, plus controller bookkeeping.
//   * "pipelined" — sim::AdmissionMode::kStreaming: orchestrator::
//     StreamingService with pipelined commit at 1/2/4/8 shard worker
//     threads: windowed admit_batch on the pipeline thread while the
//     previous window's commit (metrics, SLO scrape, callbacks) drains on
//     the commit thread.
//
// Both columns serve the same arrival sequence and the same per-ticket
// holding draws; they admit different amounts of it, because a window
// holds the capacity its departures free until it closes (3 s windows
// against a 1 s mean hold; docs/streaming_service.md, "Admission gap").
// Reported rps counts DECIDED admission candidates
// (arrivals + re-admits) per wall second. p50/p99 for streaming runs are
// submit->commit queue latencies (stream.admit_latency_seconds); for the
// serial baseline they are per-call decision times (there is no queue to
// wait in) — compare within a column, not across the two meanings. The
// streaming determinism contract is self-checked: every STREAMING
// configuration must end with identical admitted/rejected counts,
// live-service count, and total residual capacity — a run that diverges
// writes "determinism_ok": false and exits non-zero.
//
// Flags:
//   --out <path>            output path (default BENCH_stream.json)
//   --quick                 ~20k-request trace, fewer reps (CI mode)
//   --reps <n>              override repetitions per configuration
//   --arrivals <n>          override the target trace length
//   --rate <r>              base arrival rate in req/s (default 40); the
//                           horizon scales so the trace length stays at
//                           --arrivals — use for arrival-rate sweeps
//   --profile <p>           constant | burst | diurnal (default constant);
//                           burst/diurnal traces thin from the same peak-
//                           rate candidate stream (EXPERIMENTS.md)
//   --window <w>            admission window width in seconds (default 3)
//   --journal <path>        journal the measured journaled column to this
//                           path (default: <out>.tmp.journal, deleted
//                           afterwards; pass a path to keep the file)
//   --durability <p>        group-commit policy of the journaled column's
//                           "grouped" leg: per_record | per_window
//                           (default per_window;
//                           orchestrator::Durability::parse syntax)
//   --check-against <path>  compare against a committed snapshot and exit
//                           non-zero if any thread count's
//                           serial-normalized throughput
//                           (pipelined_rps / serial_rps, host speed
//                           cancels) fell by more than --regression-factor,
//                           if the journaled grouped/per-record ratios
//                           (stream rps and raw append rate) fell by more
//                           than the same factor, or if the grouped
//                           journaled run's p99 submit->commit latency grew
//                           by more than the factor
//   --regression-factor <x> regression threshold (default 2.0)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "orchestrator/journal.h"
#include "sim/simulate.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/stats.h"

namespace {

using namespace mecra;

struct Measure {
  double median_rps = 0.0;
  double p50_ms_median = 0.0;
  double p99_ms_median = 0.0;
  double wall_s_median = 0.0;
  sim::SimReport last;  ///< final-state fields for the fingerprint
};

sim::Scenario scenario_for(std::size_t num_aps) {
  sim::ScenarioParams params;
  params.num_aps = num_aps;
  params.request.chain_length_low = 4;
  params.request.chain_length_high = 4;
  params.residual_fraction = 0.6;
  util::Rng rng(0x57EA4 + num_aps);
  auto s = sim::make_scenario(params, rng);
  MECRA_CHECK(s.has_value());
  return std::move(*s);
}

void fill(io::JsonObject& o, const Measure& m) {
  o.set("median_rps", m.median_rps);
  o.set("p50_ms_median", m.p50_ms_median);
  o.set("p99_ms_median", m.p99_ms_median);
  o.set("wall_s_median", m.wall_s_median);
}

/// Rep-major measurement of several configurations: rep r runs
/// every configuration once before rep r+1 starts. Config-major order
/// (all reps of config A, then all of B) lets slow machine drift — a
/// thermal ramp, a background job — bias entire configurations against
/// each other; interleaving lands the drift on all of them alike. The
/// cross-config ratios this bench gates (8-thread vs 2-thread rps,
/// grouped vs per-record commit) are exactly the numbers that kind of
/// bias corrupts. Medians are per configuration across reps.
std::vector<Measure> measure_interleaved(
    const sim::Scenario& s, const std::vector<sim::SimConfig>& configs,
    std::size_t reps) {
  std::vector<std::vector<double>> rps(configs.size());
  std::vector<std::vector<double>> p50_ms(configs.size());
  std::vector<std::vector<double>> p99_ms(configs.size());
  std::vector<std::vector<double>> wall_s(configs.size());
  std::vector<Measure> out(configs.size());
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      out[c].last = sim::simulate(s.network, s.catalog, configs[c], 7);
      rps[c].push_back(out[c].last.requests_per_second);
      p50_ms[c].push_back(out[c].last.p50_latency_seconds * 1e3);
      p99_ms[c].push_back(out[c].last.p99_latency_seconds * 1e3);
      wall_s[c].push_back(out[c].last.wall_seconds);
    }
  }
  for (std::size_t c = 0; c < configs.size(); ++c) {
    out[c].median_rps = util::quantile(rps[c], 0.5);
    out[c].p50_ms_median = util::quantile(p50_ms[c], 0.5);
    out[c].p99_ms_median = util::quantile(p99_ms[c], 0.5);
    out[c].wall_s_median = util::quantile(wall_s[c], 0.5);
  }
  return out;
}

/// Raw journal append throughput: `n` teardown-sized records written under
/// `durability`, flushed every `group` appends (group = 1 with per_record
/// is the historical flush-per-append discipline). Returns records/sec;
/// `bytes_per_second` gets the matching byte rate. The file at `path` is
/// truncated first and left behind for the caller to remove.
double append_rate(const std::string& path,
                   const orchestrator::Durability& durability,
                   std::size_t group, std::size_t n,
                   double* bytes_per_second) {
  // Payload objects are pre-built so the timer covers only the journal's own
  // append + flush path; construction cost is identical in both legs.
  std::vector<io::Json> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    io::JsonObject data;
    data.set("service", static_cast<std::int64_t>(i));
    payloads.emplace_back(std::move(data));
  }
  orchestrator::Journal journal(path, orchestrator::Journal::Mode::kTruncate,
                                durability);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    (void)journal.append(orchestrator::kJournalTeardown,
                         static_cast<double>(i) * 1e-3,
                         std::move(payloads[i]));
    if (group > 1 && (i + 1) % group == 0) journal.flush();
  }
  journal.flush();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const double seconds = std::max(elapsed.count(), 1e-9);
  *bytes_per_second =
      static_cast<double>(std::filesystem::file_size(path)) / seconds;
  return static_cast<double>(n) / seconds;
}

/// The world-state fields every configuration must agree on (the
/// determinism contract: same seed + same window schedule => identical
/// trace at any thread count, pipelined or not).
bool same_world(const sim::SimReport& a, const sim::SimReport& b) {
  return a.generated == b.generated && a.arrivals == b.arrivals &&
         a.admitted == b.admitted && a.rejected == b.rejected &&
         a.departed == b.departed && a.readmits == b.readmits &&
         a.live_services == b.live_services &&
         a.end_total_residual == b.end_total_residual;  // exact
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

  // Compare SERIAL-NORMALIZED pipelined throughput (pipelined_rps /
  // serial_rps): both run in the same process on the same machine, so
  // host speed cancels and the committed snapshot stays comparable on any
  // runner. A true 2x engine regression halves the ratio exactly.
  const auto ratios = [](const io::JsonObject& scenario_obj) {
    const double serial = scenario_obj.at("serial")
                              .as_object()
                              .at("median_rps")
                              .as_double();
    std::vector<std::pair<std::int64_t, double>> out;
    for (const auto& run : scenario_obj.at("pipelined").as_array()) {
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
    for (const auto& [threads, committed_ratio] : ratios(cobj)) {
      for (const auto& [fresh_threads, fresh_ratio] : ratios(*fobj)) {
        if (fresh_threads != threads) continue;
        const bool regressed = fresh_ratio * factor < committed_ratio;
        std::cout << (regressed ? "REGRESSED " : "ok        ") << key << "/t"
                  << threads << "  committed pipelined/serial="
                  << committed_ratio << " fresh=" << fresh_ratio << "\n";
        failures += regressed ? 1 : 0;
      }
    }
  }

  // Journaled gates (summary-level; both ratios and the latency are
  // host-speed-free or compared fresh-vs-committed under the same factor):
  //   * grouped/per-record stream rps ratio must not collapse,
  //   * grouped/per-record raw append rate must not collapse,
  //   * the grouped run's p99 submit->commit latency must not blow up.
  const auto& csum = committed.as_object().at("summary").as_object();
  const auto& fsum = fresh.as_object().at("summary").as_object();
  const auto gate_ratio = [&](const char* field) {
    if (!csum.contains(field) || !fsum.contains(field)) return;
    const double want = csum.at(field).as_double();
    const double got = fsum.at(field).as_double();
    const bool regressed = got * factor < want;
    std::cout << (regressed ? "REGRESSED " : "ok        ") << field
              << "  committed=" << want << " fresh=" << got << "\n";
    failures += regressed ? 1 : 0;
  };
  gate_ratio("journaled_stream_ratio");
  gate_ratio("journaled_append_speedup");
  // The thread-curve shape gate: 8 workers must not fall back below the
  // 2-worker figure (the historical regression this bench documents).
  gate_ratio("pipelined_rps_8t_vs_2t");
  if (csum.contains("journaled_grouped_p99_ms") &&
      fsum.contains("journaled_grouped_p99_ms")) {
    const double want = csum.at("journaled_grouped_p99_ms").as_double();
    const double got = fsum.at("journaled_grouped_p99_ms").as_double();
    const bool regressed = got > want * factor && got > 1.0;  // ms floor
    std::cout << (regressed ? "REGRESSED " : "ok        ")
              << "journaled_grouped_p99_ms  committed=" << want
              << " fresh=" << got << "\n";
    failures += regressed ? 1 : 0;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::size_t reps =
      static_cast<std::size_t>(args.get_int("reps", 3));
  const std::size_t target_arrivals = static_cast<std::size_t>(
      args.get_int("arrivals", quick ? 20000 : 1000000));
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  // The open-loop trace: 40/s Poisson arrivals with 1s mean holding put
  // the steady-state live-service count (~lambda * holding = 40) right at
  // the aps400 network's capacity (~36 live), so every window does real
  // placement work — admits bounded by the slots its own departures free,
  // plus a stream of genuine capacity rejections; W=3 makes each window a
  // ~120-candidate admit_batch, the regime the sharded engine is built
  // for. The horizon scales to hit the target trace length.
  sim::SimConfig base;
  base.mode = sim::AdmissionMode::kStreaming;
  base.request.expectation = 0.95;
  base.arrival_rate = args.get_double("rate", 40.0);
  base.horizon =
      static_cast<double>(target_arrivals) / base.arrival_rate;
  base.mean_holding_time = 1.0;
  base.readmit_fraction = 0.1;
  base.window_width = args.get_double("window", 3.0);
  const std::string profile = args.get("profile", "constant");
  if (profile == "burst") {
    base.profile = sim::RateProfile::kBurst;
  } else if (profile == "diurnal") {
    base.profile = sim::RateProfile::kDiurnal;
  } else {
    MECRA_CHECK_MSG(profile == "constant",
                    "--profile must be constant, burst, or diurnal");
  }

  io::JsonObject root;
  root.set("schema", "mecra-stream-throughput-v1");
  root.set("description",
           "Streaming-admission throughput over an open-loop Poisson "
           "trace (sim/simulate.h): serial = per-event admission, one "
           "Orchestrator::admit/teardown per event (kPerEvent); pipelined "
           "= orchestrator::StreamingService (kStreaming) with "
           "epoch-pipelined commit at "
           "1/2/4/8 shard worker threads. rps counts decided candidates "
           "(arrivals + re-admits) per wall second; streaming p50/p99 are "
           "submit->commit latencies, serial p50/p99 are per-call "
           "decision times. Ratios are serial-normalized, so they "
           "transfer across machines.");
  root.set("reps", reps);
  root.set("target_arrivals", target_arrivals);
  root.set("profile", profile);
  root.set("arrival_rate", base.arrival_rate);
  root.set("window_width", base.window_width);
  root.set("readmit_fraction", base.readmit_fraction);
  root.set("mean_holding_time", base.mean_holding_time);

  const orchestrator::Durability grouped_durability =
      orchestrator::Durability::parse(args.get("durability", "per_window"));

  io::JsonArray scenarios;
  double speedup_at_4 = 0.0;
  double rps_at_2 = 0.0;
  double rps_at_8 = 0.0;
  bool determinism_ok = true;
  double journaled_stream_ratio = 0.0;
  double journaled_grouped_p99_ms = 0.0;
  double journaled_append_speedup = 0.0;
  std::cout << "key             config       med rps    p99 ms   speedup\n";
  {
    const std::size_t num_aps = 400;
    const sim::Scenario s = scenario_for(num_aps);
    const std::string key = "aps" + std::to_string(num_aps);

    sim::SimConfig serial_config = base;
    serial_config.mode = sim::AdmissionMode::kPerEvent;
    const Measure serial = measure_interleaved(s, {serial_config}, reps)[0];
    std::printf("%-15s %-10s %9.1f %9.3f %8s\n", key.c_str(), "serial",
                serial.median_rps, serial.p99_ms_median, "1.00x");

    io::JsonObject entry;
    entry.set("key", key);
    entry.set("num_aps", num_aps);
    entry.set("serial", [&] {
      io::JsonObject o;
      fill(o, serial);
      o.set("admitted", serial.last.admitted);
      return io::Json(std::move(o));
    }());

    io::JsonArray pipelined_runs;
    sim::SimReport stream_world;  // first streaming run's final state
    std::vector<sim::SimConfig> thread_configs;
    for (const std::size_t threads : thread_counts) {
      sim::SimConfig config = base;
      config.threads = threads;
      config.pipelined_commit = true;
      thread_configs.push_back(config);
    }
    const std::vector<Measure> pipelined_measures =
        measure_interleaved(s, thread_configs, reps);
    for (std::size_t c = 0; c < thread_counts.size(); ++c) {
      const std::size_t threads = thread_counts[c];
      const Measure& pipelined = pipelined_measures[c];
      const double speedup = serial.median_rps > 0.0
                                 ? pipelined.median_rps / serial.median_rps
                                 : 0.0;
      if (threads == 4) speedup_at_4 = speedup;
      if (threads == 2) rps_at_2 = pipelined.median_rps;
      if (threads == 8) rps_at_8 = pipelined.median_rps;
      if (threads == thread_counts.front()) {
        stream_world = pipelined.last;
        // The streaming trace's composition (the serial baseline admits
        // more of the same trace; see the file comment).
        entry.set("generated", stream_world.generated);
        entry.set("arrivals", stream_world.arrivals);
        entry.set("admitted", stream_world.admitted);
        entry.set("rejected", stream_world.rejected);
        entry.set("departed", stream_world.departed);
        entry.set("readmits", stream_world.readmits);
        entry.set("windows", stream_world.windows);
        entry.set("live_services", stream_world.live_services);
      } else if (!same_world(pipelined.last, stream_world)) {
        determinism_ok = false;
        std::cerr << "DETERMINISM VIOLATION: threads=" << threads
                  << " diverged from the threads="
                  << thread_counts.front() << " streaming trace\n";
      }
      io::JsonObject run;
      fill(run, pipelined);
      run.set("threads", threads);
      run.set("speedup_vs_serial", speedup);
      pipelined_runs.push_back(io::Json(std::move(run)));
      std::printf("%-15s pipeline/%-2zu %9.1f %9.3f %7.2fx\n", key.c_str(),
                  threads, pipelined.median_rps, pipelined.p99_ms_median,
                  speedup);
    }
    entry.set("pipelined", io::Json(std::move(pipelined_runs)));

    // Journaled column: the same pipelined stream at a representative
    // thread count with a write-ahead journal attached, per-record flush
    // vs. group commit, plus the raw append rate over teardown-sized
    // records. Bytes on disk are identical under every policy (asserted
    // in tests); only the physical write schedule differs.
    {
      const std::size_t jthreads = 2;
      const std::string jpath =
          args.get("journal", args.get("out", "BENCH_stream.json") +
                                  ".tmp.journal");
      sim::SimConfig jconfig = base;
      jconfig.threads = jthreads;
      jconfig.pipelined_commit = true;
      jconfig.journal_path = jpath;

      std::vector<sim::SimConfig> jconfigs(2, jconfig);
      jconfigs[0].durability = orchestrator::Durability::per_record();
      jconfigs[1].durability = grouped_durability;
      const std::vector<Measure> jmeasures =
          measure_interleaved(s, jconfigs, reps);
      const Measure& per_record = jmeasures[0];
      const Measure& grouped = jmeasures[1];
      journaled_stream_ratio =
          per_record.median_rps > 0.0
              ? grouped.median_rps / per_record.median_rps
              : 0.0;
      journaled_grouped_p99_ms = grouped.p99_ms_median;
      if (!same_world(per_record.last, stream_world) ||
          !same_world(grouped.last, stream_world)) {
        determinism_ok = false;
        std::cerr << "DETERMINISM VIOLATION: journaled runs diverged from "
                     "the unjournaled streaming trace\n";
      }

      // The append replay is seconds of work, so it always gets its own
      // median-of-5, interleaving the two legs for the same drift
      // immunity as the stream measurements.
      const std::size_t append_n = quick ? 20000 : 100000;
      const std::size_t append_reps = 5;
      std::vector<double> pr_rates;
      std::vector<double> pr_byte_rates;
      std::vector<double> grouped_rates;
      std::vector<double> grouped_byte_rates;
      for (std::size_t r = 0; r < append_reps; ++r) {
        double bytes = 0.0;
        pr_rates.push_back(
            append_rate(jpath, orchestrator::Durability::per_record(), 1,
                        append_n, &bytes));
        pr_byte_rates.push_back(bytes);
        grouped_rates.push_back(
            append_rate(jpath, orchestrator::Durability::per_window(), 64,
                        append_n, &bytes));
        grouped_byte_rates.push_back(bytes);
      }
      const double pr_append = util::quantile(pr_rates, 0.5);
      const double pr_bytes = util::quantile(pr_byte_rates, 0.5);
      const double grouped_append = util::quantile(grouped_rates, 0.5);
      const double grouped_bytes = util::quantile(grouped_byte_rates, 0.5);
      journaled_append_speedup =
          pr_append > 0.0 ? grouped_append / pr_append : 0.0;
      if (!args.has("journal")) {
        std::error_code ec;
        std::filesystem::remove(jpath, ec);
      }

      io::JsonObject journaled;
      journaled.set("threads", jthreads);
      journaled.set("durability_grouped", grouped_durability.to_string());
      journaled.set("per_record", [&] {
        io::JsonObject o;
        fill(o, per_record);
        return io::Json(std::move(o));
      }());
      journaled.set("grouped", [&] {
        io::JsonObject o;
        fill(o, grouped);
        return io::Json(std::move(o));
      }());
      journaled.set("grouped_vs_per_record_rps", journaled_stream_ratio);
      io::JsonObject replay;
      replay.set("records", append_n);
      replay.set("per_record_appends_per_s", pr_append);
      replay.set("per_record_bytes_per_s", pr_bytes);
      replay.set("grouped_appends_per_s", grouped_append);
      replay.set("grouped_bytes_per_s", grouped_bytes);
      replay.set("group_size", 64);
      replay.set("grouped_vs_per_record", journaled_append_speedup);
      journaled.set("append_replay", io::Json(std::move(replay)));
      entry.set("journaled", io::Json(std::move(journaled)));

      std::printf("%-15s journal/pr  %9.1f %9.3f %8s\n", key.c_str(),
                  per_record.median_rps, per_record.p99_ms_median, "");
      std::printf("%-15s journal/grp %9.1f %9.3f %7.2fx\n", key.c_str(),
                  grouped.median_rps, grouped.p99_ms_median,
                  journaled_stream_ratio);
      std::printf("%-15s append x%-3d %9.0f rec/s vs %9.0f rec/s %7.2fx\n",
                  key.c_str(), 64, grouped_append, pr_append,
                  journaled_append_speedup);
    }
    scenarios.push_back(io::Json(std::move(entry)));
  }
  root.set("scenarios", io::Json(std::move(scenarios)));

  io::JsonObject summary;
  summary.set("speedup_at_4_threads", speedup_at_4);
  summary.set("pipelined_rps_8t_vs_2t",
              rps_at_2 > 0.0 ? rps_at_8 / rps_at_2 : 0.0);
  summary.set("determinism_ok", determinism_ok);
  summary.set("journaled_stream_ratio", journaled_stream_ratio);
  summary.set("journaled_grouped_p99_ms", journaled_grouped_p99_ms);
  summary.set("journaled_append_speedup", journaled_append_speedup);
  root.set("summary", io::Json(std::move(summary)));

  const io::Json snapshot(std::move(root));
  const std::string out_path = args.get("out", "BENCH_stream.json");
  {
    std::ofstream out(out_path);
    MECRA_CHECK_MSG(static_cast<bool>(out), "cannot write output file");
    out << snapshot.dump(2) << "\n";
  }
  std::cout << "\nwrote " << out_path << "\n";

  if (!determinism_ok) return 2;
  if (args.has("check-against")) {
    const double factor = args.get_double("regression-factor", 2.0);
    return check_against(snapshot, args.get("check-against", ""), factor);
  }
  return 0;
}
