// Robustness bench: the simulation core's fault + self-healing layer. One
// MEC network serves a Poisson request stream while instance failures and
// cloudlet outages are injected at increasing rates; a reactive controller
// repairs outages with fixed MTTR and tops services back up to their
// expectation. Augmentation runs through the deadline-guarded
// FallbackAugmenter (ILP -> randomized -> matching -> greedy), so the bench
// also reports which tier actually served.
//
// `--crash-restart` runs the crash-consistency drill instead: one journaled
// run is torn down and recovered at three points mid-trace, under
// per-event and under pooled admission, and each result must be
// bit-identical to its uninterrupted run (exit 1 on any mismatch).
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/fallback.h"
#include "graph/topology.h"
#include "obs/export.h"
#include "sim/report.h"
#include "sim/simulate.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

/// CI smoke for the journal: deterministic trace under fault injection,
/// three mid-run crash-restarts recovered from the write-ahead journal,
/// every metric compared with exact (bit-level) equality against the
/// uninterrupted run, for each synchronous admission mode.
int run_crash_restart_drill(std::uint64_t seed, double horizon) {
  using namespace mecra;
  util::Rng rng(seed);
  graph::WaxmanParams wax;
  wax.num_nodes = 60;
  auto topo = graph::waxman(wax, rng);
  const auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  const auto catalog = mec::VnfCatalog::random({}, rng);

  sim::SimConfig config;
  config.arrival_rate = 1.5;
  config.mean_holding_time = 10.0;
  config.horizon = horizon;
  config.instance_failure_rate = 1.0;
  config.cloudlet_outage_rate = 0.1;
  config.controller = orchestrator::ControllerOptions{.mttr = 5.0};
  config.record_trace = true;

  std::size_t mismatches = 0;
  for (const auto mode :
       {sim::AdmissionMode::kPerEvent, sim::AdmissionMode::kPooled}) {
    config.mode = mode;
    const sim::SimReport a = sim::simulate(network, catalog, config, seed);

    sim::SimConfig crashed_config = config;
    crashed_config.journal_path =
        (std::filesystem::temp_directory_path() / "chaos_loop_drill.journal")
            .string();
    crashed_config.snapshot_period = horizon / 6.0;
    crashed_config.crash_times = {horizon * 0.2, horizon * 0.5, horizon * 0.8};
    const sim::SimReport b =
        sim::simulate(network, catalog, crashed_config, seed);
    std::filesystem::remove(crashed_config.journal_path);

    const std::size_t before = mismatches;
    auto check = [&](const char* what, auto lhs, auto rhs) {
      if (lhs == rhs) return;
      ++mismatches;
      std::cout << "MISMATCH " << what << ": baseline " << lhs
                << " vs crashed " << rhs << "\n";
    };
    check("trace length", a.trace.size(), b.trace.size());
    if (a.trace.size() == b.trace.size() && a.trace != b.trace) {
      ++mismatches;
      std::cout << "MISMATCH trace: events differ\n";
    }
    check("admitted", a.admitted, b.admitted);
    check("rejected", a.rejected, b.rejected);
    check("departed", a.departed, b.departed);
    check("repairs", a.controller.repairs, b.controller.repairs);
    check("standbys_added", a.controller.standbys_added,
          b.controller.standbys_added);
    check("revivals", a.controller.revivals, b.controller.revivals);
    check("slo_time", a.slo_time, b.slo_time);
    check("degraded_time", a.degraded_time, b.degraded_time);
    check("down_time", a.down_time, b.down_time);
    check("final_total_residual", a.final_total_residual,
          b.final_total_residual);
    check("crash-restarts", std::uint64_t{3}, b.crash_restarts);

    std::printf(
        "crash-restart drill (%s): %zu events, %llu crash-restarts, %llu "
        "journal records, %llu replayed — %s\n",
        mode == sim::AdmissionMode::kPooled ? "pooled" : "per-event",
        b.trace.size(), static_cast<unsigned long long>(b.crash_restarts),
        static_cast<unsigned long long>(b.journal_records),
        static_cast<unsigned long long>(b.replayed_events),
        mismatches == before ? "BIT-IDENTICAL" : "DIVERGED");
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(
      argc, argv, {"seed", "horizon", "deadline", "report", "crash-restart"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20200817));
  const double horizon = args.get_double("horizon", 120.0);
  const double deadline = args.get_double("deadline", 0.05);
  const std::string report_path =
      args.get("report", "run_report.json", "MECRA_RUN_REPORT");
  if (args.has("crash-restart")) {
    return run_crash_restart_drill(seed, args.get_double("horizon", 40.0));
  }

  util::Rng rng(seed);
  graph::WaxmanParams wax;
  wax.num_nodes = 100;
  auto topo = graph::waxman(wax, rng);
  const auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  const auto catalog = mec::VnfCatalog::random({}, rng);

  core::FallbackAugmenter augmenter(
      core::FallbackOptions{.deadline_seconds = deadline});

  std::cout << "=== Chaos loop: availability under fault injection ===\n"
            << "network: " << network.num_nodes() << " APs, "
            << network.cloudlets().size() << " cloudlets, horizon " << horizon
            << ", reactive controller, MTTR 10, fallback deadline "
            << deadline << "s\n\n";

  util::Table table({"ifail rate", "outage rate", "admitted", "SLO attain",
                     "degraded", "down", "MTTR(svc)", "standbys", "revivals"});
  struct Point {
    double ifail;
    double outage;
  };
  for (const Point p : {Point{0.0, 0.0}, Point{0.5, 0.02}, Point{1.0, 0.05},
                        Point{2.0, 0.1}, Point{4.0, 0.2}}) {
    sim::SimConfig config;
    config.arrival_rate = 1.0;
    config.mean_holding_time = 15.0;
    config.horizon = horizon;
    config.instance_failure_rate = p.ifail;
    config.cloudlet_outage_rate = p.outage;
    config.algorithm = augmenter.as_algorithm();
    config.controller = orchestrator::ControllerOptions{
        .policy = orchestrator::ReaugmentPolicy::kReactive, .mttr = 10.0};
    const auto m = sim::simulate(network, catalog, config, seed);
    const double held = m.total_held_time > 0.0 ? m.total_held_time : 1.0;
    table.add_row({util::fmt(p.ifail, 2), util::fmt(p.outage, 2),
                   std::to_string(m.admitted), util::fmt_pct(m.slo_attainment, 2),
                   util::fmt_pct(m.degraded_time / held, 2),
                   util::fmt_pct(m.down_time / held, 2),
                   util::fmt(m.mean_time_to_recovery, 3),
                   std::to_string(m.controller.standbys_added),
                   std::to_string(m.controller.revivals)});
  }
  table.print(std::cout);

  std::cout << "\nfallback tiers over all sweeps (" << augmenter.calls()
            << " calls, " << augmenter.best_effort_calls()
            << " best-effort):\n";
  util::Table tiers({"tier", "attempts", "served", "timeouts", "infeasible",
                     "unmet", "errors"});
  for (const auto& t : augmenter.stats()) {
    tiers.add_row({t.name, std::to_string(t.attempts),
                   std::to_string(t.served), std::to_string(t.timeouts),
                   std::to_string(t.infeasible), std::to_string(t.unmet),
                   std::to_string(t.errors)});
  }
  tiers.print(std::cout);
  std::cout << "\nexpected shape: SLO attainment and availability fall as "
               "failure rates rise; the controller converts down time into "
               "degraded time via revivals and standby top-ups.\n";

  // Machine-readable artifact (docs/run_report_schema.md): the obs
  // registry has accumulated every sweep point; the gauges hold the last
  // (harshest) point. --report= with an empty value disables.
  if (!report_path.empty()) {
    io::JsonObject ctx;
    ctx.set("producer", io::Json("bench/chaos_loop"));
    ctx.set("seed", io::Json(seed));
    ctx.set("horizon", io::Json(horizon));
    ctx.set("deadline_seconds", io::Json(deadline));
    sim::write_run_report(report_path, io::Json(std::move(ctx)));
    std::cout << "\nrun report written to " << report_path << "\n";
  }
  return 0;
}
