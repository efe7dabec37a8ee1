// Chaos drill: the three reaugmentation policies head to head on one fault
// schedule. The same seed drives identical arrival and failure streams;
// only the controller policy changes, so differences in SLO attainment,
// downtime, and solver attempts are pure policy effects. A final run shows
// the FallbackAugmenter's per-tier counters under a tight deadline.
//
//   ./chaos_drill [--seed=N] [--horizon=T]
#include <iostream>

#include "core/fallback.h"
#include "graph/topology.h"
#include "sim/simulate.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

const char* policy_name(mecra::orchestrator::ReaugmentPolicy p) {
  using mecra::orchestrator::ReaugmentPolicy;
  switch (p) {
    case ReaugmentPolicy::kReactive: return "reactive";
    case ReaugmentPolicy::kPeriodic: return "periodic";
    case ReaugmentPolicy::kBackoff: return "backoff";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 404));
  const double horizon = args.get_double("horizon", 100.0);

  util::Rng rng(seed);
  graph::WaxmanParams wax;
  wax.num_nodes = 80;
  auto topo = graph::waxman(wax, rng);
  const auto network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  const auto catalog = mec::VnfCatalog::random({}, rng);

  std::cout << "=== Chaos drill: one fault schedule, three policies ===\n"
            << "network: " << network.num_nodes() << " APs, "
            << network.cloudlets().size() << " cloudlets, horizon " << horizon
            << ", instance failures 1.0/t, outages 0.05/t, MTTR 8\n\n";

  auto base_config = [&] {
    sim::SimConfig config;
    config.arrival_rate = 0.8;
    config.mean_holding_time = 15.0;
    config.horizon = horizon;
    config.instance_failure_rate = 1.0;
    config.cloudlet_outage_rate = 0.05;
    config.controller = orchestrator::ControllerOptions{.mttr = 8.0};
    return config;
  };

  util::Table table({"policy", "SLO attain", "down", "MTTR(svc)", "attempts",
                     "standbys", "revivals", "repairs"});
  for (const auto policy : {orchestrator::ReaugmentPolicy::kReactive,
                            orchestrator::ReaugmentPolicy::kPeriodic,
                            orchestrator::ReaugmentPolicy::kBackoff}) {
    sim::SimConfig config = base_config();
    config.controller->policy = policy;
    const auto m = sim::simulate(network, catalog, config, seed);
    const double held = m.total_held_time > 0.0 ? m.total_held_time : 1.0;
    table.add_row({policy_name(policy), util::fmt_pct(m.slo_attainment, 2),
                   util::fmt_pct(m.down_time / held, 2),
                   util::fmt(m.mean_time_to_recovery, 3),
                   std::to_string(m.controller.reaugment_attempts),
                   std::to_string(m.controller.standbys_added),
                   std::to_string(m.controller.revivals),
                   std::to_string(m.controller.repairs)});
  }
  table.print(std::cout);
  std::cout << "\nreactive buys the highest attainment with the most solver "
               "attempts; periodic batches them; backoff parks hopeless "
               "services until a repair frees capacity.\n\n";

  // Same drill through the deadline-guarded fallback chain.
  core::FallbackAugmenter augmenter(
      core::FallbackOptions{.deadline_seconds = 0.02});
  sim::SimConfig config = base_config();
  config.algorithm = augmenter.as_algorithm();
  const auto m = sim::simulate(network, catalog, config, seed);
  std::cout << "fallback chain (20ms deadline): SLO "
            << util::fmt_pct(m.slo_attainment, 2) << ", "
            << augmenter.calls() << " augment calls, "
            << augmenter.best_effort_calls() << " best-effort\n";
  util::Table tiers({"tier", "attempts", "served", "timeouts", "infeasible",
                     "unmet"});
  for (const auto& t : augmenter.stats()) {
    tiers.add_row({t.name, std::to_string(t.attempts),
                   std::to_string(t.served), std::to_string(t.timeouts),
                   std::to_string(t.infeasible), std::to_string(t.unmet)});
  }
  tiers.print(std::cout);
  return 0;
}
