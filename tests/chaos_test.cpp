// Tests for the simulation core's fault + self-healing layer
// (sim/simulate.h): bit-identical determinism, capacity conservation
// through the full fail/repair/reaugment/teardown cycle, and sane
// availability accounting under and without fault injection.
#include <gtest/gtest.h>

#include "graph/topology.h"
#include "sim/simulate.h"

namespace mecra::sim {
namespace {

mec::MecNetwork small_network(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::WaxmanParams wax;
  wax.num_nodes = 40;
  auto topo = graph::waxman(wax, rng);
  return mec::MecNetwork::random(std::move(topo.graph), {}, rng);
}

mec::VnfCatalog small_catalog(std::uint64_t seed) {
  util::Rng rng(seed + 1);
  return mec::VnfCatalog::random({}, rng);
}

SimConfig small_config() {
  SimConfig config;
  config.arrival_rate = 1.0;
  config.mean_holding_time = 8.0;
  config.horizon = 30.0;
  config.instance_failure_rate = 1.0;
  config.cloudlet_outage_rate = 0.1;
  config.controller = orchestrator::ControllerOptions{.mttr = 5.0};
  return config;
}

TEST(Chaos, SameSeedGivesBitIdenticalTraceAndMetrics) {
  const auto network = small_network(42);
  const auto catalog = small_catalog(42);
  SimConfig config = small_config();
  config.record_trace = true;

  const SimReport a = simulate(network, catalog, config, 7);
  const SimReport b = simulate(network, catalog, config, 7);

  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);  // exact double equality via operator==

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.instance_failures, b.instance_failures);
  EXPECT_EQ(a.cloudlet_outages, b.cloudlet_outages);
  EXPECT_EQ(a.controller.repairs, b.controller.repairs);
  EXPECT_EQ(a.controller.standbys_added, b.controller.standbys_added);
  EXPECT_EQ(a.total_held_time, b.total_held_time);  // bit-identical
  EXPECT_EQ(a.slo_time, b.slo_time);
  EXPECT_EQ(a.degraded_time, b.degraded_time);
  EXPECT_EQ(a.down_time, b.down_time);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.mean_time_to_recovery, b.mean_time_to_recovery);
  EXPECT_EQ(a.final_total_residual, b.final_total_residual);
}

TEST(Chaos, DifferentSeedsDiverge) {
  const auto network = small_network(42);
  const auto catalog = small_catalog(42);
  SimConfig config = small_config();
  config.record_trace = true;
  const SimReport a = simulate(network, catalog, config, 7);
  const SimReport b = simulate(network, catalog, config, 8);
  EXPECT_NE(a.trace, b.trace);
}

TEST(Chaos, CapacityIsConservedThroughTheFullCycle) {
  const auto network = small_network(3);
  const auto catalog = small_catalog(3);
  const double pristine = network.total_residual();
  const SimReport report = simulate(network, catalog, small_config(), 11);
  EXPECT_GT(report.admitted, 0u);
  EXPECT_GT(report.instance_failures, 0u);
  EXPECT_NEAR(report.final_total_residual, pristine, 1e-6);
}

TEST(Chaos, NoFaultInjectionMeansNoDowntime) {
  const auto network = small_network(5);
  const auto catalog = small_catalog(5);
  SimConfig config = small_config();
  config.instance_failure_rate = 0.0;
  config.cloudlet_outage_rate = 0.0;
  const SimReport m = simulate(network, catalog, config, 13);
  EXPECT_GT(m.admitted, 0u);
  EXPECT_EQ(m.instance_failures, 0u);
  EXPECT_EQ(m.cloudlet_outages, 0u);
  EXPECT_EQ(m.controller.repairs, 0u);
  EXPECT_DOUBLE_EQ(m.down_time, 0.0);
  EXPECT_DOUBLE_EQ(m.degraded_time, 0.0);
  EXPECT_EQ(m.down_episodes, 0u);
}

TEST(Chaos, FaultInjectionCausesAndRecoversDowntime) {
  const auto network = small_network(9);
  const auto catalog = small_catalog(9);
  SimConfig config = small_config();
  config.instance_failure_rate = 4.0;
  config.cloudlet_outage_rate = 0.5;
  config.horizon = 40.0;
  const SimReport m = simulate(network, catalog, config, 17);
  EXPECT_GT(m.instance_failures, 0u);
  EXPECT_GT(m.cloudlet_outages, 0u);
  EXPECT_GT(m.controller.repairs, 0u);
  EXPECT_GT(m.controller.standbys_added, 0u);
  // The controller heals: reaugmentation restored at least one service.
  EXPECT_GT(m.controller.reaugment_successes, 0u);
  EXPECT_LT(m.slo_attainment, 1.0);
  // Accounting identities.
  EXPECT_LE(m.slo_time, m.total_held_time + 1e-9);
  EXPECT_LE(m.down_time + m.degraded_time, m.total_held_time + 1e-9);
  EXPECT_GE(m.recovered_episodes, 0u);
  EXPECT_LE(m.recovered_episodes, m.down_episodes);
}

TEST(Chaos, HeavierFaultsCannotImproveSloAttainment) {
  const auto network = small_network(21);
  const auto catalog = small_catalog(21);
  SimConfig clean = small_config();
  clean.instance_failure_rate = 0.0;
  clean.cloudlet_outage_rate = 0.0;
  SimConfig heavy = small_config();
  heavy.instance_failure_rate = 6.0;
  heavy.cloudlet_outage_rate = 0.5;
  const double slo_clean =
      simulate(network, catalog, clean, 23).slo_attainment;
  const double slo_heavy =
      simulate(network, catalog, heavy, 23).slo_attainment;
  EXPECT_LE(slo_heavy, slo_clean + 1e-12);
}

}  // namespace
}  // namespace mecra::sim
