// Tests for the simulation core (sim/simulate.h): the same-trace suite
// that pushes one seed's trace through every admission mode, and the
// per-event (dynamic-regime) cases — capacity conservation, determinism,
// metric sanity, load monotonicity, and the pluggable algorithm.
#include <gtest/gtest.h>

#include "core/greedy_baseline.h"
#include "graph/topology.h"
#include "sim/simulate.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace mecra::sim {
namespace {

struct World {
  mec::MecNetwork network;
  mec::VnfCatalog catalog;
};

World make_world(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::WaxmanParams wax;
  wax.num_nodes = 60;
  auto topo = graph::waxman(wax, rng);
  return World{
      mec::MecNetwork::random(std::move(topo.graph), {}, rng),
      mec::VnfCatalog::random({}, rng),
  };
}

// --- one trace through every mode ---

struct SameTraceCase {
  std::size_t threads;
  double window_width;
};

class SameTrace : public ::testing::TestWithParam<SameTraceCase> {};

TEST_P(SameTrace, ModesShareArrivalsPooledMatchesStreamingAndAllConserve) {
  // 100 APs with 10 cloudlets split into several shards, so two workers
  // really admit concurrently.
  ScenarioParams params;
  params.num_aps = 100;
  params.residual_fraction = 0.5;
  util::Rng rng(19);
  const std::optional<Scenario> s = make_scenario(params, rng);
  ASSERT_TRUE(s.has_value());

  SimConfig config;
  config.arrival_rate = 25.0;
  config.mean_holding_time = 1.0;
  config.horizon = 12.0;
  config.readmit_fraction = 0.25;
  config.request.expectation = 0.95;
  config.window_width = GetParam().window_width;
  config.threads = GetParam().threads;
  config.record_trace = true;

  std::vector<SimReport> runs;
  for (const AdmissionMode mode :
       {AdmissionMode::kPerEvent, AdmissionMode::kPooled,
        AdmissionMode::kStreaming}) {
    config.mode = mode;
    runs.push_back(simulate(s->network, s->catalog, config, 77));
  }
  const SimReport& per_event = runs[0];
  const SimReport& pooled = runs[1];
  const SimReport& streaming = runs[2];

  // 1. Every mode sees the same arrival sequence: tickets 0..n-1 in time
  // order inside the horizon, identical requests.
  const std::vector<Arrival>& arrivals = per_event.arrival_trace;
  ASSERT_GT(arrivals.size(), 100u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].ticket, i);
    EXPECT_EQ(arrivals[i].request.id, i);
    EXPECT_LT(arrivals[i].time, config.horizon);
    if (i > 0) {
      EXPECT_GE(arrivals[i].time, arrivals[i - 1].time);
    }
  }
  EXPECT_EQ(pooled.arrival_trace, arrivals);
  EXPECT_EQ(streaming.arrival_trace, arrivals);

  // 2. kPooled is StreamingService's window rules run inline: bit-identical
  // decisions, lifecycle, and end state.
  EXPECT_GT(pooled.admitted, 0u);
  EXPECT_GT(pooled.rejected, 0u);
  EXPECT_GT(pooled.readmits, 0u);
  EXPECT_EQ(streaming.arrivals, pooled.arrivals);
  EXPECT_EQ(streaming.admitted, pooled.admitted);
  EXPECT_EQ(streaming.rejected, pooled.rejected);
  EXPECT_EQ(streaming.departed, pooled.departed);
  EXPECT_EQ(streaming.readmits, pooled.readmits);
  EXPECT_EQ(streaming.windows, pooled.windows);
  EXPECT_EQ(streaming.met_expectation, pooled.met_expectation);
  EXPECT_EQ(streaming.live_services, pooled.live_services);
  EXPECT_EQ(streaming.end_total_residual, pooled.end_total_residual);

  // 3. Every mode decides every arrival, ends each admitted incarnation
  // exactly once, and conserves capacity after the drain.
  const double pristine = s->network.total_residual();
  for (const SimReport& r : runs) {
    EXPECT_EQ(r.generated, arrivals.size());
    EXPECT_EQ(r.arrivals, r.generated);
    EXPECT_EQ(r.admitted + r.rejected, r.arrivals + r.readmits);
    EXPECT_EQ(r.admitted, r.departed + r.readmits + r.live_services);
    EXPECT_NEAR(r.final_total_residual, pristine, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SimCore, SameTrace,
    ::testing::Values(SameTraceCase{1, 3.0}, SameTraceCase{2, 3.0},
                      SameTraceCase{1, 0.25}, SameTraceCase{2, 0.25}),
    [](const ::testing::TestParamInfo<SameTraceCase>& p) {
      return "t" + std::to_string(p.param.threads) + "_w" +
             std::to_string(static_cast<int>(p.param.window_width * 100));
    });

// --- per-event admission without the optional layers ---

TEST(Dynamic, AllCapacityReturnsAfterTheRunDrains) {
  const auto world = make_world(1);
  SimConfig config;
  config.arrival_rate = 0.5;
  config.mean_holding_time = 5.0;
  config.horizon = 60.0;
  const auto m = simulate(world.network, world.catalog, config, 42);
  // Services live at the horizon are drained at the end, so the final
  // residual equals the initial one (conservation of consume/release).
  EXPECT_NEAR(m.final_total_residual, world.network.total_residual(), 1e-6);
  EXPECT_EQ(m.departed + m.live_services, m.admitted);
}

TEST(Dynamic, DeterministicPerSeed) {
  const auto world = make_world(2);
  SimConfig config;
  config.horizon = 40.0;
  const auto a = simulate(world.network, world.catalog, config, 7);
  const auto b = simulate(world.network, world.catalog, config, 7);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.met_expectation, b.met_expectation);
  EXPECT_DOUBLE_EQ(a.time_avg_utilization, b.time_avg_utilization);
}

TEST(Dynamic, MetricsAreInternallyConsistent) {
  const auto world = make_world(3);
  SimConfig config;
  config.arrival_rate = 1.0;
  config.horizon = 50.0;
  const auto m = simulate(world.network, world.catalog, config, 9);
  EXPECT_EQ(m.admitted + m.rejected, m.arrivals);
  EXPECT_LE(m.met_expectation, m.admitted);
  EXPECT_GE(m.time_avg_utilization, 0.0);
  EXPECT_LE(m.time_avg_utilization, 1.0 + 1e-9);
  EXPECT_GE(m.peak_utilization, m.time_avg_utilization - 1e-9);
  EXPECT_GT(m.arrivals, 0u);
  if (m.admitted > 0) {
    EXPECT_GT(m.mean_achieved_reliability, 0.0);
    EXPECT_LE(m.mean_achieved_reliability, 1.0 + 1e-9);
  }
}

TEST(Dynamic, HigherLoadRaisesUtilizationAndBlocking) {
  const auto world = make_world(4);
  SimConfig light;
  light.arrival_rate = 0.2;
  light.mean_holding_time = 8.0;
  light.horizon = 120.0;
  SimConfig heavy = light;
  heavy.arrival_rate = 3.0;
  const auto ml = simulate(world.network, world.catalog, light, 11);
  const auto mh = simulate(world.network, world.catalog, heavy, 11);
  EXPECT_GT(mh.time_avg_utilization, ml.time_avg_utilization);
  EXPECT_GE(mh.rejected, ml.rejected);
  // Under saturation, fewer admitted requests can reach rho.
  if (ml.admitted > 0 && mh.admitted > 0) {
    const double frac_light = static_cast<double>(ml.met_expectation) /
                              static_cast<double>(ml.admitted);
    const double frac_heavy = static_cast<double>(mh.met_expectation) /
                              static_cast<double>(mh.admitted);
    EXPECT_LE(frac_heavy, frac_light + 0.05);
  }
}

TEST(Dynamic, PluggableAlgorithmIsUsed) {
  const auto world = make_world(5);
  SimConfig config;
  config.horizon = 30.0;
  std::size_t calls = 0;
  config.algorithm = [&calls](const core::BmcgapInstance& inst,
                              const core::AugmentOptions& opt) {
    ++calls;
    return core::augment_greedy(inst, opt);
  };
  const auto m = simulate(world.network, world.catalog, config, 13);
  EXPECT_EQ(calls, m.admitted);
}

TEST(Dynamic, InputNetworkIsUntouched) {
  const auto world = make_world(6);
  const double before = world.network.total_residual();
  SimConfig config;
  config.horizon = 20.0;
  (void)simulate(world.network, world.catalog, config, 17);
  EXPECT_DOUBLE_EQ(world.network.total_residual(), before);
}

TEST(Dynamic, RejectsBadConfig) {
  const auto world = make_world(7);
  SimConfig bad;
  bad.arrival_rate = 0.0;
  EXPECT_THROW((void)simulate(world.network, world.catalog, bad, 1),
               util::CheckFailure);
}

}  // namespace
}  // namespace mecra::sim
