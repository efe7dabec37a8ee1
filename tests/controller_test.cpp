// Tests for the self-healing controller: reactive top-ups, MTTR repair
// scheduling, periodic batching, exponential backoff, revival of DOWN
// services through reconcile(), and reconcile's one serial path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "graph/topology.h"
#include "orchestrator/controller.h"
#include "sim/workload.h"
#include "util/check.h"

namespace mecra::orchestrator {
namespace {

/// Path 0-1-2 with generous cloudlets at 1 and 2; one two-function chain.
struct World {
  mec::MecNetwork network{graph::path_graph(3), {0.0, 3000.0, 3000.0}};
  mec::VnfCatalog catalog{{{0, "a", 0.8, 300.0}, {0, "b", 0.9, 400.0}}};
  mec::SfcRequest request;

  World() {
    request.chain = {0, 1};
    request.expectation = 0.99;
  }
};

/// Kills one running standby of the service (lowest instance id).
InstanceId kill_one_standby(Orchestrator& orch, ServiceId id) {
  for (const Instance& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby &&
        inst.state == InstanceState::kRunning) {
      (void)orch.fail_instance(id, inst.id);
      return inst.id;
    }
  }
  ADD_FAILURE() << "no running standby to kill";
  return 0;
}

TEST(Controller, ReactivePolicyTopsUpOnNextReconcile) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  util::Rng rng(7);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  controller.on_admit(*id, 0.0);

  kill_one_standby(orch, *id);
  controller.on_instance_failed(*id, 1.0);
  EXPECT_LT(orch.service(*id).current_reliability(orch.catalog()), 0.99);

  const auto report = controller.reconcile(1.0);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_GE(report.standbys_added, 1u);
  EXPECT_GE(orch.service(*id).current_reliability(orch.catalog()), 0.99);
  EXPECT_EQ(controller.metrics().reaugment_successes, 1u);

  // Healthy again: the next reconcile is a no-op.
  const auto idle = controller.reconcile(2.0);
  EXPECT_EQ(idle.attempts, 0u);
}

TEST(Controller, RepairsAreScheduledWithMttr) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  ControllerOptions options;
  options.mttr = 10.0;
  Controller controller(orch, options);

  EXPECT_EQ(controller.next_wakeup(),
            std::numeric_limits<double>::infinity());
  orch.fail_cloudlet(2);
  controller.on_cloudlet_failed(2, 3.0);
  EXPECT_DOUBLE_EQ(controller.next_wakeup(), 13.0);

  // Too early: the cloudlet stays down.
  (void)controller.reconcile(12.9);
  EXPECT_TRUE(orch.is_cloudlet_down(2));
  EXPECT_EQ(controller.metrics().repairs, 0u);

  const auto report = controller.reconcile(13.0);
  ASSERT_EQ(report.repaired.size(), 1u);
  EXPECT_EQ(report.repaired[0], 2u);
  EXPECT_FALSE(orch.is_cloudlet_down(2));
  EXPECT_EQ(controller.metrics().repairs, 1u);
  EXPECT_EQ(controller.next_wakeup(),
            std::numeric_limits<double>::infinity());
}

TEST(Controller, PeriodicPolicyWaitsForTheBatchBoundary) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  ControllerOptions options;
  options.policy = ReaugmentPolicy::kPeriodic;
  options.period = 5.0;
  Controller controller(orch, options);
  util::Rng rng(8);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  controller.on_admit(*id, 0.0);

  kill_one_standby(orch, *id);
  controller.on_instance_failed(*id, 1.0);

  // Dirty, but before the boundary: nothing happens; the wakeup points at
  // the boundary.
  EXPECT_EQ(controller.reconcile(1.0).attempts, 0u);
  EXPECT_DOUBLE_EQ(controller.next_wakeup(), 5.0);
  EXPECT_EQ(controller.reconcile(4.9).attempts, 0u);

  const auto report = controller.reconcile(5.0);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_GE(orch.service(*id).current_reliability(orch.catalog()), 0.99);
}

TEST(Controller, BackoffGrowsOnFutileAttemptsAndResetsOnRepair) {
  // Only cloudlet 1 (tight) is usable: a killed standby cannot be replaced
  // until the failed slots are reclaimed, so attempts keep failing.
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 2100.0, 0.0});
  Orchestrator orch(w.network, w.catalog, {});
  ControllerOptions options;
  options.policy = ReaugmentPolicy::kBackoff;
  options.backoff_initial = 1.0;
  options.backoff_factor = 2.0;
  options.backoff_max = 64.0;
  Controller controller(orch, options);
  util::Rng rng(9);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  // rho = 0.99 on one 2100 MHz cloudlet: 3x a (300) + 3x b (400) fill it.
  EXPECT_DOUBLE_EQ(orch.network().residual(1), 0.0);
  controller.on_admit(*id, 0.0);

  kill_one_standby(orch, *id);
  controller.on_instance_failed(*id, 0.0);

  // Attempt at t=0 fails (failed slot still holds the capacity) and gates
  // the service behind backoff_initial.
  EXPECT_EQ(controller.reconcile(0.0).attempts, 1u);
  EXPECT_EQ(controller.metrics().reaugment_failures, 1u);
  EXPECT_DOUBLE_EQ(controller.next_wakeup(), 1.0);

  // Gated: reconciles before the gate do not attempt.
  EXPECT_EQ(controller.reconcile(0.5).attempts, 0u);
  // The gate doubles on each failure: 1, then 2, then 4...
  EXPECT_EQ(controller.reconcile(1.0).attempts, 1u);
  EXPECT_DOUBLE_EQ(controller.next_wakeup(), 3.0);
  EXPECT_EQ(controller.reconcile(3.0).attempts, 1u);
  EXPECT_DOUBLE_EQ(controller.next_wakeup(), 7.0);

  // A repair resets every gate: reclaiming the failed slot at cloudlet 1
  // makes the immediate retry succeed.
  orch.fail_cloudlet(2);  // schedules a repair (capacity 0; no instances die)
  controller.on_cloudlet_failed(2, 4.0);
  const auto report = controller.reconcile(4.0 + options.mttr);
  EXPECT_EQ(report.repaired.size(), 1u);
  EXPECT_EQ(report.attempts, 1u);
  // Still failing (cloudlet 1 was not repaired), but the gate restarted at
  // backoff_initial instead of continuing to 8.
  EXPECT_DOUBLE_EQ(controller.next_wakeup(), 4.0 + options.mttr + 1.0);

  // Repairing cloudlet 1 by hand frees the dead slot; the next attempt
  // succeeds and clears the gate.
  orch.repair_cloudlet(1);
  const auto healed = controller.reconcile(4.0 + options.mttr + 1.0);
  EXPECT_EQ(healed.attempts, 1u);
  EXPECT_GE(orch.service(*id).current_reliability(orch.catalog()), 0.99);
  EXPECT_EQ(controller.next_wakeup(),
            std::numeric_limits<double>::infinity());
}

TEST(Controller, ReconcileRevivesDownServicesAfterRepair) {
  // Two cloudlets; the service lives entirely on whichever cloudlets it
  // uses — kill both to force kDown, then let the MTTR repair + revive
  // bring it back.
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  ControllerOptions options;
  options.mttr = 5.0;
  Controller controller(orch, options);
  util::Rng rng(10);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  controller.on_admit(*id, 0.0);

  orch.fail_cloudlet(1);
  controller.on_cloudlet_failed(1, 0.0);
  orch.fail_cloudlet(2);
  controller.on_cloudlet_failed(2, 1.0);
  EXPECT_EQ(orch.service(*id).state, ServiceState::kDown);

  // While everything is down, attempts cannot revive (no capacity).
  (void)controller.reconcile(1.0);
  EXPECT_EQ(orch.service(*id).state, ServiceState::kDown);

  // First repair lands at t=5, second at t=6; reconcile after both.
  (void)controller.reconcile(5.0);
  const auto report = controller.reconcile(6.0);
  EXPECT_EQ(controller.metrics().repairs, 2u);
  EXPECT_GE(controller.metrics().revivals, 1u);
  EXPECT_NE(orch.service(*id).state, ServiceState::kDown);
  EXPECT_GE(orch.service(*id).current_reliability(orch.catalog()), 0.99);
  (void)report;
}

TEST(Controller, TeardownStopsTracking) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  util::Rng rng(11);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  controller.on_admit(*id, 0.0);
  kill_one_standby(orch, *id);
  controller.on_instance_failed(*id, 1.0);

  orch.teardown(*id);
  controller.on_teardown(*id);
  const auto report = controller.reconcile(1.0);
  EXPECT_EQ(report.attempts, 0u);  // no tracked service left
}

TEST(Controller, BackoffSaturatesExactlyAfterAThousandFailures) {
  // A hopeless service (primaries fill the only cloudlet; 0.72 < 0.99 and
  // no capacity for standbys) fails every attempt forever. The gate must
  // land EXACTLY on backoff_max and stay there — a naive
  // `backoff *= factor` loop drifts past the cap or overflows to Inf,
  // which poisons not_before and next_wakeup.
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 700.0, 0.0});
  Orchestrator orch(w.network, w.catalog, {});
  ControllerOptions options;
  options.policy = ReaugmentPolicy::kBackoff;
  options.backoff_initial = 1.0;
  options.backoff_factor = 3.0;
  options.backoff_max = 1.0e6;
  Controller controller(orch, options);
  util::Rng rng(13);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(orch.network().residual(1), 0.0);
  controller.on_admit(*id, 0.0);
  controller.on_instance_failed(*id, 0.0);

  double now = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto report = controller.reconcile(now);
    ASSERT_EQ(report.attempts, 1u) << "iteration " << i;
    const double wake = controller.next_wakeup();
    ASSERT_TRUE(std::isfinite(wake)) << "iteration " << i;
    ASSERT_GT(wake, now) << "iteration " << i;
    now = wake;
  }
  EXPECT_EQ(controller.metrics().reaugment_failures, 1000u);

  const ControllerState state = controller.state();
  ASSERT_EQ(state.tracked.size(), 1u);
  EXPECT_EQ(state.tracked[0].backoff, options.backoff_max);  // exact
  EXPECT_TRUE(std::isfinite(state.tracked[0].not_before));
}

TEST(Controller, NonFiniteTimingOptionsAreRejected) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ControllerOptions bad;
  bad.backoff_max = inf;
  EXPECT_THROW(Controller(orch, bad), util::CheckFailure);
  bad = {};
  bad.period = nan;
  EXPECT_THROW(Controller(orch, bad), util::CheckFailure);
  bad = {};
  bad.mttr = inf;
  EXPECT_THROW(Controller(orch, bad), util::CheckFailure);
  bad = {};
  bad.backoff_factor = nan;
  EXPECT_THROW(Controller(orch, bad), util::CheckFailure);
}

TEST(Controller, ReconcileAfterAdmitBatchIsRevivePlusReaugmentInIdOrder) {
  // reconcile() has one path whether or not admit_batch built a shard map:
  // after a batch and instance failures, one reconcile leaves the same
  // services and residuals as revive/reaugment applied by hand to the
  // dirty services in ascending service id.
  sim::ScenarioParams params;
  params.num_aps = 400;
  params.request.chain_length_low = 4;
  params.request.chain_length_high = 4;
  params.residual_fraction = 0.8;
  util::Rng world_rng(13);
  auto scenario = sim::make_scenario(params, world_rng);
  ASSERT_TRUE(scenario.has_value());
  const mec::VnfCatalog& catalog = scenario->catalog;
  mec::RequestParams rp;
  rp.chain_length_low = 3;
  rp.chain_length_high = 5;
  rp.expectation = 0.95;
  util::Rng request_rng(23);
  std::vector<mec::SfcRequest> requests;
  for (std::uint64_t i = 0; i < 30; ++i) {
    requests.push_back(mec::random_request(
        i, catalog, scenario->network.num_nodes(), rp, request_rng));
  }

  OrchestratorOptions options;
  options.batch.threads = 4;
  Orchestrator live(scenario->network, catalog, options);
  Orchestrator by_hand(scenario->network, catalog, options);
  Controller controller(live);
  util::Rng live_rng(7);
  util::Rng hand_rng(7);
  const auto ids = live.admit_batch(requests, live_rng);
  ASSERT_EQ(by_hand.admit_batch(requests, hand_rng), ids);
  ASSERT_TRUE(live.has_shard_map());

  // Every third service loses all of chain position 0 (kDown, so reconcile
  // revives it); every other even one loses one standby. The batch leaves
  // enough capacity free for the top-ups to place standbys.
  std::vector<ServiceId> admitted;
  for (const auto& id : ids) {
    if (id.has_value()) admitted.push_back(*id);
  }
  ASSERT_GT(admitted.size(), 10u);
  for (std::size_t k = 0; k < admitted.size(); ++k) {
    const ServiceId id = admitted[k];
    controller.on_admit(id, 0.0);
    std::vector<InstanceId> victims;
    for (const Instance& inst : live.service(id).instances) {
      if (k % 3 == 0 && inst.chain_pos == 0) victims.push_back(inst.id);
      if (k % 3 != 0 && k % 2 == 0 && inst.role == InstanceRole::kStandby &&
          victims.empty()) {
        victims.push_back(inst.id);
      }
    }
    for (const InstanceId victim : victims) {
      (void)live.fail_instance(id, victim);
      (void)by_hand.fail_instance(id, victim);
    }
    controller.on_instance_failed(id, 1.0);
  }

  const ReconcileReport report = controller.reconcile(1.0);
  for (const ServiceId id : admitted) {  // ascending service id
    const Service& svc = by_hand.service(id);
    if (svc.state != ServiceState::kDown &&
        svc.current_reliability(catalog) >= svc.request.expectation) {
      continue;
    }
    if (svc.state == ServiceState::kDown) (void)by_hand.revive(id);
    if (by_hand.service(id).state != ServiceState::kDown) {
      (void)by_hand.reaugment(id);
    }
  }
  EXPECT_GT(report.revived, 0u);
  EXPECT_GT(report.standbys_added, 0u);

  using Snap = std::tuple<ServiceId, InstanceId, std::uint32_t, graph::NodeId,
                          InstanceRole, InstanceState, ServiceState>;
  const auto snapshot = [](const Orchestrator& orch) {
    std::vector<Snap> snap;
    for (const ServiceId id : orch.services()) {
      const Service& svc = orch.service(id);
      for (const Instance& inst : svc.instances) {
        snap.emplace_back(id, inst.id, inst.chain_pos, inst.cloudlet,
                          inst.role, inst.state, svc.state);
      }
    }
    return snap;
  };
  EXPECT_EQ(snapshot(live), snapshot(by_hand));
  for (graph::NodeId v = 0; v < live.network().num_nodes(); ++v) {
    ASSERT_EQ(live.network().residual(v), by_hand.network().residual(v))
        << "node " << v;
  }
}

}  // namespace
}  // namespace mecra::orchestrator
