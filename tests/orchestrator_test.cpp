// Tests for the failover orchestrator: admission lifecycle and its kernel
// call sequence, promotion on failure, cloudlet outages, repair-time
// capacity reclamation, re-augmentation, and teardown conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "admission/admission.h"
#include "core/augmentation.h"
#include "core/bmcgap_arena.h"
#include "core/heuristic_matching.h"
#include "core/validator.h"
#include "graph/topology.h"
#include "orchestrator/orchestrator.h"
#include "sim/workload.h"

namespace mecra::orchestrator {
namespace {

/// Path 0-1-2 with generous cloudlets at 1 and 2; one two-function chain.
struct World {
  mec::MecNetwork network{graph::path_graph(3), {0.0, 3000.0, 3000.0}};
  mec::VnfCatalog catalog{
      {{0, "a", 0.8, 300.0}, {0, "b", 0.9, 400.0}}};
  mec::SfcRequest request;

  World() {
    request.chain = {0, 1};
    request.expectation = 0.99;
  }
};

Orchestrator make_orchestrator(const World& w) {
  return Orchestrator(w.network, w.catalog, {});
}

TEST(Orchestrator, AdmitCreatesActivePrimariesAndStandbys) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(1);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  const Service& svc = orch.service(*id);
  EXPECT_EQ(svc.state, ServiceState::kHealthy);

  std::size_t actives = 0;
  std::size_t standbys = 0;
  for (const auto& inst : svc.instances) {
    EXPECT_EQ(inst.state, InstanceState::kRunning);
    (inst.role == InstanceRole::kActive ? actives : standbys)++;
  }
  EXPECT_EQ(actives, 2u);          // one per chain position
  EXPECT_GT(standbys, 0u);         // rho = 0.99 needs backups
  EXPECT_GE(svc.current_reliability(orch.catalog()), 0.99);
}

TEST(Orchestrator, AdmissionFailureLeavesNoTrace) {
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 500.0, 0.0});
  auto orch = make_orchestrator(w);
  const double before = orch.network().total_residual();
  util::Rng rng(2);
  mec::SfcRequest big;
  big.chain = {1, 1};  // 2 x 400 > 500
  big.expectation = 0.9;
  EXPECT_FALSE(orch.admit(big, rng).has_value());
  EXPECT_DOUBLE_EQ(orch.network().total_residual(), before);
}

TEST(Orchestrator, StandbyFailureDegradesWithoutPromotion) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(3);
  const auto id = *orch.admit(w.request, rng);
  const Service& svc = orch.service(id);
  InstanceId standby = 0;
  for (const auto& inst : svc.instances) {
    if (inst.role == InstanceRole::kStandby) standby = inst.id;
  }
  const auto promoted = orch.fail_instance(id, standby);
  EXPECT_FALSE(promoted.has_value());  // active still running: no promotion
  EXPECT_EQ(orch.service(id).state, ServiceState::kDegraded);
}

TEST(Orchestrator, ActiveFailurePromotesNearestStandby) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(4);
  const auto id = *orch.admit(w.request, rng);
  const Service& before = orch.service(id);
  // Fail the active instance of position 0.
  InstanceId active0 = 0;
  for (const auto& inst : before.instances) {
    if (inst.chain_pos == 0 && inst.role == InstanceRole::kActive) {
      active0 = inst.id;
    }
  }
  const auto promoted = orch.fail_instance(id, active0);
  ASSERT_TRUE(promoted.has_value());
  const Service& after = orch.service(id);
  // Exactly one running active at position 0, and it is the promoted one.
  std::size_t running_actives = 0;
  for (const auto& inst : after.instances) {
    if (inst.chain_pos == 0 && inst.state == InstanceState::kRunning &&
        inst.role == InstanceRole::kActive) {
      ++running_actives;
      EXPECT_EQ(inst.id, *promoted);
    }
  }
  EXPECT_EQ(running_actives, 1u);
  EXPECT_NE(after.state, ServiceState::kDown);
}

TEST(Orchestrator, ServiceGoesDownWhenAPositionIsExhausted) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(5);
  const auto id = *orch.admit(w.request, rng);
  // Kill every instance of position 1 (active + standbys).
  for (;;) {
    const Service& svc = orch.service(id);
    InstanceId victim = 0;
    bool found = false;
    for (const auto& inst : svc.instances) {
      if (inst.chain_pos == 1 && inst.state == InstanceState::kRunning) {
        victim = inst.id;
        found = true;
        break;
      }
    }
    if (!found) break;
    (void)orch.fail_instance(id, victim);
  }
  EXPECT_EQ(orch.service(id).state, ServiceState::kDown);
  EXPECT_EQ(orch.service(id).current_reliability(orch.catalog()), 0.0);
}

TEST(Orchestrator, CloudletFailureKillsEverythingThere) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(6);
  const auto id = *orch.admit(w.request, rng);
  orch.fail_cloudlet(1);
  for (const auto& inst : orch.service(id).instances) {
    if (inst.cloudlet == 1) {
      EXPECT_EQ(inst.state, InstanceState::kFailed);
    }
  }
}

TEST(Orchestrator, RepairReclaimsFailedCapacityOnly) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(7);
  const auto id = *orch.admit(w.request, rng);
  const double residual_after_admit = orch.network().total_residual();

  orch.fail_cloudlet(1);
  // Failed slots still reserved.
  EXPECT_DOUBLE_EQ(orch.network().total_residual(), residual_after_admit);

  double failed_demand = 0.0;
  for (const auto& inst : orch.service(id).instances) {
    if (inst.state == InstanceState::kFailed) {
      failed_demand +=
          orch.catalog().function(w.request.chain[inst.chain_pos]).cpu_demand;
    }
  }
  orch.repair_cloudlet(1);
  EXPECT_NEAR(orch.network().total_residual(),
              residual_after_admit + failed_demand, 1e-9);
  // Dead instances are gone from the service record.
  for (const auto& inst : orch.service(id).instances) {
    EXPECT_EQ(inst.state, InstanceState::kRunning);
  }
}

TEST(Orchestrator, ReaugmentRestoresExpectationAfterLosses) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(8);
  const auto id = *orch.admit(w.request, rng);
  ASSERT_GE(orch.service(id).current_reliability(orch.catalog()), 0.99);

  // Lose a standby, then top back up (repair first to free its slot).
  InstanceId standby = 0;
  graph::NodeId standby_at = 0;
  for (const auto& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby) {
      standby = inst.id;
      standby_at = inst.cloudlet;
    }
  }
  (void)orch.fail_instance(id, standby);
  orch.repair_cloudlet(standby_at);
  const double degraded = orch.service(id).current_reliability(orch.catalog());
  EXPECT_LT(degraded, 0.99);

  const std::size_t added = orch.reaugment(id);
  EXPECT_GT(added, 0u);
  EXPECT_GE(orch.service(id).current_reliability(orch.catalog()),
            0.99 - 1e-9);
  EXPECT_EQ(orch.service(id).state, ServiceState::kHealthy);
}

TEST(Orchestrator, ReaugmentIsANoOpWhenHealthyEnough) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(9);
  const auto id = *orch.admit(w.request, rng);
  EXPECT_EQ(orch.reaugment(id), 0u);
}

TEST(Orchestrator, TeardownReturnsEveryReservedSlot) {
  World w;
  auto orch = make_orchestrator(w);
  const double pristine = orch.network().total_residual();
  util::Rng rng(10);
  const auto id = *orch.admit(w.request, rng);
  orch.fail_cloudlet(1);  // failed instances still reserve capacity
  orch.teardown(id);
  EXPECT_NEAR(orch.network().total_residual(), pristine, 1e-9);
  EXPECT_TRUE(orch.services().empty());
}

TEST(Orchestrator, FullOutageDrillAcrossManyServices) {
  // A larger world: admit several services, kill a cloudlet, verify the
  // promoted state is consistent everywhere, repair, re-augment everyone.
  util::Rng world_rng(11);
  graph::WaxmanParams wax;
  wax.num_nodes = 60;
  auto topo = graph::waxman(wax, world_rng);
  auto network = mec::MecNetwork::random(std::move(topo.graph), {}, world_rng);
  auto catalog = mec::VnfCatalog::random({}, world_rng);
  Orchestrator orch(network, catalog, {});

  util::Rng rng(12);
  std::vector<ServiceId> ids;
  for (int i = 0; i < 6; ++i) {
    mec::RequestParams rp;
    const auto req = mec::random_request(static_cast<unsigned>(i), catalog,
                                         network.num_nodes(), rp, rng);
    if (auto id = orch.admit(req, rng)) ids.push_back(*id);
  }
  ASSERT_GT(ids.size(), 0u);

  const graph::NodeId victim = orch.network().cloudlets().front();
  orch.fail_cloudlet(victim);
  for (ServiceId id : ids) {
    const Service& svc = orch.service(id);
    // Invariant: every position has at most one running active.
    for (std::uint32_t p = 0; p < svc.request.length(); ++p) {
      std::size_t actives = 0;
      for (const auto& inst : svc.instances) {
        if (inst.chain_pos == p && inst.state == InstanceState::kRunning &&
            inst.role == InstanceRole::kActive) {
          ++actives;
        }
      }
      EXPECT_LE(actives, 1u);
    }
  }
  orch.repair_cloudlet(victim);
  for (ServiceId id : ids) {
    if (orch.service(id).state != ServiceState::kDown) {
      (void)orch.reaugment(id);
      EXPECT_NE(orch.service(id).state, ServiceState::kDown);
    }
  }
  // Conservation: tearing everything down restores the pristine residual.
  for (ServiceId id : ids) orch.teardown(id);
  EXPECT_NEAR(orch.network().total_residual(), network.total_residual(),
              1e-6);
}

TEST(Orchestrator, ReaugmentWhenEveryNearbyCloudletIsFull) {
  // One usable cloudlet sized so that admission fills it exactly
  // (3x a @300 + 3x b @400 = 2100 for rho = 0.99). A lost standby then has
  // nowhere to go until its dead slot is reclaimed.
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 2100.0, 0.0});
  auto orch = make_orchestrator(w);
  util::Rng rng(21);
  const auto id = *orch.admit(w.request, rng);
  ASSERT_DOUBLE_EQ(orch.network().residual(1), 0.0);

  InstanceId standby = 0;
  for (const auto& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby) standby = inst.id;
  }
  (void)orch.fail_instance(id, standby);
  EXPECT_EQ(orch.service(id).state, ServiceState::kDegraded);

  // No repair: the failed slot still holds the capacity, so reaugment can
  // place nothing and the service stays degraded.
  EXPECT_EQ(orch.reaugment(id), 0u);
  EXPECT_EQ(orch.service(id).state, ServiceState::kDegraded);
  EXPECT_LT(orch.service(id).current_reliability(orch.catalog()), 0.99);
}

TEST(Orchestrator, FailCloudletHostingTheOnlyInstancesTakesServiceDown) {
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 2100.0, 0.0});
  auto orch = make_orchestrator(w);
  util::Rng rng(22);
  const auto id = *orch.admit(w.request, rng);

  orch.fail_cloudlet(1);
  EXPECT_EQ(orch.service(id).state, ServiceState::kDown);
  EXPECT_DOUBLE_EQ(orch.service(id).current_reliability(orch.catalog()), 0.0);
  EXPECT_TRUE(orch.is_cloudlet_down(1));
  EXPECT_EQ(orch.down_cloudlets(), (std::vector<graph::NodeId>{1}));

  // Nothing to promote or place: revive fails while the world is down.
  EXPECT_FALSE(orch.revive(id));
  EXPECT_EQ(orch.service(id).state, ServiceState::kDown);

  // After repair, revive restores actives and reaugment the expectation.
  orch.repair_cloudlet(1);
  EXPECT_TRUE(orch.revive(id));
  EXPECT_NE(orch.service(id).state, ServiceState::kDown);
  (void)orch.reaugment(id);
  EXPECT_GE(orch.service(id).current_reliability(orch.catalog()),
            0.99 - 1e-9);
}

TEST(Orchestrator, PromotionBreaksHopTiesByLowestInstanceId) {
  // Triangle of three single-slot cloudlets and a one-function chain with
  // rho = 0.985: 1 active + 2 standbys, one per cloudlet. When the active
  // fails, both standbys are exactly one hop away — the tie must go to the
  // lowest instance id, deterministically.
  mec::MecNetwork network(graph::complete_graph(3), {300.0, 300.0, 300.0});
  mec::VnfCatalog catalog({{0, "a", 0.8, 300.0}});
  mec::SfcRequest request;
  request.chain = {0};
  request.expectation = 0.985;  // needs 3 instances: 1 - 0.2^3 = 0.992

  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Orchestrator orch(network, catalog, {});
    util::Rng rng(seed);
    const auto id = orch.admit(request, rng);
    ASSERT_TRUE(id.has_value());
    ASSERT_EQ(orch.service(*id).instances.size(), 3u);

    InstanceId active = 0;
    InstanceId lowest_standby = std::numeric_limits<InstanceId>::max();
    for (const auto& inst : orch.service(*id).instances) {
      if (inst.role == InstanceRole::kActive) active = inst.id;
      if (inst.role == InstanceRole::kStandby) {
        lowest_standby = std::min(lowest_standby, inst.id);
      }
    }
    const auto promoted = orch.fail_instance(*id, active);
    ASSERT_TRUE(promoted.has_value());
    EXPECT_EQ(*promoted, lowest_standby);
  }
}

TEST(Orchestrator, ReaugmentAndReviveSkipDownCloudlets) {
  // Cloudlets at 1 and 2, one hop apart. With 2 down, every replacement
  // must land on 1; after repair, 2 becomes placeable again.
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(23);
  const auto id = *orch.admit(w.request, rng);

  orch.fail_cloudlet(2);
  (void)orch.revive(id);  // re-place anything position 2's outage killed
  (void)orch.reaugment(id);
  for (const auto& inst : orch.service(id).instances) {
    if (inst.state == InstanceState::kRunning) {
      EXPECT_NE(inst.cloudlet, 2u);
    }
  }

  orch.repair_cloudlet(2);
  EXPECT_FALSE(orch.is_cloudlet_down(2));
  EXPECT_TRUE(orch.down_cloudlets().empty());
}

TEST(Orchestrator, AdmitNeverPlacesOnDownCloudlets) {
  World w;
  auto orch = make_orchestrator(w);
  orch.fail_cloudlet(2);
  util::Rng rng(24);
  const auto id = orch.admit(w.request, rng);
  // Cloudlet 1 alone has 3000 MHz; the request needs 2100 — admissible.
  ASSERT_TRUE(id.has_value());
  for (const auto& inst : orch.service(*id).instances) {
    EXPECT_EQ(inst.cloudlet, 1u);
  }
  // The down cloudlet's capacity is untouched.
  EXPECT_DOUBLE_EQ(orch.network().residual(2), 3000.0);
}

TEST(Orchestrator, AdmitIsTheKernelCallSequence) {
  // admit() is exactly random_admission -> BmcgapArena::build ->
  // augment_heuristic -> validate -> apply_placements on the caller's RNG,
  // primaries first, then the standbys in placement order; teardown
  // releases every instance in instance order. A replay of those calls
  // over a copy of the network must reproduce every decision, instance
  // cloudlet and final residual bit for bit.
  sim::ScenarioParams params;
  params.num_aps = 400;
  params.residual_fraction = 0.3;
  util::Rng world_rng(400);
  auto scenario = sim::make_scenario(params, world_rng);
  ASSERT_TRUE(scenario.has_value());
  const mec::VnfCatalog& catalog = scenario->catalog;
  Orchestrator orch(scenario->network, catalog, {});
  mec::MecNetwork replay = scenario->network;
  core::BmcgapArena arena({.l_hops = 1});

  mec::RequestParams rp;
  rp.chain_length_low = 3;
  rp.chain_length_high = 6;
  rp.expectation = 0.99;
  util::Rng trace_rng(8);
  util::Rng orch_rng(7);
  util::Rng replay_rng(7);
  using Placed = std::vector<std::pair<std::uint32_t, graph::NodeId>>;
  std::vector<std::pair<ServiceId, Placed>> live;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t step = 0; step < 400; ++step) {
    if (!live.empty() && trace_rng.uniform01() < 0.3) {
      const std::size_t k = trace_rng.index(live.size());
      const auto& [id, placed] = live[k];
      const mec::SfcRequest& request = orch.service(id).request;
      for (const auto& [pos, v] : placed) {
        replay.release(v, catalog.function(request.chain[pos]).cpu_demand);
      }
      orch.teardown(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    const mec::SfcRequest request = mec::random_request(
        step, catalog, replay.num_nodes(), rp, trace_rng);
    const auto id = orch.admit(request, orch_rng);
    const auto primaries =
        admission::random_admission(replay, catalog, request, replay_rng);
    ASSERT_EQ(id.has_value(), primaries.has_value()) << "step " << step;
    if (!primaries.has_value()) {
      ++rejected;
      continue;
    }
    ++admitted;
    const core::BmcgapInstance& instance =
        arena.build(replay, catalog, request, *primaries);
    const core::AugmentationResult result =
        core::augment_heuristic(instance, core::AugmentOptions{});
    ASSERT_TRUE(core::validate(instance, result).feasible);
    core::apply_placements(replay, instance, result);

    Placed want;
    for (std::uint32_t p = 0; p < request.length(); ++p) {
      want.emplace_back(p, primaries->cloudlet_of[p]);
    }
    for (const core::SecondaryPlacement& sp : result.placements) {
      want.emplace_back(sp.chain_pos, sp.cloudlet);
    }
    Placed got;
    for (const Instance& inst : orch.service(*id).instances) {
      got.emplace_back(inst.chain_pos, inst.cloudlet);
    }
    ASSERT_EQ(got, want) << "step " << step;
    live.emplace_back(*id, std::move(want));
  }
  EXPECT_GT(admitted, 50u);
  EXPECT_GT(rejected, 0u) << "trace never exercised the reject path";
  for (graph::NodeId v = 0; v < replay.num_nodes(); ++v) {
    ASSERT_EQ(orch.network().residual(v), replay.residual(v)) << "node " << v;
  }
}

}  // namespace
}  // namespace mecra::orchestrator
