// Tests for the sharded batch-admission engine: ShardMap partition
// invariants, admit_batch bit-determinism across thread counts, the
// border/fallback pass (validated plans + capacity conservation), the
// reused model builder against fresh builds, and pooled simulation with
// faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <tuple>
#include <vector>

#include "admission/admission.h"
#include "core/bmcgap.h"
#include "core/bmcgap_arena.h"
#include "core/validator.h"
#include "mec/shard_map.h"
#include "orchestrator/orchestrator.h"
#include "sim/simulate.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace mecra {
namespace {

sim::Scenario big_scenario(std::uint64_t seed, std::size_t num_aps,
                           double residual_fraction) {
  sim::ScenarioParams params;
  params.num_aps = num_aps;
  params.request.chain_length_low = 4;
  params.request.chain_length_high = 4;
  params.residual_fraction = residual_fraction;
  util::Rng rng(seed);
  auto scenario = sim::make_scenario(params, rng);
  EXPECT_TRUE(scenario.has_value());
  return std::move(*scenario);
}

std::vector<mec::SfcRequest> make_requests(const sim::Scenario& s,
                                           std::size_t n,
                                           double expectation,
                                           std::uint64_t seed) {
  mec::RequestParams rp;
  rp.chain_length_low = 3;
  rp.chain_length_high = 5;
  rp.expectation = expectation;
  util::Rng rng(seed);
  std::vector<mec::SfcRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(
        mec::random_request(i, s.catalog, s.network.num_nodes(), rp, rng));
  }
  return requests;
}

/// Comparable flat view of one orchestrator's entire service table plus
/// the network's residual vector — equal snapshots mean bit-identical
/// placements, roles, ids, AND capacity accounting.
using InstanceSnap = std::tuple<orchestrator::ServiceId, std::uint64_t,
                                std::uint32_t, graph::NodeId, int, int>;
struct WorldSnap {
  std::vector<InstanceSnap> instances;
  std::vector<double> residuals;

  friend bool operator==(const WorldSnap&, const WorldSnap&) = default;
};

WorldSnap snapshot(const orchestrator::Orchestrator& orch) {
  WorldSnap snap;
  // services() is already ascending; instances keep their staged order.
  for (const orchestrator::ServiceId id : orch.services()) {
    for (const orchestrator::Instance& inst : orch.service(id).instances) {
      snap.instances.emplace_back(id, inst.id, inst.chain_pos, inst.cloudlet,
                                  static_cast<int>(inst.role),
                                  static_cast<int>(inst.state));
    }
  }
  for (graph::NodeId v = 0; v < orch.network().num_nodes(); ++v) {
    snap.residuals.push_back(orch.network().residual(v));
  }
  return snap;
}

TEST(ShardMap, PartitionAndInteriorInvariants) {
  const sim::Scenario s = big_scenario(7, 120, 0.6);
  const mec::ShardMap map = mec::ShardMap::build(s.network, 1);
  ASSERT_GE(map.num_shards(), 1u);

  // Every cloudlet belongs to exactly one shard's list.
  std::vector<char> seen(s.network.num_nodes(), 0);
  for (std::size_t sh = 0; sh < map.num_shards(); ++sh) {
    for (const graph::NodeId v : map.shard_cloudlets(sh)) {
      EXPECT_EQ(map.shard_of(v), sh);
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  for (const graph::NodeId v : s.network.cloudlets()) EXPECT_TRUE(seen[v]);

  std::size_t interiors = 0;
  for (const graph::NodeId v : s.network.cloudlets()) {
    // THE invariant concurrent admission rests on: a cloudlet is interior
    // exactly when its whole backup neighbourhood N_l^+(v) — the ball
    // admission and reaugment read — stays in its own shard.
    bool contained = true;
    for (const graph::NodeId u : s.network.cloudlets_within(v, 1)) {
      contained = contained && map.shard_of(u) == map.shard_of(v);
    }
    EXPECT_EQ(map.is_interior(v), contained) << "cloudlet " << v;
    if (map.is_interior(v)) ++interiors;
  }
  EXPECT_EQ(map.border_count() + interiors, s.network.cloudlets().size());
  for (graph::NodeId v = 0; v < s.network.num_nodes(); ++v) {
    EXPECT_LT(map.home_shard(v), map.num_shards());
  }
  // Interior cloudlets of shard s are exactly its interior-classified ones.
  for (std::size_t sh = 0; sh < map.num_shards(); ++sh) {
    for (const graph::NodeId v : map.interior_cloudlets(sh)) {
      EXPECT_TRUE(map.is_interior(v));
      EXPECT_EQ(map.shard_of(v), sh);
    }
  }
}

TEST(AdmitBatch, BitIdenticalAcrossThreadCounts) {
  const sim::Scenario s = big_scenario(11, 120, 0.6);
  const auto requests = make_requests(s, 40, 0.95, 21);

  std::vector<std::vector<std::optional<orchestrator::ServiceId>>> ids;
  std::vector<WorldSnap> snaps;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    orchestrator::OrchestratorOptions opt;
    opt.batch.threads = threads;
    orchestrator::Orchestrator orch(s.network, s.catalog, opt);
    util::Rng rng(99);
    ids.push_back(orch.admit_batch(requests, rng));
    snaps.push_back(snapshot(orch));
  }
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(snaps[0], snaps[1]);
  // The batch admitted something (otherwise the test proves nothing).
  std::size_t admitted = 0;
  for (const auto& id : ids[0]) if (id.has_value()) ++admitted;
  EXPECT_GT(admitted, 0u);
}

TEST(AdmitBatch, RepeatedBatchesStayDeterministic) {
  // Several back-to-back batches against a draining network: later batches
  // see capacity shaped by earlier ones, and the serial-fallback share
  // grows — determinism must hold through all of it.
  const sim::Scenario s = big_scenario(13, 100, 0.4);
  std::vector<WorldSnap> snaps;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    orchestrator::OrchestratorOptions opt;
    opt.batch.threads = threads;
    orchestrator::Orchestrator orch(s.network, s.catalog, opt);
    util::Rng rng(5);
    for (std::uint64_t round = 0; round < 3; ++round) {
      const auto requests = make_requests(s, 25, 0.9, 100 + round);
      (void)orch.admit_batch(requests, rng);
    }
    snaps.push_back(snapshot(orch));
  }
  EXPECT_EQ(snaps[0], snaps[1]);
}

/// Field-by-field bit equality of two BMCGAP instances (the struct has no
/// operator== of its own).
void expect_same_instance(const core::BmcgapInstance& a,
                          const core::BmcgapInstance& b) {
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].function, b.functions[i].function);
    EXPECT_EQ(a.functions[i].primary, b.functions[i].primary);
    EXPECT_EQ(a.functions[i].reliability, b.functions[i].reliability);
    EXPECT_EQ(a.functions[i].demand, b.functions[i].demand);
    EXPECT_EQ(a.functions[i].allowed, b.functions[i].allowed);
    EXPECT_EQ(a.functions[i].max_secondaries, b.functions[i].max_secondaries);
  }
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.cloudlets, b.cloudlets);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.initial_reliability, b.initial_reliability);
  EXPECT_EQ(a.expectation, b.expectation);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.big_m),
            std::bit_cast<std::uint64_t>(b.big_m));
  EXPECT_EQ(a.l_hops, b.l_hops);
  // Sec. 4.2's big-M by its definition: 100x the largest finite item cost
  // over every item and every k = 0 item.
  double max_cost = 0.0;
  for (const core::ItemRef& item : a.items) {
    max_cost = std::max(max_cost, a.item_cost(item));
  }
  for (const auto& fn : a.functions) {
    max_cost = std::max(max_cost, -std::log(fn.reliability));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.big_m),
            std::bit_cast<std::uint64_t>(100.0 * max_cost));
}

TEST(AdmitBatch, ModelArenaMatchesFreshBuilds) {
  // The arena rebuilds one instance in place; every build, on an unchanged
  // network, after a residual mutation, and over a draining sequence of
  // chains of different lengths, is bit-identical to a from-scratch
  // core::build_bmcgap call.
  const sim::Scenario s = big_scenario(29, 80, 0.7);
  auto network = s.network;  // mutable copy: we poke residuals below
  const auto requests = make_requests(s, 1, 0.9, 123);
  util::Rng rng(55);
  const auto primaries =
      admission::random_admission(network, s.catalog, requests[0], rng);
  ASSERT_TRUE(primaries.has_value());

  core::BmcgapArena arena({.l_hops = 1});
  const core::BmcgapInstance& first =
      arena.build(network, s.catalog, requests[0], *primaries);
  expect_same_instance(
      first, core::build_bmcgap(network, s.catalog, requests[0], *primaries,
                                {.l_hops = 1}));
  (void)arena.build(network, s.catalog, requests[0], *primaries);
  expect_same_instance(
      first, core::build_bmcgap(network, s.catalog, requests[0], *primaries,
                                {.l_hops = 1}));

  const graph::NodeId touched = first.cloudlets.front();
  network.consume(touched, network.residual(touched) / 2.0);
  const core::BmcgapInstance& rebuilt =
      arena.build(network, s.catalog, requests[0], *primaries);
  expect_same_instance(
      rebuilt, core::build_bmcgap(network, s.catalog, requests[0],
                                  *primaries, {.l_hops = 1}));
  EXPECT_EQ(arena.stats().misses, 3u);

  // A sequence of builds on a draining network, as the batch path makes
  // them: later rounds drain capacity before every rebuild, and chain
  // lengths vary, so a stale function, item or cloudlet would show.
  core::BmcgapArena batch_arena({.l_hops = 1});
  const auto drain = make_requests(s, 8, 0.9, 321);
  std::vector<admission::PrimaryPlacement> placed(drain.size());
  util::Rng drain_rng(56);
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < drain.size(); ++i) {
      if (round == 0) {
        auto p = admission::random_admission(network, s.catalog, drain[i],
                                             drain_rng);
        ASSERT_TRUE(p.has_value());
        placed[i] = std::move(*p);
      } else {
        const graph::NodeId v = placed[i].cloudlet_of.front();
        network.consume(v, network.residual(v) / 4.0);
      }
      expect_same_instance(
          batch_arena.build(network, s.catalog, drain[i], placed[i]),
          core::build_bmcgap(network, s.catalog, drain[i], placed[i],
                             {.l_hops = 1}));
    }
  }
  EXPECT_EQ(batch_arena.stats().misses, 3 * drain.size());
}

TEST(AdmitBatch, BorderContentionPlansValidateAndCapacityConserves) {
  // A scarce network pushes many requests through the border/fallback
  // pass; every committed plan must still validate against its instance,
  // and tearing everything down must restore the exact starting residual.
  const sim::Scenario s = big_scenario(17, 100, 0.35);
  const auto requests = make_requests(s, 60, 0.95, 31);

  orchestrator::OrchestratorOptions opt;
  opt.batch.threads = 4;
  opt.batch.record_audit = true;
  orchestrator::Orchestrator orch(s.network, s.catalog, opt);
  const double before = orch.network().total_residual();

  util::Rng rng(77);
  const auto ids = orch.admit_batch(requests, rng);

  const orchestrator::BatchAudit& audit = orch.last_batch_audit();
  std::size_t admitted = 0;
  for (const auto& id : ids) if (id.has_value()) ++admitted;
  EXPECT_EQ(audit.parallel_admitted + audit.fallback_admitted, admitted);
  EXPECT_EQ(audit.rejected, requests.size() - admitted);
  EXPECT_EQ(audit.entries.size(), admitted);
  EXPECT_GT(audit.fallback_admitted, 0u)
      << "scenario too generous to exercise the fallback pass";

  for (const auto& entry : audit.entries) {
    const core::ValidationReport validation =
        core::validate(entry.instance, entry.result);
    EXPECT_TRUE(validation.feasible)
        << "request " << entry.request_index << " (fallback="
        << entry.via_fallback << ") committed an invalid plan";
  }

  for (const auto& id : ids) {
    if (id.has_value()) orch.teardown(*id);
  }
  EXPECT_DOUBLE_EQ(orch.network().total_residual(), before);
}

TEST(ChaosSim, BatchedArrivalsTraceIdenticalAcrossThreadCounts) {
  const sim::Scenario s = big_scenario(23, 100, 0.5);
  sim::SimConfig config;
  config.mode = sim::AdmissionMode::kPooled;
  config.window_width = 2.0;
  config.arrival_rate = 2.0;
  config.mean_holding_time = 15.0;
  config.horizon = 50.0;
  config.request.expectation = 0.95;
  config.controller = orchestrator::ControllerOptions{};
  config.instance_failure_rate = 0.5;
  config.cloudlet_outage_rate = 0.05;
  config.record_trace = true;

  std::vector<sim::SimReport> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    config.threads = threads;
    runs.push_back(sim::simulate(s.network, s.catalog, config, 321));
  }
  EXPECT_EQ(runs[0].trace, runs[1].trace);
  EXPECT_GT(runs[0].admitted, 0u);
  EXPECT_EQ(runs[0].admitted, runs[1].admitted);
  EXPECT_EQ(runs[0].rejected, runs[1].rejected);
  EXPECT_EQ(runs[0].controller.standbys_added,
            runs[1].controller.standbys_added);
  EXPECT_DOUBLE_EQ(runs[0].slo_attainment, runs[1].slo_attainment);
  EXPECT_DOUBLE_EQ(runs[0].final_total_residual,
                   runs[1].final_total_residual);
}

}  // namespace
}  // namespace mecra
