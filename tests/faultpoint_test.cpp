// Tests for the deterministic fault-injection registry (util/faultpoint.h)
// and the graceful-degradation paths wired to its sites: a faulted
// admit_batch shard worker drains to the serial fallback pass, and a
// throwing/deadline-blown fallback tier falls through the chain instead of
// killing the call.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "core/fallback.h"
#include "core/greedy_baseline.h"
#include "core/heuristic_matching.h"
#include "orchestrator/orchestrator.h"
#include "sim/workload.h"
#include "test_fixtures.h"
#include "util/check.h"
#include "util/faultpoint.h"

namespace mecra {
namespace {

using util::FaultRegistry;
using util::FaultSpec;

/// Every test arms the PROCESS-GLOBAL registry, so hygiene is mandatory:
/// a spec leaking out of one test would fire inside an unrelated one.
class FaultPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::global().clear(); }
  void TearDown() override { FaultRegistry::global().clear(); }
};

TEST_F(FaultPointTest, UnarmedSitesNeverFire) {
  FaultRegistry& reg = FaultRegistry::global();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(reg.should_fire("nothing.armed"));
  }
  EXPECT_EQ(reg.hits("nothing.armed"), 0u);
  EXPECT_EQ(reg.fired("nothing.armed"), 0u);
  EXPECT_EQ(reg.total_fired(), 0u);
}

TEST_F(FaultPointTest, SkipAndTimesGateFiringDeterministically) {
  FaultRegistry& reg = FaultRegistry::global();
  reg.arm("site.a", FaultSpec{.skip = 2, .times = 3, .probability = 1.0});
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(reg.should_fire("site.a"));
  // Hits 1-2 skipped, hits 3-5 fire, hits 6-8 exhausted.
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false}));
  EXPECT_EQ(reg.hits("site.a"), 8u);
  EXPECT_EQ(reg.fired("site.a"), 3u);
  EXPECT_EQ(reg.total_fired(), 3u);
}

TEST_F(FaultPointTest, ProbabilityStreamIsReproducibleUnderReseed) {
  FaultRegistry& reg = FaultRegistry::global();
  const auto draw = [&reg] {
    reg.arm("site.p", FaultSpec{.skip = 0,
                                .times = ~std::uint64_t{0},
                                .probability = 0.5});
    reg.reseed(1234);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(reg.should_fire("site.p"));
    return fired;
  };
  const auto a = draw();
  const auto b = draw();
  EXPECT_EQ(a, b);
  // p=0.5 over 64 draws: both outcomes must occur.
  EXPECT_NE(a, std::vector<bool>(64, false));
  EXPECT_NE(a, std::vector<bool>(64, true));
}

TEST_F(FaultPointTest, DisarmStopsFiringAndClearResetsCounters) {
  FaultRegistry& reg = FaultRegistry::global();
  reg.arm("site.d");
  EXPECT_TRUE(reg.should_fire("site.d"));
  reg.disarm("site.d");
  EXPECT_FALSE(reg.should_fire("site.d"));
  EXPECT_EQ(reg.fired("site.d"), 1u);  // counters survive disarm
  reg.clear();
  EXPECT_EQ(reg.hits("site.d"), 0u);
  EXPECT_EQ(reg.total_fired(), 0u);
}

TEST_F(FaultPointTest, ArmFromSpecParsesFieldsAndRejectsUnknownKeys) {
  FaultRegistry& reg = FaultRegistry::global();
  reg.arm_from_spec("a.b:skip=1:times=2,c.d,e.f:prob=0.0");
  EXPECT_FALSE(reg.should_fire("a.b"));  // skipped
  EXPECT_TRUE(reg.should_fire("a.b"));
  EXPECT_TRUE(reg.should_fire("a.b"));
  EXPECT_FALSE(reg.should_fire("a.b"));  // times exhausted
  EXPECT_TRUE(reg.should_fire("c.d"));   // bare site: fire on every hit
  EXPECT_FALSE(reg.should_fire("e.f"));  // prob=0 never fires
  EXPECT_THROW(reg.arm_from_spec("x.y:frequency=2"), util::CheckFailure);
}

TEST_F(FaultPointTest, ArmFromEnvReadsMecraFaults) {
  ASSERT_EQ(setenv("MECRA_FAULTS", "env.site:times=1", 1), 0);
  FaultRegistry::global().arm_from_env();
  unsetenv("MECRA_FAULTS");
  EXPECT_TRUE(FaultRegistry::global().should_fire("env.site"));
  EXPECT_FALSE(FaultRegistry::global().should_fire("env.site"));
}

TEST_F(FaultPointTest, MacroCompilesToARealSiteInThisBuild) {
  FaultRegistry::global().arm("macro.site", FaultSpec{.times = 1});
  EXPECT_TRUE(MECRA_FAULT_POINT("macro.site"));
  EXPECT_FALSE(MECRA_FAULT_POINT("macro.site"));
}

// --- fallback chain degradation -------------------------------------------

core::FallbackTier heuristic_tier(const char* name) {
  return core::FallbackAugmenter::make_tier(
      name, [](const core::BmcgapInstance& instance,
               const core::AugmentOptions& options) {
        return core::augment_heuristic(instance, options);
      });
}

TEST_F(FaultPointTest, ThrowingFallbackTierFallsThroughTheChain) {
  const test::Fixture f = test::tiny_fixture(1.0, 0.9);
  core::FallbackAugmenter chain({heuristic_tier("flaky"),
                                 heuristic_tier("backup")},
                                {});
  FaultRegistry::global().arm("fallback.tier_error", FaultSpec{.times = 1});

  const core::AugmentationResult result = chain.augment(f.instance);
  EXPECT_TRUE(result.expectation_met);
  EXPECT_EQ(chain.stats()[0].attempts, 1u);
  EXPECT_EQ(chain.stats()[0].errors, 1u);
  EXPECT_EQ(chain.stats()[0].served, 0u);
  EXPECT_EQ(chain.stats()[1].attempts, 1u);
  EXPECT_EQ(chain.stats()[1].served, 1u);
}

TEST_F(FaultPointTest, InjectedDeadlineSkipsStraightToTheLastTier) {
  const test::Fixture f = test::tiny_fixture(1.0, 0.9);
  core::FallbackAugmenter chain({heuristic_tier("expensive"),
                                 heuristic_tier("last_resort")},
                                {});
  // Every tier boundary sees a blown deadline; the last tier must still
  // run (a call always returns), the earlier one is skipped as a timeout.
  FaultRegistry::global().arm("fallback.deadline");

  const core::AugmentationResult result = chain.augment(f.instance);
  EXPECT_TRUE(result.expectation_met);
  EXPECT_EQ(chain.stats()[0].attempts, 0u);
  EXPECT_EQ(chain.stats()[0].timeouts, 1u);
  EXPECT_EQ(chain.stats()[1].attempts, 1u);
  EXPECT_EQ(chain.stats()[1].served, 1u);
}

// --- the sharded batch engine degrades instead of aborting ----------------

sim::Scenario batch_scenario(std::uint64_t seed) {
  sim::ScenarioParams params;
  params.num_aps = 120;
  params.request.chain_length_low = 4;
  params.request.chain_length_high = 4;
  params.residual_fraction = 0.6;
  util::Rng rng(seed);
  auto scenario = sim::make_scenario(params, rng);
  EXPECT_TRUE(scenario.has_value());
  return std::move(*scenario);
}

std::vector<mec::SfcRequest> batch_requests(const sim::Scenario& s,
                                            std::size_t n,
                                            std::uint64_t seed) {
  mec::RequestParams rp;
  rp.chain_length_low = 3;
  rp.chain_length_high = 5;
  rp.expectation = 0.95;
  util::Rng rng(seed);
  std::vector<mec::SfcRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(
        mec::random_request(i, s.catalog, s.network.num_nodes(), rp, rng));
  }
  return requests;
}

TEST_F(FaultPointTest, FaultedShardWorkerDrainsToSerialFallback) {
  const sim::Scenario s = batch_scenario(11);
  orchestrator::OrchestratorOptions options;
  options.batch.threads = 4;
  options.batch.record_audit = true;
  orchestrator::Orchestrator orch(s.network, s.catalog, options);
  const auto requests = batch_requests(s, 40, 21);

  // The first shard-confined admission attempt faults; its worker must
  // drain the rest of its shard to the serial pass, not abort the batch.
  FaultRegistry::global().arm("orchestrator.shard_worker",
                              FaultSpec{.times = 1});
  util::Rng rng(5);
  std::vector<std::optional<orchestrator::ServiceId>> ids;
  ASSERT_NO_THROW(ids = orch.admit_batch(requests, rng));
  ASSERT_EQ(ids.size(), requests.size());

  const orchestrator::BatchAudit& audit = orch.last_batch_audit();
  EXPECT_EQ(FaultRegistry::global().fired("orchestrator.shard_worker"), 1u);
  EXPECT_GE(audit.degraded, 1u);
  // Drained requests were still decided (admitted via fallback or
  // rejected): the audit covers every admitted id.
  std::size_t admitted = 0;
  for (const auto& id : ids) {
    if (id.has_value()) ++admitted;
  }
  EXPECT_EQ(audit.entries.size(), admitted);
  EXPECT_GT(admitted, 0u);

  // Capacity accounting survived the fault: tearing everything down
  // returns the network to its pristine residuals.
  const double pristine = s.network.total_residual();
  for (const auto& id : ids) {
    if (id.has_value()) orch.teardown(*id);
  }
  EXPECT_NEAR(orch.network().total_residual(), pristine, 1e-6);
}

TEST_F(FaultPointTest, FullyFaultedShardPhaseLeavesABatchOfAdmitCalls) {
  // With every shard worker faulted, admit_batch decides the whole batch in
  // its border pass, which is admit() itself: ids, placements and residuals
  // equal a loop of admit() calls, request i on the border pass's stream
  // derive_seed(derive_seed(salt, 0x0fa11bac), i) where `salt` is the
  // batch's one draw from the caller's RNG (orchestrator.cpp).
  const sim::Scenario s = batch_scenario(17);
  const auto requests = batch_requests(s, 30, 29);
  orchestrator::OrchestratorOptions options;
  options.batch.threads = 2;
  orchestrator::Orchestrator batched(s.network, s.catalog, options);
  orchestrator::Orchestrator serial(s.network, s.catalog, options);

  FaultRegistry::global().arm("orchestrator.shard_worker", FaultSpec{});
  util::Rng batch_rng(5);
  const auto ids = batched.admit_batch(requests, batch_rng);
  const orchestrator::BatchAudit& audit = batched.last_batch_audit();
  EXPECT_EQ(audit.parallel_admitted, 0u);
  EXPECT_EQ(audit.degraded, requests.size());

  util::Rng salt_rng(5);
  const std::uint64_t border_salt =
      util::derive_seed(salt_rng(), 0x0fa11bacULL);
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    util::Rng rng(util::derive_seed(border_salt, i));
    const auto id = serial.admit(requests[i], rng);
    ASSERT_EQ(id, ids[i]) << "request " << i;
    if (!id.has_value()) continue;
    ++admitted;
    const auto& got = batched.service(*id).instances;
    const auto& want = serial.service(*id).instances;
    ASSERT_EQ(got.size(), want.size()) << "request " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].id, want[k].id);
      EXPECT_EQ(got[k].chain_pos, want[k].chain_pos);
      EXPECT_EQ(got[k].cloudlet, want[k].cloudlet);
      EXPECT_EQ(got[k].role, want[k].role);
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(batched.next_instance_id(), serial.next_instance_id());
  for (graph::NodeId v = 0; v < s.network.num_nodes(); ++v) {
    ASSERT_EQ(batched.network().residual(v), serial.network().residual(v))
        << "node " << v;
  }
}

}  // namespace
}  // namespace mecra
