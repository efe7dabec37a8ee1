// Crash-restart drills of the simulation core (sim/simulate.h) under
// fault injection: mid-run the orchestrator and controller are torn down
// and recovered from the write-ahead journal, and the REMAINDER of the
// trace must be bit-identical to an uninterrupted run — the acceptance bar
// for orchestrator/journal.h — under per-event and pooled admission alike.
// Also covers recovery from a journal whose final record was torn by the
// crash itself.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/topology.h"
#include "orchestrator/journal.h"
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
  config.record_trace = true;
  return config;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every field the two runs must agree on. The journal bookkeeping fields
/// (crash_restarts, journal_records, replayed_events) are asserted
/// separately — they legitimately differ from an unjournaled baseline.
void expect_equivalent(const SimReport& a, const SimReport& b) {
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);  // exact double equality
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.instance_failures, b.instance_failures);
  EXPECT_EQ(a.cloudlet_outages, b.cloudlet_outages);
  EXPECT_EQ(a.controller.repairs, b.controller.repairs);
  EXPECT_EQ(a.controller.reaugment_attempts, b.controller.reaugment_attempts);
  EXPECT_EQ(a.controller.reaugment_successes, b.controller.reaugment_successes);
  EXPECT_EQ(a.controller.reaugment_failures, b.controller.reaugment_failures);
  EXPECT_EQ(a.controller.standbys_added, b.controller.standbys_added);
  EXPECT_EQ(a.controller.revivals, b.controller.revivals);
  EXPECT_EQ(a.total_held_time, b.total_held_time);
  EXPECT_EQ(a.slo_time, b.slo_time);
  EXPECT_EQ(a.degraded_time, b.degraded_time);
  EXPECT_EQ(a.down_time, b.down_time);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.down_episodes, b.down_episodes);
  EXPECT_EQ(a.recovered_episodes, b.recovered_episodes);
  EXPECT_EQ(a.mean_time_to_recovery, b.mean_time_to_recovery);
  EXPECT_EQ(a.final_total_residual, b.final_total_residual);
}

TEST(Recovery, ThreeCrashRestartsLeaveTheTraceBitIdentical) {
  const auto network = small_network(42);
  const auto catalog = small_catalog(42);
  const SimConfig baseline_config = small_config();
  const SimReport baseline = simulate(network, catalog, baseline_config, 7);

  SimConfig crashed_config = small_config();
  crashed_config.journal_path = temp_path("recovery_serial.journal");
  crashed_config.snapshot_period = 7.0;
  crashed_config.crash_times = {6.0, 14.0, 22.0};
  const SimReport crashed = simulate(network, catalog, crashed_config, 7);

  EXPECT_EQ(crashed.crash_restarts, 3u);
  EXPECT_GT(crashed.replayed_events, 0u);
  EXPECT_GT(crashed.journal_records, 0u);
  expect_equivalent(baseline, crashed);
}

TEST(Recovery, CrashRestartsSurviveBatchedAdmissionToo) {
  const auto network = small_network(17);
  const auto catalog = small_catalog(17);
  SimConfig base = small_config();
  base.arrival_rate = 2.0;  // bigger windows, more batch commits
  base.mode = AdmissionMode::kPooled;
  base.window_width = 2.0;
  base.threads = 2;
  const SimReport baseline = simulate(network, catalog, base, 5);

  SimConfig crashed_config = base;
  crashed_config.journal_path = temp_path("recovery_batched.journal");
  crashed_config.snapshot_period = 10.0;
  crashed_config.crash_times = {5.0, 15.0, 25.0};
  const SimReport crashed = simulate(network, catalog, crashed_config, 5);

  EXPECT_EQ(crashed.crash_restarts, 3u);
  expect_equivalent(baseline, crashed);
}

TEST(Recovery, PooledWindowGroupsCrashDrillsStayBitIdentical) {
  // Pooled admission with one journal group per window: crash drills
  // between windows reproduce the per-record run's trace and file bytes.
  const auto network = small_network(17);
  const auto catalog = small_catalog(17);
  SimConfig per_record = small_config();
  per_record.mode = AdmissionMode::kPooled;
  per_record.window_width = 1.5;
  per_record.journal_path = temp_path("recovery_pooled_base.journal");
  per_record.snapshot_period = 8.0;
  const SimReport baseline = simulate(network, catalog, per_record, 13);

  SimConfig grouped = per_record;
  grouped.journal_path = temp_path("recovery_pooled_grouped.journal");
  grouped.durability = orchestrator::Durability::per_window();
  grouped.crash_times = {7.0, 16.0, 24.0};
  const SimReport crashed = simulate(network, catalog, grouped, 13);

  EXPECT_EQ(crashed.crash_restarts, 3u);
  EXPECT_GT(crashed.windows, 0u);
  EXPECT_EQ(crashed.journal_records, baseline.journal_records);
  expect_equivalent(baseline, crashed);
  EXPECT_EQ(file_bytes(grouped.journal_path),
            file_bytes(per_record.journal_path));
}

TEST(Recovery, JournaledRunWithoutCrashesMatchesTheBaselineToo) {
  // Journaling itself must be a pure observer: same trace with and
  // without a journal attached.
  const auto network = small_network(42);
  const auto catalog = small_catalog(42);
  const SimReport baseline = simulate(network, catalog, small_config(), 9);

  SimConfig journaled = small_config();
  journaled.journal_path = temp_path("recovery_observer.journal");
  journaled.snapshot_period = 5.0;
  const SimReport observed = simulate(network, catalog, journaled, 9);

  EXPECT_EQ(observed.crash_restarts, 0u);
  EXPECT_EQ(observed.replayed_events, 0u);
  expect_equivalent(baseline, observed);
}

TEST(Recovery, ChaosJournalWithTornFinalRecordStillRecovers) {
  const auto network = small_network(23);
  const auto catalog = small_catalog(23);
  SimConfig config = small_config();
  config.journal_path = temp_path("recovery_torn.journal");
  config.snapshot_period = 6.0;
  (void)simulate(network, catalog, config, 3);

  const orchestrator::JournalScan intact =
      orchestrator::scan_journal(config.journal_path);
  ASSERT_GT(intact.records.size(), 2u);
  EXPECT_FALSE(intact.torn_tail);

  // Simulate a crash mid-append of the FINAL record: recovery tolerates
  // the tear and lands on the last complete event.
  std::filesystem::resize_file(config.journal_path,
                               std::filesystem::file_size(config.journal_path)
                                   - 4);
  orchestrator::RecoverOptions options;
  options.controller = *config.controller;
  const orchestrator::Recovered recovered =
      orchestrator::recover(config.journal_path, options);
  EXPECT_TRUE(recovered.torn_tail);
  EXPECT_EQ(recovered.last_seq, intact.records.size() - 2);
  EXPECT_EQ(recovered.last_time,
            intact.records[intact.records.size() - 2].time);
}

}  // namespace
}  // namespace mecra::sim
