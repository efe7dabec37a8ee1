// Tests for the write-ahead event journal (orchestrator/journal.h): frame
// checksums, scan/replay round-trips through io::Json, bit-identical
// recovery of orchestrator + controller state, torn-tail tolerance,
// loud mid-file corruption errors, the journal.torn_write fault, pinned
// v1 bytes, random cuts and byte flips of a real run's journal, and the
// payload writers against the io::Json trees they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/topology.h"
#include "io/scenario_io.h"
#include "orchestrator/journal.h"
#include "sim/simulate.h"
#include "util/check.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace mecra::orchestrator {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

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

/// Flat comparable view of everything restore_service/recover must get
/// right: the whole service table, residuals, down set, and id counters.
struct OrchSnap {
  std::vector<std::pair<ServiceId, int>> service_states;
  std::vector<std::tuple<ServiceId, std::uint64_t, std::uint32_t,
                         graph::NodeId, int, int>>
      instances;
  std::vector<std::uint64_t> residual_bits;
  std::vector<graph::NodeId> down;
  ServiceId next_service = 0;
  InstanceId next_instance = 0;
  bool has_shard_map = false;

  friend bool operator==(const OrchSnap&, const OrchSnap&) = default;
};

OrchSnap snap_of(const Orchestrator& orch) {
  OrchSnap snap;
  for (const ServiceId id : orch.services()) {
    snap.service_states.emplace_back(
        id, static_cast<int>(orch.service(id).state));
    for (const Instance& inst : orch.service(id).instances) {
      snap.instances.emplace_back(id, inst.id, inst.chain_pos, inst.cloudlet,
                                  static_cast<int>(inst.role),
                                  static_cast<int>(inst.state));
    }
  }
  for (graph::NodeId v = 0; v < orch.network().num_nodes(); ++v) {
    snap.residual_bits.push_back(
        std::bit_cast<std::uint64_t>(orch.network().residual(v)));
  }
  snap.down = orch.down_cloudlets();
  snap.next_service = orch.next_service_id();
  snap.next_instance = orch.next_instance_id();
  snap.has_shard_map = orch.has_shard_map();
  return snap;
}

void expect_controller_state_eq(const ControllerState& a,
                                const ControllerState& b) {
  ASSERT_EQ(a.tracked.size(), b.tracked.size());
  for (std::size_t i = 0; i < a.tracked.size(); ++i) {
    EXPECT_EQ(a.tracked[i].service, b.tracked[i].service);
    EXPECT_EQ(a.tracked[i].dirty, b.tracked[i].dirty);
    EXPECT_EQ(a.tracked[i].not_before, b.tracked[i].not_before);
    EXPECT_EQ(a.tracked[i].backoff, b.tracked[i].backoff);
  }
  EXPECT_EQ(a.repair_queue, b.repair_queue);
  EXPECT_EQ(a.next_batch, b.next_batch);
  EXPECT_EQ(a.last_now, b.last_now);
  EXPECT_EQ(a.metrics.repairs, b.metrics.repairs);
  EXPECT_EQ(a.metrics.reaugment_attempts, b.metrics.reaugment_attempts);
  EXPECT_EQ(a.metrics.reaugment_successes, b.metrics.reaugment_successes);
  EXPECT_EQ(a.metrics.reaugment_failures, b.metrics.reaugment_failures);
  EXPECT_EQ(a.metrics.standbys_added, b.metrics.standbys_added);
  EXPECT_EQ(a.metrics.revivals, b.metrics.revivals);
}

/// First running standby instance of the service (there is one: the tests
/// use expectation 0.99 on a roomy network).
InstanceId a_standby_of(const Orchestrator& orch, ServiceId id) {
  for (const Instance& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby &&
        inst.state == InstanceState::kRunning) {
      return inst.id;
    }
  }
  ADD_FAILURE() << "no running standby";
  return 0;
}

TEST(JournalFraming, Crc32MatchesTheIeeeCheckVector) {
  EXPECT_EQ(journal_crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(journal_crc32(""), 0u);
}

/// Reference CRC-32: one bit at a time, no tables.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(JournalFraming, Crc32MatchesTheBytewiseLoopOnRandomSlices) {
  util::Rng rng(31);
  std::string buffer(6000, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.uniform_int(0, 255));
  ASSERT_EQ(crc32_bytewise("123456789"), 0xCBF43926u);
  for (int i = 0; i < 300; ++i) {
    const std::size_t len = rng.index(5001);
    const std::size_t offset = rng.index(buffer.size() - len + 1);
    const std::string_view slice(buffer.data() + offset, len);
    ASSERT_EQ(journal_crc32(slice), crc32_bytewise(slice))
        << "offset " << offset << " length " << len;
  }
}

TEST(JournalFraming, AppendScanRoundTripsThroughJsonParse) {
  const std::string path = temp_path("roundtrip.journal");
  {
    Journal journal(path);
    io::JsonObject data;
    data.set("cloudlet", io::Json(7));
    EXPECT_EQ(journal.append("repair", 1.5, io::Json(std::move(data))), 0u);
    EXPECT_EQ(journal.reconcile_mark(2.25), 1u);
    EXPECT_EQ(journal.next_seq(), 2u);
  }
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 0u);
  EXPECT_EQ(scan.records[0].kind, "repair");
  EXPECT_EQ(scan.records[0].time, 1.5);
  EXPECT_EQ(scan.records[0].data().as_object().at("cloudlet").as_int(), 7);
  EXPECT_EQ(scan.records[1].seq, 1u);
  EXPECT_EQ(scan.records[1].kind, "reconcile");
  EXPECT_EQ(scan.records[1].time, 2.25);
  EXPECT_EQ(scan.bytes_used, std::filesystem::file_size(path));
}

TEST(JournalFraming, MissingAndEmptyFilesScanToZeroRecords) {
  const JournalScan missing = scan_journal(temp_path("no_such.journal"));
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn_tail);

  const std::string path = temp_path("empty.journal");
  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  const JournalScan empty = scan_journal(path);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.torn_tail);
  // recover() is the layer that demands at least a snapshot.
  EXPECT_THROW((void)recover(path, {}), util::CheckFailure);
}

TEST(JournalFraming, TornTailIsDroppedNotFatal) {
  const std::string path = temp_path("torn.journal");
  {
    Journal journal(path);
    journal.reconcile_mark(1.0);
    journal.reconcile_mark(2.0);
  }
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);

  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].time, 1.0);

  // kContinue truncates the tear and resumes the sequence chain.
  Journal resumed(path, Journal::Mode::kContinue);
  EXPECT_EQ(resumed.next_seq(), 1u);
  EXPECT_EQ(resumed.reconcile_mark(3.0), 1u);
  const JournalScan rescanned = scan_journal(path);
  EXPECT_FALSE(rescanned.torn_tail);
  ASSERT_EQ(rescanned.records.size(), 2u);
  EXPECT_EQ(rescanned.records[1].time, 3.0);
}

TEST(JournalFraming, MidFileChecksumMismatchFailsLoudly) {
  const std::string path = temp_path("corrupt.journal");
  {
    Journal journal(path);
    journal.reconcile_mark(1.0);
    journal.reconcile_mark(2.0);
  }
  // Flip one payload byte of the FIRST record: a bad checksum with more
  // data after it is silent corruption, never a tolerable torn tail.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[10] = static_cast<char>(bytes[10] ^ 0x40);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  EXPECT_THROW((void)scan_journal(path), util::CheckFailure);
  EXPECT_THROW((void)recover(path, {}), util::CheckFailure);
}

/// Hand-frames a payload exactly like Journal::append does.
void write_frame(std::ofstream& out, const std::string& payload) {
  const auto le = [&out](std::uint32_t x) {
    char b[4] = {static_cast<char>(x & 0xffu),
                 static_cast<char>((x >> 8) & 0xffu),
                 static_cast<char>((x >> 16) & 0xffu),
                 static_cast<char>((x >> 24) & 0xffu)};
    out.write(b, 4);
  };
  le(static_cast<std::uint32_t>(payload.size()));
  le(journal_crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

TEST(JournalFraming, SequenceGapsAndForeignVersionsFailLoudly) {
  const std::string gap_path = temp_path("seqgap.journal");
  {
    std::ofstream out(gap_path, std::ios::binary | std::ios::trunc);
    write_frame(out, R"({"v":1,"seq":3,"t":0,"kind":"reconcile","data":{}})");
  }
  EXPECT_THROW((void)scan_journal(gap_path), util::CheckFailure);

  const std::string ver_path = temp_path("version.journal");
  {
    std::ofstream out(ver_path, std::ios::binary | std::ios::trunc);
    write_frame(out, R"({"v":2,"seq":0,"t":0,"kind":"reconcile","data":{}})");
  }
  EXPECT_THROW((void)scan_journal(ver_path), util::CheckFailure);
}

TEST(JournalFraming, TornWriteFaultWedgesTheJournal) {
  util::FaultRegistry::global().clear();
  const std::string path = temp_path("wedged.journal");
  Journal journal(path);
  journal.reconcile_mark(1.0);

  util::FaultRegistry::global().arm("journal.torn_write",
                                    util::FaultSpec{.times = 1});
  EXPECT_THROW(journal.reconcile_mark(2.0), util::InjectedFault);
  util::FaultRegistry::global().clear();
  EXPECT_TRUE(journal.wedged());
  // Wedged: the file ends mid-frame, so every further append refuses.
  EXPECT_THROW(journal.reconcile_mark(3.0), util::CheckFailure);

  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);

  // A fresh kContinue handle (the restarted process) truncates the tear
  // and keeps appending where the crash left off.
  Journal resumed(path, Journal::Mode::kContinue);
  EXPECT_FALSE(resumed.wedged());
  EXPECT_EQ(resumed.reconcile_mark(3.0), 1u);
  EXPECT_FALSE(scan_journal(path).torn_tail);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Appends the same three records under the given policy; callers compare
/// the resulting bytes.
void write_three(const std::string& path, Durability durability) {
  Journal journal(path, Journal::Mode::kTruncate, durability);
  journal.reconcile_mark(1.0);
  io::JsonObject data;
  data.set("cloudlet", io::Json(7));
  journal.append("repair", 2.0, io::Json(std::move(data)));
  journal.reconcile_mark(3.0);
  journal.flush();
}

TEST(GroupCommit, HandwrittenEnvelopeMatchesJsonObjectDump) {
  // append() serializes the record envelope by hand (hot path); the bytes
  // must equal the JsonObject-wrapper dump the original implementation
  // produced — including the awkward-double time and string escaping.
  const std::string path = temp_path("gc_envelope.journal");
  {
    Journal journal(path);
    io::JsonObject data;
    data.set("cloudlet", io::Json(7));
    data.set("note", io::Json(std::string("a\"b\\c\n")));
    journal.append("repair", 0.1, io::Json(std::move(data)));
  }
  const std::string bytes = file_bytes(path);
  ASSERT_GT(bytes.size(), 8u);

  io::JsonObject rec;
  rec.set("v", io::Json(1));
  rec.set("seq", io::Json(0));
  rec.set("t", io::Json(0.1));
  rec.set("kind", io::Json(std::string("repair")));
  io::JsonObject data;
  data.set("cloudlet", io::Json(7));
  data.set("note", io::Json(std::string("a\"b\\c\n")));
  rec.set("data", io::Json(std::move(data)));
  EXPECT_EQ(bytes.substr(8), io::Json(std::move(rec)).dump());
}

TEST(GroupCommit, BytesAreByteIdenticalAcrossDurabilityPolicies) {
  const std::string per_record = temp_path("gc_per_record.journal");
  const std::string per_window = temp_path("gc_per_window.journal");
  write_three(per_record, Durability::per_record());
  write_three(per_window, Durability::per_window());

  const std::string baseline = file_bytes(per_record);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(file_bytes(per_window), baseline);

  // Same records either way, and the scanner cannot tell who wrote them.
  const JournalScan scan = scan_journal(per_window);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].seq, 2u);
}

TEST(GroupCommit, PerWindowBuffersUntilFlushAndDtorFlushesTheRest) {
  const std::string path = temp_path("gc_buffering.journal");
  {
    Journal journal(path, Journal::Mode::kTruncate, Durability::per_window());
    journal.reconcile_mark(1.0);
    journal.reconcile_mark(2.0);
    EXPECT_EQ(journal.buffered_records(), 2u);
    EXPECT_GT(journal.buffered_bytes(), 0u);
    // Nothing on disk until the group boundary.
    EXPECT_TRUE(scan_journal(path).records.empty());
    journal.flush();
    EXPECT_EQ(journal.buffered_records(), 0u);
    EXPECT_EQ(scan_journal(path).records.size(), 2u);
    journal.reconcile_mark(3.0);
    EXPECT_EQ(scan_journal(path).records.size(), 2u);
    // Destruction flushes the pending tail (a clean shutdown loses nothing).
  }
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].time, 3.0);
}

TEST(GroupCommit, TornWriteInsideAGroupKeepsTheFlushedPrefix) {
  util::FaultRegistry::global().clear();
  const std::string path = temp_path("gc_torn_group.journal");
  Journal journal(path, Journal::Mode::kTruncate, Durability::per_window());

  // Group 1 flushes cleanly.
  journal.reconcile_mark(1.0);
  journal.reconcile_mark(2.0);
  journal.flush();

  // Group 2 tears mid-write: the cut lands inside the frame containing the
  // buffer midpoint, so earlier frames of the group survive complete and
  // that frame becomes the torn tail.
  journal.reconcile_mark(3.0);
  journal.reconcile_mark(4.0);
  journal.reconcile_mark(5.0);
  EXPECT_EQ(journal.buffered_records(), 3u);
  util::FaultRegistry::global().arm("journal.torn_write",
                                    util::FaultSpec{.times = 1});
  EXPECT_THROW(journal.flush(), util::InjectedFault);
  util::FaultRegistry::global().clear();
  EXPECT_TRUE(journal.wedged());
  EXPECT_EQ(journal.buffered_records(), 0u);
  EXPECT_THROW(journal.reconcile_mark(6.0), util::CheckFailure);

  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  // Flushed prefix (2 records) + the torn group's complete frames before
  // the midpoint cut (3 equal-size frames -> frame 1 of the group holds
  // the midpoint, so exactly one more complete record).
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].time, 3.0);

  // The restarted process truncates the tear and resumes the seq chain.
  Journal resumed(path, Journal::Mode::kContinue, Durability::per_window());
  EXPECT_EQ(resumed.next_seq(), 3u);
  resumed.reconcile_mark(6.0);
  resumed.flush();
  const JournalScan rescanned = scan_journal(path);
  EXPECT_FALSE(rescanned.torn_tail);
  ASSERT_EQ(rescanned.records.size(), 4u);
  EXPECT_EQ(rescanned.records[3].time, 6.0);
}

TEST(GroupCommit, DurabilityParseRoundTrips) {
  EXPECT_EQ(Durability::parse("per_record").policy,
            Durability::Policy::kPerRecord);
  EXPECT_EQ(Durability::parse("per_window").policy,
            Durability::Policy::kPerGroup);
  EXPECT_EQ(Durability::per_window().to_string(), "per_window");
  EXPECT_EQ(Durability::parse(Durability::per_record().to_string()).policy,
            Durability::Policy::kPerRecord);
  EXPECT_EQ(Durability::parse(Durability::per_window().to_string()).policy,
            Durability::Policy::kPerGroup);
  EXPECT_THROW((void)Durability::parse("fsync_sometimes"),
               util::CheckFailure);
  EXPECT_THROW((void)Durability::parse("bytes:65536"), util::CheckFailure);
}

TEST(JournalRecovery, SnapshotOnlyRoundTripIsBitIdentical) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  util::Rng rng(3);
  const auto id1 = orch.admit(w.request, rng);
  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value() && id2.has_value());
  controller.on_admit(*id1, 0.5);
  controller.on_admit(*id2, 0.75);
  (void)orch.fail_instance(*id1, a_standby_of(orch, *id1));
  controller.on_instance_failed(*id1, 1.0);
  orch.fail_cloudlet(2);
  controller.on_cloudlet_failed(2, 2.0);
  (void)controller.reconcile(3.0);

  const std::string path = temp_path("snapshot_only.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 3.0);

  RecoverOptions options;
  const Recovered recovered = recover(path, options);
  EXPECT_EQ(recovered.replayed_events, 0u);
  EXPECT_FALSE(recovered.torn_tail);
  EXPECT_EQ(recovered.last_time, 3.0);
  EXPECT_EQ(recovered.last_seq, 0u);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
  expect_controller_state_eq(recovered.controller->state(),
                             controller.state());
  EXPECT_EQ(recovered.controller->next_wakeup(), controller.next_wakeup());
}

TEST(JournalRecovery, SnapshotPlusTailReplaysToTheSameState) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  const std::string path = temp_path("tail_replay.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 0.0);

  // Drive the full event vocabulary, journaling exactly like the chaos
  // driver does: effect records for admissions, thin re-invocation records
  // (written BEFORE applying) for everything deterministic.
  util::Rng rng(5);
  const auto id1 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value());
  journal.admit(orch, orch.service(*id1), 1.0);
  controller.on_admit(*id1, 1.0);
  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id2.has_value());
  journal.admit(orch, orch.service(*id2), 1.5);
  controller.on_admit(*id2, 1.5);

  const InstanceId victim = a_standby_of(orch, *id1);
  journal.instance_failure(*id1, victim, 2.0);
  (void)orch.fail_instance(*id1, victim);
  controller.on_instance_failed(*id1, 2.0);

  journal.cloudlet_outage(1, 3.0);
  orch.fail_cloudlet(1);
  controller.on_cloudlet_failed(1, 3.0);

  journal.reconcile_mark(4.0);
  (void)controller.reconcile(4.0);

  journal.teardown(*id2, 5.0);
  orch.teardown(*id2);
  controller.on_teardown(*id2);

  journal.repair(1, 6.0);
  orch.repair_cloudlet(1);

  RecoverOptions options;
  const Recovered recovered = recover(path, options);
  EXPECT_EQ(recovered.replayed_events, 7u);
  EXPECT_EQ(recovered.last_time, 6.0);
  EXPECT_EQ(recovered.last_seq, 7u);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
  expect_controller_state_eq(recovered.controller->state(),
                             controller.state());

  // The recovered pair is LIVE, not a museum piece: both sides admit the
  // next request identically.
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const auto next_live = orch.admit(w.request, rng_a);
  const auto next_rec = recovered.orch->admit(w.request, rng_b);
  ASSERT_TRUE(next_live.has_value() && next_rec.has_value());
  EXPECT_EQ(*next_live, *next_rec);
  EXPECT_EQ(snap_of(*recovered.orch), snap_of(orch));
}

TEST(JournalRecovery, TornFinalRecordRecoversToTheLastCompleteEvent) {
  World w;
  Orchestrator orch(w.network, w.catalog, {});
  Controller controller(orch);
  const std::string path = temp_path("torn_recover.journal");
  Journal journal(path);
  journal.snapshot(orch, controller, 0.0);

  util::Rng rng(9);
  const auto id1 = orch.admit(w.request, rng);
  ASSERT_TRUE(id1.has_value());
  journal.admit(orch, orch.service(*id1), 1.0);
  controller.on_admit(*id1, 1.0);
  const OrchSnap after_first = snap_of(orch);
  const ControllerState state_first = controller.state();

  const auto id2 = orch.admit(w.request, rng);
  ASSERT_TRUE(id2.has_value());
  journal.admit(orch, orch.service(*id2), 2.0);
  controller.on_admit(*id2, 2.0);

  // Tear the second admit's frame: recovery lands exactly on the state
  // after the first admit, flagged as a torn tail.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5);
  RecoverOptions options;
  const Recovered recovered = recover(path, options);
  EXPECT_TRUE(recovered.torn_tail);
  EXPECT_EQ(recovered.replayed_events, 1u);
  EXPECT_EQ(recovered.last_seq, 1u);
  EXPECT_EQ(recovered.last_time, 1.0);
  EXPECT_EQ(snap_of(*recovered.orch), after_first);
  expect_controller_state_eq(recovered.controller->state(), state_first);
}

// --- pinned bytes and adversarial journals -------------------------------

/// A seeded pooled sim::simulate run with instance failures, cloudlet
/// outages, the controller and periodic snapshots, journaled to `path`.
sim::SimConfig pooled_config(const std::string& path) {
  sim::SimConfig config;
  config.mode = sim::AdmissionMode::kPooled;
  config.window_width = 1.5;
  config.arrival_rate = 1.5;
  config.mean_holding_time = 8.0;
  config.horizon = 30.0;
  config.instance_failure_rate = 1.0;
  config.cloudlet_outage_rate = 0.15;
  config.controller = ControllerOptions{.mttr = 5.0};
  config.journal_path = path;
  config.snapshot_period = 8.0;
  return config;
}

struct PooledWorld {
  mec::MecNetwork network;
  mec::VnfCatalog catalog;
};

PooledWorld pooled_world() {
  util::Rng rng(77);
  graph::WaxmanParams wax;
  wax.num_nodes = 30;
  auto topo = graph::waxman(wax, rng);
  mec::MecNetwork network =
      mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  util::Rng catalog_rng(78);
  return {std::move(network), mec::VnfCatalog::random({}, catalog_rng)};
}

void write_pooled_journal(const std::string& path) {
  const PooledWorld w = pooled_world();
  (void)sim::simulate(w.network, w.catalog, pooled_config(path), 21);
}

TEST(JournalGolden, PooledRunBytesArePinned) {
  // Length and CRC-32 of this run's journal, recorded before io::JsonObject
  // lost its std::map: a change to the object or its serializer cannot
  // alter v1 bytes unnoticed.
  const std::string path = temp_path("golden_pooled.journal");
  write_pooled_journal(path);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(bytes.size(), 39880u);
  EXPECT_EQ(journal_crc32(bytes), 0x3A30B081u);
}

/// The pooled run's journal extended by a recovered, resumed pair with the
/// records pooled admission never writes, so every record kind appears;
/// plus the start offset of every frame (and the file size, last).
struct AdversarialJournal {
  std::string bytes;
  std::vector<std::size_t> starts;
  RecoverOptions options;
};

const AdversarialJournal& adversarial_journal() {
  static const AdversarialJournal journal = [] {
    AdversarialJournal out;
    // Named after the first test to ask: ctest runs tests as parallel
    // processes, which must not share the file.
    const std::string path =
        ::testing::TempDir() +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".fixture.journal";
    write_pooled_journal(path);
    out.options.controller = ControllerOptions{.mttr = 5.0};
    {
      const Recovered rec = recover(path, out.options);
      Journal resumed(path, Journal::Mode::kContinue);
      mec::SfcRequest request;
      request.chain = {0, 1, 2};
      request.expectation = 0.95;
      util::Rng rng(5);
      const auto id = rec.orch->admit(request, rng);
      MECRA_CHECK(id.has_value());
      resumed.admit(*rec.orch, rec.orch->service(*id), 31.0);
      rec.controller->on_admit(*id, 31.0);
      const graph::NodeId v = rec.orch->service(*id).instances[0].cloudlet;
      resumed.cloudlet_outage(v, 32.0);
      rec.orch->fail_cloudlet(v);
      rec.controller->on_cloudlet_failed(v, 32.0);
      resumed.snapshot(*rec.orch, *rec.controller, 33.0);
      resumed.reconcile_mark(34.0);
      (void)rec.controller->reconcile(34.0);
      resumed.repair(v, 35.0);
      rec.orch->repair_cloudlet(v);
    }
    out.bytes = file_bytes(path);
    for (std::size_t pos = 0; pos < out.bytes.size();) {
      out.starts.push_back(pos);
      std::uint32_t len = 0;
      for (std::size_t b = 4; b-- > 0;) {
        len = (len << 8) | static_cast<unsigned char>(out.bytes[pos + b]);
      }
      pos += 8 + len;
    }
    out.starts.push_back(out.bytes.size());
    return out;
  }();
  return journal;
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalGolden, EveryRecordKindBytesArePinned) {
  // Length and CRC-32 of the adversarial fixture, which holds every record
  // kind (admit, batch, teardown and snapshot among them), recorded while
  // the payloads were still built as io::Json trees: the payload writers
  // cannot alter v1 bytes unnoticed.
  const AdversarialJournal& j = adversarial_journal();
  EXPECT_EQ(j.bytes.size(), 44536u);
  EXPECT_EQ(journal_crc32(j.bytes), 0xC59DBDC3u);
}

TEST(JournalAdversarial, FixtureHasEveryRecordKindAndSnapshots) {
  const AdversarialJournal& j = adversarial_journal();
  const std::string path = temp_path("adversarial_scan.journal");
  write_bytes(path, j.bytes);
  const JournalScan scan = scan_journal(path);
  ASSERT_EQ(scan.records.size() + 1, j.starts.size());
  std::set<std::string> kinds;
  std::size_t snapshots = 0;
  for (const JournalRecord& r : scan.records) {
    kinds.insert(r.kind);
    if (r.kind == kJournalSnapshot) ++snapshots;
  }
  EXPECT_GE(snapshots, 2u);
  for (const std::string_view kind :
       {kJournalSnapshot, kJournalAdmit, kJournalBatch,
        kJournalInstanceFailure, kJournalCloudletOutage, kJournalRepair,
        kJournalTeardown, kJournalReconcile}) {
    EXPECT_TRUE(kinds.contains(std::string(kind))) << kind;
  }
}

TEST(JournalAdversarial, RandomCutsRecoverToTheLastCompleteFrame) {
  const AdversarialJournal& j = adversarial_journal();
  const std::size_t first_snapshot_end = j.starts[1];
  const std::string cut_path = temp_path("adversarial_cut.journal");
  const std::string clean_path = temp_path("adversarial_clean.journal");
  util::Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    // One cut in ten lands inside or before the first snapshot.
    const std::size_t cut =
        i % 10 == 0 ? rng.index(first_snapshot_end)
                    : first_snapshot_end +
                          rng.index(j.bytes.size() - first_snapshot_end);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    write_bytes(cut_path, std::string_view(j.bytes).substr(0, cut));
    if (cut < first_snapshot_end) {
      EXPECT_THROW((void)recover(cut_path, j.options), util::CheckFailure);
      continue;
    }
    // Frame k contains the cut; a cut at its start is a clean prefix.
    const auto k = static_cast<std::size_t>(
        std::upper_bound(j.starts.begin(), j.starts.end(), cut) -
        j.starts.begin() - 1);
    write_bytes(clean_path, std::string_view(j.bytes).substr(0, j.starts[k]));
    const Recovered torn = recover(cut_path, j.options);
    const Recovered clean = recover(clean_path, j.options);
    EXPECT_EQ(torn.torn_tail, cut != j.starts[k]);
    EXPECT_FALSE(clean.torn_tail);
    EXPECT_EQ(torn.last_seq, k - 1);
    EXPECT_EQ(torn.last_time, clean.last_time);
    EXPECT_EQ(snap_of(*torn.orch), snap_of(*clean.orch));
    expect_controller_state_eq(torn.controller->state(),
                               clean.controller->state());

    // The restarted writer drops the tear and resumes the sequence chain.
    Journal resumed(cut_path, Journal::Mode::kContinue);
    EXPECT_EQ(resumed.next_seq(), k);
    EXPECT_EQ(std::filesystem::file_size(cut_path), j.starts[k]);
  }
}

TEST(JournalAdversarial, RandomByteFlipsFailLoudlyOrTearAtTheirFrame) {
  const AdversarialJournal& j = adversarial_journal();
  const std::size_t frames = j.starts.size() - 1;
  const std::string path = temp_path("adversarial_flip.journal");
  const std::string clean_path = temp_path("adversarial_flip_clean.journal");
  util::Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    const std::size_t k = rng.index(frames - 1);  // never the final frame
    const std::size_t within =
        i % 5 == 0 ? rng.index(4)  // every fifth flip hits a length byte
                   : rng.index(j.starts[k + 1] - j.starts[k]);
    const std::size_t at = j.starts[k] + within;
    std::string bytes = j.bytes;
    const auto mask = static_cast<unsigned char>(1 + rng.index(255));
    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ mask);
    SCOPED_TRACE("flip at byte " + std::to_string(at) + " of frame " +
                 std::to_string(k));
    write_bytes(path, bytes);
    if (within >= 4) {
      // CRC or payload byte: the checksum catches it, more data follows.
      EXPECT_THROW((void)scan_journal(path), util::CheckFailure);
      EXPECT_THROW((void)recover(path, j.options), util::CheckFailure);
      continue;
    }
    // A length byte: either the checksum fails mid-file, or the frame now
    // runs past the end of the file and reads as a torn tail at frame k.
    try {
      const Recovered rec = recover(path, j.options);
      EXPECT_TRUE(rec.torn_tail);
      write_bytes(clean_path,
                  std::string_view(j.bytes).substr(0, j.starts[k]));
      const Recovered clean = recover(clean_path, j.options);
      EXPECT_EQ(rec.last_seq, clean.last_seq);
      EXPECT_EQ(snap_of(*rec.orch), snap_of(*clean.orch));
      expect_controller_state_eq(rec.controller->state(),
                                 clean.controller->state());
    } catch (const util::CheckFailure&) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

TEST(JournalAdversarial, EnvelopeIsAnExactBytePrefix) {
  const std::string good =
      R"({"v":1,"seq":0,"t":0,"kind":"reconcile","data":{}})";
  const std::size_t second = 8 + good.size();
  for (const std::string bad : {
           R"({"seq":1,"v":1,"t":0,"kind":"reconcile","data":{}})",
           R"({"v":1,"t":0,"seq":1,"kind":"reconcile","data":{}})",
           R"({"v": 1,"seq":1,"t":0,"kind":"reconcile","data":{}})",
           R"( {"v":1,"seq":1,"t":0,"kind":"reconcile","data":{}})",
           R"({"v":1,"seq":1,"t":0,"kind":"reconcile","data": {}})",
           R"({"v":1,"seq":1,"t":0,"kind":"reconcile","data":{} })",
           R"({"v":1,"seq":1,"t":0,"kind":"reconcile","data":{}}  )",
           R"({"v":1,"seq":1,"t":0,"kind":"reconcile"})",
       }) {
    SCOPED_TRACE(bad);
    const std::string path = temp_path("envelope.journal");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      write_frame(out, good);
      write_frame(out, bad);
      write_frame(out, good);  // more data follows: not a torn tail
    }
    for (const bool via_recover : {false, true}) {
      try {
        if (via_recover) {
          (void)recover(path, {});
        } else {
          (void)scan_journal(path);
        }
        ADD_FAILURE() << "accepted a malformed envelope";
      } catch (const util::CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "offset " + std::to_string(second) + " "),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The writer never produces a kind the strict reader would refuse.
  Journal journal(temp_path("envelope_kind.journal"));
  EXPECT_THROW(journal.append("re\"pair", 1.0, io::Json(io::JsonObject{})),
               util::CheckFailure);
}

// --- payload writers against their tree-built reference -----------------

// The payload writers serialize straight from live state. These are the
// io::Json tree builders they replaced, kept as the reference: every
// writer's text must equal the reference tree's dump() byte for byte.
namespace ref {

template <typename Range, typename F>
io::Json json_array(const Range& items, F f) {
  io::JsonArray arr(std::size(items));
  std::size_t i = 0;
  for (const auto& x : items) arr[i++] = f(x);
  return io::Json(std::move(arr));
}

io::Json json_pair(io::Json a, io::Json b) {
  io::JsonArray pair(2);
  pair[0] = std::move(a);
  pair[1] = std::move(b);
  return io::Json(std::move(pair));
}

io::Json instance_to_json(const Instance& inst) {
  MECRA_CHECK(inst.id < (1ULL << 53));
  io::JsonObject o;
  o.set("id", io::Json(inst.id));
  o.set("pos", io::Json(inst.chain_pos));
  o.set("cloudlet", io::Json(inst.cloudlet));
  o.set("role", io::Json(static_cast<int>(inst.role)));
  o.set("state", io::Json(static_cast<int>(inst.state)));
  return {std::move(o)};
}

io::Json service_to_json(const Service& svc) {
  MECRA_CHECK(svc.id < (1ULL << 53));
  io::JsonObject o;
  o.set("id", io::Json(svc.id));
  o.set("request", io::to_json(svc.request));
  o.set("state", io::Json(static_cast<int>(svc.state)));
  o.set("instances", json_array(svc.instances, instance_to_json));
  return {std::move(o)};
}

io::Json controller_state_to_json(const ControllerState& state) {
  io::JsonObject o;
  o.set("tracked",
        json_array(state.tracked, [](const ControllerState::Entry& entry) {
          io::JsonObject e;
          e.set("service", io::Json(entry.service));
          e.set("dirty", io::Json(entry.dirty));
          e.set("not_before", io::Json(entry.not_before));
          e.set("backoff", io::Json(entry.backoff));
          return io::Json(std::move(e));
        }));
  o.set("repair_queue",
        json_array(state.repair_queue, [](const auto& entry) {
          return json_pair(io::Json(entry.first), io::Json(entry.second));
        }));
  o.set("next_batch", io::Json(state.next_batch));
  o.set("last_now", io::Json(state.last_now));
  io::JsonObject m;
  m.set("repairs", io::Json(state.metrics.repairs));
  m.set("reaugment_attempts", io::Json(state.metrics.reaugment_attempts));
  m.set("reaugment_successes", io::Json(state.metrics.reaugment_successes));
  m.set("reaugment_failures", io::Json(state.metrics.reaugment_failures));
  m.set("standbys_added", io::Json(state.metrics.standbys_added));
  m.set("revivals", io::Json(state.metrics.revivals));
  o.set("metrics", io::Json(std::move(m)));
  return {std::move(o)};
}

io::Json touched_residuals(const mec::MecNetwork& network,
                           const std::vector<const Service*>& services) {
  std::set<graph::NodeId> nodes;
  for (const Service* svc : services) {
    for (const Instance& inst : svc->instances) nodes.insert(inst.cloudlet);
  }
  return json_array(nodes, [&network](graph::NodeId v) {
    return json_pair(io::Json(v), io::Json(network.residual(v)));
  });
}

io::Json snapshot(const Orchestrator& orch, const Controller& controller) {
  io::JsonObject data;
  data.set("network", io::to_json(orch.network()));
  data.set("catalog", io::to_json(orch.catalog()));
  data.set("services", json_array(orch.services(), [&orch](ServiceId id) {
             return service_to_json(orch.service(id));
           }));
  data.set("down", json_array(orch.down_cloudlets(),
                              [](graph::NodeId v) { return io::Json(v); }));
  data.set("next_service", io::Json(orch.next_service_id()));
  data.set("next_instance", io::Json(orch.next_instance_id()));
  data.set("has_shard_map", io::Json(orch.has_shard_map()));
  data.set("controller", controller_state_to_json(controller.state()));
  return io::Json(std::move(data));
}

io::Json admit(const Orchestrator& orch, const Service& svc) {
  io::JsonObject data;
  data.set("service", service_to_json(svc));
  data.set("residuals", touched_residuals(orch.network(), {&svc}));
  return io::Json(std::move(data));
}

io::Json batch(const Orchestrator& orch,
               const std::vector<const Service*>& admitted) {
  io::JsonObject data;
  data.set("services", json_array(admitted, [](const Service* svc) {
             return service_to_json(*svc);
           }));
  data.set("residuals", touched_residuals(orch.network(), admitted));
  data.set("next_service", io::Json(orch.next_service_id()));
  data.set("next_instance", io::Json(orch.next_instance_id()));
  return io::Json(std::move(data));
}

io::Json teardown(ServiceId service) {
  io::JsonObject data;
  data.set("service", io::Json(service));
  return io::Json(std::move(data));
}

}  // namespace ref

/// Every writer's payload for this state equals the reference's dump():
/// the snapshot, an admit and a teardown per service, a batch of all
/// services and an empty batch.
void expect_writers_match_reference(const Orchestrator& orch,
                                    const Controller& controller) {
  EXPECT_EQ(make_snapshot_record(orch, controller).dump(),
            ref::snapshot(orch, controller).dump());
  std::vector<const Service*> all;
  for (const ServiceId id : orch.services()) {
    const Service& svc = orch.service(id);
    all.push_back(&svc);
    EXPECT_EQ(make_admit_record(orch, svc).dump(),
              ref::admit(orch, svc).dump())
        << "service " << id;
    EXPECT_EQ(make_teardown_record(id).dump(), ref::teardown(id).dump());
  }
  EXPECT_EQ(make_batch_record(orch, all).dump(),
            ref::batch(orch, all).dump());
  EXPECT_EQ(make_batch_record(orch, {}).dump(), ref::batch(orch, {}).dump());
}

TEST(JournalWriters, MatchTheTreeReferenceAtEveryFrameOfAPooledRun) {
  // The state after every frame of the adversarial fixture: a pooled run
  // with faults, the controller and snapshots, then a recovered, resumed
  // pair. Each prefix is recovered and every writer checked on it.
  const AdversarialJournal& j = adversarial_journal();
  const std::string path = temp_path("writers_prefix.journal");
  std::size_t checked_services = 0;
  for (std::size_t k = 2; k < j.starts.size(); ++k) {
    SCOPED_TRACE("state after frame " + std::to_string(k - 1));
    write_bytes(path, std::string_view(j.bytes).substr(0, j.starts[k]));
    const Recovered rec = recover(path, j.options);
    expect_writers_match_reference(*rec.orch, *rec.controller);
    checked_services += rec.orch->services().size();
  }
  EXPECT_GT(checked_services, 100u);
}

/// A chain of `length` functions with an expectation carrying fractional
/// bits, for hand-built services.
mec::SfcRequest hand_request(std::size_t length, mec::RequestId id) {
  mec::SfcRequest request;
  request.id = id;
  for (std::size_t i = 0; i < length; ++i) {
    request.chain.push_back(static_cast<mec::FunctionId>((7 * i + 3) % 11));
  }
  request.expectation = 1.0 - 1.0 / (3.0 + static_cast<double>(length));
  request.source = static_cast<graph::NodeId>(length % 6);
  request.destination = static_cast<graph::NodeId>((length * 5) % 6);
  return request;
}

TEST(JournalWriters, HandBuiltStateMatchesTheTreeReference) {
  // Cloudlets at 1, 2, 3 and 5 of a six-node path.
  const mec::MecNetwork network{graph::path_graph(6),
                                {0.0, 3000.0, 2500.5, 4000.0, 0.0, 8000.0}};
  const mec::VnfCatalog catalog{{{0, "a", 0.8, 300.0}, {0, "b", 0.9, 400.0}}};
  Orchestrator orch(network, catalog, {});
  // Residuals with fractional bits, a signed zero and a violation.
  orch.restore_residual(1, 0.1 + 0.2);
  orch.restore_residual(2, 1234.5678901234567);
  orch.restore_residual(3, -0.0);
  orch.restore_residual(5, -12.75);

  // Services of 1-12 instances cycling through every role and state, with
  // chains of length 1-10 and ids up to 2^53 - 1.
  constexpr std::uint64_t kMaxId = (1ULL << 53) - 1;
  const std::vector<ServiceId> service_ids = {
      0, 1, 2, 7, 1000, 65535, 1ULL << 32, kMaxId - 5, kMaxId - 4,
      kMaxId - 3, kMaxId - 2, kMaxId};
  const graph::NodeId cloudlets[] = {1, 2, 3, 5};
  InstanceId next_instance = 0;
  for (std::size_t n = 1; n <= 12; ++n) {
    Service svc;
    svc.id = service_ids[n - 1];
    svc.request = hand_request(1 + (n - 1) % 10, svc.id ^ 0x5a5a);
    svc.state = static_cast<ServiceState>(n % 3);
    if (n == 12) next_instance = kMaxId + 1 - 12;  // the last id is 2^53 - 1
    for (std::size_t i = 0; i < n; ++i) {
      Instance inst;
      inst.id = next_instance++;
      inst.chain_pos = static_cast<std::uint32_t>(i % svc.request.length());
      inst.cloudlet = cloudlets[(i + n) % 4];
      inst.role = static_cast<InstanceRole>(i % 2);
      inst.state = static_cast<InstanceState>((i / 2) % 2);
      svc.instances.push_back(inst);
    }
    orch.restore_service(std::move(svc), /*consume_capacity=*/false);
  }
  orch.restore_down_cloudlet(2);
  orch.restore_down_cloudlet(5);

  // A controller with tracked entries, a repair queue and metrics.
  Controller controller(orch);
  ControllerState state;
  state.tracked = {{0, true, 1.25, 0.1}, {7, false, 0.0, 0.0},
                   {kMaxId, true, 1e300, 0.1 + 0.2}};
  state.repair_queue = {{2.5, 3}, {2.5, 1}, {1e9 + 0.1, 5}};
  state.next_batch = 3.75;
  state.last_now = 1.0 / 3.0;
  state.metrics = {.repairs = 3,
                   .reaugment_attempts = 17,
                   .reaugment_successes = 11,
                   .reaugment_failures = 6,
                   .standbys_added = 23,
                   .revivals = 2};
  controller.restore(state);
  ASSERT_EQ(controller.state().repair_queue, state.repair_queue);

  expect_writers_match_reference(orch, controller);
  EXPECT_EQ(orch.next_instance_id(), kMaxId + 1);
  EXPECT_EQ(make_teardown_record(kMaxId).dump(),
            R"({"service":9007199254740991})");
  // Teardown ids are not range-checked: past 2^53 both round through double.
  for (const ServiceId id :
       {ServiceId{kMaxId + 1}, ServiceId{(1ULL << 60) + 1}}) {
    EXPECT_EQ(make_teardown_record(id).dump(), ref::teardown(id).dump());
  }

  // Ids of 2^53 and above still throw, from every writer that holds them.
  Service big = orch.service(7);
  big.id = kMaxId + 1;
  EXPECT_THROW((void)make_admit_record(orch, big), util::CheckFailure);
  EXPECT_THROW((void)make_batch_record(orch, {&orch.service(0), &big}),
               util::CheckFailure);
  EXPECT_THROW((void)ref::admit(orch, big), util::CheckFailure);
  big.id = 8;
  big.instances.back().id = kMaxId + 1;
  EXPECT_THROW((void)make_admit_record(orch, big), util::CheckFailure);
  EXPECT_THROW((void)make_batch_record(orch, {&big}), util::CheckFailure);
  EXPECT_THROW((void)ref::admit(orch, big), util::CheckFailure);
}

TEST(JournalWriters, ThinRecordsMatchTheirTrees) {
  // instance_failure, cloudlet_outage, repair and reconcile write their
  // payloads as text too: the file equals one appended from trees.
  constexpr std::uint64_t kMaxId = (1ULL << 53) - 1;
  const std::string typed = temp_path("thin_typed.journal");
  const std::string trees = temp_path("thin_trees.journal");
  {
    Journal journal(typed);
    journal.instance_failure(kMaxId, kMaxId - 1, 0.1);
    journal.cloudlet_outage(4000, 0.2);
    journal.repair(0, 1.0 / 3.0);
    journal.reconcile_mark(1e9);
  }
  {
    Journal journal(trees);
    io::JsonObject failure;
    failure.set("service", io::Json(kMaxId));
    failure.set("instance", io::Json(kMaxId - 1));
    journal.append(kJournalInstanceFailure, 0.1, io::Json(std::move(failure)));
    io::JsonObject outage;
    outage.set("cloudlet", io::Json(4000));
    journal.append(kJournalCloudletOutage, 0.2, io::Json(std::move(outage)));
    io::JsonObject repair;
    repair.set("cloudlet", io::Json(0));
    journal.append(kJournalRepair, 1.0 / 3.0, io::Json(std::move(repair)));
    journal.append(kJournalReconcile, 1e9, io::Json(io::JsonObject{}));
  }
  const std::string bytes = file_bytes(typed);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, file_bytes(trees));
}

}  // namespace
}  // namespace mecra::orchestrator
