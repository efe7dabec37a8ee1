// Tests for the streaming admission service (orchestrator/streaming.h),
// driven directly and through sim::simulate's kStreaming mode:
//
//   * the determinism contract — bit-identical results AND journal bytes
//     across shard thread counts and pipelined/inline commit;
//   * window triggers — time, size, flush, drain, the size-vs-time race,
//     and that empty grid cells produce no windows;
//   * lifecycle events — departures/re-admits applied before admission,
//     unknown targets counted rather than crashing;
//   * backpressure — queue shed at submit with `admit.shed` accounting,
//     SLO shed tripping on a wall-clock p99 target, departures never shed;
//   * failure + recovery — a torn journal write wedges the stream without
//     deadlocking lockstep drivers, and a journaled stream resumes
//     mid-sequence via first_admission_window with a state fingerprint
//     identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "graph/topology.h"
#include "mec/network.h"
#include "mec/request.h"
#include "mec/vnf.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "orchestrator/journal.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/streaming.h"
#include "sim/simulate.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace mecra::orchestrator {
namespace {

using namespace std::chrono_literals;

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

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Deterministic arrival trace shared by the resume tests: two arrivals
/// per unit-width grid cell.
std::vector<mec::SfcRequest> fixed_requests(const mec::VnfCatalog& catalog,
                                            std::size_t count,
                                            std::size_t num_nodes) {
  util::Rng rng(99);
  std::vector<mec::SfcRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(mec::random_request(i, catalog, num_nodes, {}, rng));
  }
  return out;
}

/// Collects WindowReports from the commit thread.
struct ReportSink {
  std::mutex mu;
  std::vector<WindowReport> reports;

  std::function<void(const WindowReport&)> callback() {
    return [this](const WindowReport& rep) {
      std::lock_guard<std::mutex> lock(mu);
      reports.push_back(rep);
    };
  }
  std::vector<WindowReport> take() {
    std::lock_guard<std::mutex> lock(mu);
    return reports;
  }
};

TEST(Streaming, BitIdenticalAcrossThreadCountsAndPipelining) {
  const auto network = small_network(42);
  const auto catalog = small_catalog(42);
  sim::SimConfig config;
  config.mode = sim::AdmissionMode::kStreaming;
  config.request.expectation = 0.95;
  config.arrival_rate = 25.0;
  config.mean_holding_time = 4.0;
  config.horizon = 12.0;
  config.readmit_fraction = 0.25;
  config.window_width = 1.0;

  // The sweep crosses thread counts, commit modes, AND journal durability
  // policies: group commit batches the physical writes but must leave the
  // bytes on disk identical to the flush-per-record baseline.
  struct Variant {
    std::size_t threads;
    bool pipelined;
    Durability durability;
    const char* journal;
  };
  const std::vector<Variant> variants = {
      {1, false, Durability::per_record(), "stream_det_t1_inline.journal"},
      {1, true, Durability::per_window(), "stream_det_t1_pipe.journal"},
      {2, true, Durability::per_window(), "stream_det_t2_pipe.journal"},
      {4, true, Durability::per_window(), "stream_det_t4_pipe.journal"},
  };
  std::vector<sim::SimReport> metrics;
  std::vector<std::string> journals;
  for (const Variant& v : variants) {
    sim::SimConfig c = config;
    c.threads = v.threads;
    c.pipelined_commit = v.pipelined;
    c.durability = v.durability;
    c.journal_path = temp_path(v.journal);
    metrics.push_back(sim::simulate(network, catalog, c, 7));
    journals.push_back(file_bytes(c.journal_path));
  }
  const sim::SimReport& base = metrics[0];
  ASSERT_GT(base.arrivals, 0u);
  ASSERT_GT(base.admitted, 0u);
  ASSERT_GT(base.departed, 0u);
  ASSERT_GT(base.readmits, 0u);
  ASSERT_FALSE(journals[0].empty());
  for (std::size_t i = 1; i < metrics.size(); ++i) {
    const sim::SimReport& m = metrics[i];
    EXPECT_EQ(m.generated, base.generated);
    EXPECT_EQ(m.arrivals, base.arrivals);
    EXPECT_EQ(m.admitted, base.admitted);
    EXPECT_EQ(m.rejected, base.rejected);
    EXPECT_EQ(m.departed, base.departed);
    EXPECT_EQ(m.readmits, base.readmits);
    EXPECT_EQ(m.windows, base.windows);
    EXPECT_EQ(m.live_services, base.live_services);
    EXPECT_EQ(m.end_total_residual, base.end_total_residual);
    // The strongest check: every journal byte (ids, services, residuals)
    // matches the serial inline-commit baseline.
    EXPECT_EQ(journals[i], journals[0]) << "variant " << i;
  }
}

TEST(Streaming, WindowTriggersTimeFlushAndEmptyCells) {
  const auto network = small_network(1);
  const auto catalog = small_catalog(1);
  Orchestrator orch(network, catalog, {});
  util::Rng rng(5);
  ReportSink sink;
  StreamingOptions opt;
  opt.window_width = 1.0;
  opt.on_commit = sink.callback();
  StreamingService service(orch, std::move(opt));
  service.start();
  auto arrival = [&](double t, std::uint64_t ticket) {
    auto req = mec::random_request(ticket, catalog, network.num_nodes(), {},
                                   rng);
    EXPECT_EQ(service.submit_arrival(std::move(req), t, ticket),
              SubmitStatus::kAccepted);
  };
  arrival(0.2, 0);
  arrival(0.4, 1);
  // Crossing into cell [1,2) time-triggers the cell-0 window.
  arrival(1.5, 2);
  service.flush(2.0);
  service.wait_flushes_processed(1);
  // Cells 2..4 are empty; an arrival in cell 5 opens a fresh window.
  arrival(5.3, 3);
  service.stop();

  const auto reports = sink.take();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].trigger, WindowTrigger::kTime);
  EXPECT_EQ(reports[0].arrivals, 2u);
  EXPECT_EQ(reports[0].open_time, 0.0);
  EXPECT_EQ(reports[0].close_time, 1.0);
  EXPECT_EQ(reports[1].trigger, WindowTrigger::kFlush);
  EXPECT_EQ(reports[1].arrivals, 1u);
  EXPECT_EQ(reports[1].close_time, 2.0);
  // No windows for the empty cells; the final partial window drains.
  EXPECT_EQ(reports[2].trigger, WindowTrigger::kDrain);
  EXPECT_EQ(reports[2].arrivals, 1u);
  EXPECT_EQ(reports[2].open_time, 5.0);
  const StreamStats stats = service.stats();
  EXPECT_EQ(stats.windows, 3u);
  EXPECT_EQ(stats.arrivals, 4u);
  EXPECT_EQ(stats.admitted + stats.rejected, 4u);
}

TEST(Streaming, SizeTriggerRacesTimeTriggerWithoutEmptyWindows) {
  const auto network = small_network(2);
  const auto catalog = small_catalog(2);
  Orchestrator orch(network, catalog, {});
  util::Rng rng(6);
  ReportSink sink;
  StreamingOptions opt;
  opt.window_width = 1.0;
  opt.window_max_arrivals = 2;
  opt.on_commit = sink.callback();
  StreamingService service(orch, std::move(opt));
  service.start();
  auto arrival = [&](double t, std::uint64_t ticket) {
    auto req = mec::random_request(ticket, catalog, network.num_nodes(), {},
                                   rng);
    EXPECT_EQ(service.submit_arrival(std::move(req), t, ticket),
              SubmitStatus::kAccepted);
  };
  // Two arrivals hit the size trigger inside cell 0 ...
  arrival(0.1, 0);
  arrival(0.2, 1);
  // ... a third in the SAME cell opens a second window for that cell ...
  arrival(0.3, 2);
  // ... and an event beyond the cell closes it by time, not size.
  arrival(1.4, 3);
  service.stop();

  const auto reports = sink.take();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].trigger, WindowTrigger::kSize);
  EXPECT_EQ(reports[0].arrivals, 2u);
  EXPECT_EQ(reports[0].close_time, 1.0);
  EXPECT_EQ(reports[1].trigger, WindowTrigger::kTime);
  EXPECT_EQ(reports[1].arrivals, 1u);
  EXPECT_EQ(reports[1].close_time, 1.0);  // same grid cell, new window
  EXPECT_EQ(reports[2].trigger, WindowTrigger::kDrain);
  EXPECT_EQ(reports[2].arrivals, 1u);
  // Window sequence numbers are dense even when one cell closes twice.
  EXPECT_EQ(reports[0].seq, 0u);
  EXPECT_EQ(reports[1].seq, 1u);
  EXPECT_EQ(reports[2].seq, 2u);
}

TEST(Streaming, UnknownLifecycleTargetsAreCountedNotFatal) {
  const auto network = small_network(3);
  const auto catalog = small_catalog(3);
  Orchestrator orch(network, catalog, {});
  std::mutex mu;
  std::vector<StreamOutcome> outcomes;
  StreamingOptions opt;
  opt.window_width = 1.0;
  opt.on_decided = [&](const std::vector<StreamOutcome>& out) {
    std::lock_guard<std::mutex> lock(mu);
    outcomes.insert(outcomes.end(), out.begin(), out.end());
  };
  StreamingService service(orch, std::move(opt));
  service.start();
  EXPECT_EQ(service.submit_departure(12345, 0.1), SubmitStatus::kAccepted);
  EXPECT_EQ(service.submit_readmit(67890, 0.2, 99), SubmitStatus::kAccepted);
  service.flush(1.0);
  service.wait_flushes_processed(1);
  service.stop();
  const StreamStats stats = service.stats();
  EXPECT_EQ(stats.unknown_service, 2u);
  EXPECT_EQ(stats.departures, 0u);
  EXPECT_FALSE(service.failed());
  // The bogus re-admit still reports a (rejected) outcome for its ticket.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].ticket, 99u);
  EXPECT_FALSE(outcomes[0].admitted);
  EXPECT_TRUE(outcomes[0].readmit);
}

TEST(Streaming, QueueShedRefusesArrivalsButNeverDepartures) {
  const auto network = small_network(4);
  const auto catalog = small_catalog(4);
  Orchestrator orch(network, catalog, {});
  util::Rng rng(8);

  // Block the pipeline thread inside the first window's on_decided so
  // later submits pile up on the ingress queue deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  StreamingOptions opt;
  opt.window_width = 1.0;
  opt.window_max_arrivals = 1;  // first arrival closes its window at once
  opt.max_queue_depth = 1;
  opt.on_decided = [&](const std::vector<StreamOutcome>&) {
    std::unique_lock<std::mutex> lock(mu);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StreamingService service(orch, std::move(opt));
  service.start();
  auto make_req = [&](std::uint64_t ticket) {
    return mec::random_request(ticket, catalog, network.num_nodes(), {}, rng);
  };
  ASSERT_EQ(service.submit_arrival(make_req(0), 0.1, 0),
            SubmitStatus::kAccepted);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }
  // Pipeline is parked in on_decided; fill the queue to the bound.
  ASSERT_EQ(service.submit_arrival(make_req(1), 0.2, 1),
            SubmitStatus::kAccepted);
  EXPECT_EQ(service.submit_arrival(make_req(2), 0.3, 2),
            SubmitStatus::kShedQueue);
  // Capacity release must never be lost: departures bypass the shed.
  EXPECT_EQ(service.submit_departure(424242, 0.4), SubmitStatus::kAccepted);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.stop();
  const StreamStats stats = service.stats();
  EXPECT_EQ(stats.shed_queue, 1u);
  EXPECT_EQ(stats.arrivals, 2u);
  EXPECT_EQ(stats.unknown_service, 1u);  // the bogus departure drained too
}

TEST(Streaming, SloShedTripsOnLatencyTarget) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "SLO shedding is inert with observability disabled";
  }
  const auto network = small_network(5);
  const auto catalog = small_catalog(5);
  Orchestrator orch(network, catalog, {});
  util::Rng rng(9);
  StreamingOptions opt;
  opt.window_width = 1.0;
  // Any real wall-clock latency violates this target.
  opt.slo_p99_seconds = 1e-12;
  StreamingService service(orch, std::move(opt));
  service.start();
  auto req = mec::random_request(0, catalog, network.num_nodes(), {}, rng);
  ASSERT_EQ(service.submit_arrival(std::move(req), 0.5, 0),
            SubmitStatus::kAccepted);
  service.flush(1.0);
  service.wait_flushes_processed(1);
  // The SLO verdict lands on the commit thread; poll briefly.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!service.shedding() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(service.shedding());
  auto req2 = mec::random_request(1, catalog, network.num_nodes(), {}, rng);
  EXPECT_EQ(service.submit_arrival(std::move(req2), 1.5, 1),
            SubmitStatus::kShedSlo);
  service.stop();
  const StreamStats stats = service.stats();
  EXPECT_EQ(stats.shed_slo, 1u);
  EXPECT_GE(obs::MetricsRegistry::global().counter("admit.shed").value(), 1u);
}

TEST(Streaming, TornJournalWriteWedgesStreamWithoutDeadlock) {
  util::FaultRegistry::global().clear();
  const auto network = small_network(6);
  const auto catalog = small_catalog(6);
  Orchestrator orch(network, catalog, {});
  Controller controller(orch);
  const std::string path = temp_path("stream_torn.journal");
  Journal journal(path, Journal::Mode::kTruncate);
  util::Rng rng(10);
  // Let the start() snapshot through; tear the first window's append.
  util::FaultRegistry::global().arm("journal.torn_write",
                                    util::FaultSpec{.skip = 1});
  StreamingOptions opt;
  opt.window_width = 1.0;
  opt.snapshot_on_start = true;
  StreamingService service(orch, std::move(opt), &controller, &journal);
  service.start();
  auto req = mec::random_request(0, catalog, network.num_nodes(), {}, rng);
  ASSERT_EQ(service.submit_arrival(std::move(req), 0.5, 0),
            SubmitStatus::kAccepted);
  // A lockstep driver keeps flushing after the failure; it must not hang.
  service.flush(1.0);
  service.wait_flushes_processed(1);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!service.failed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(service.failed());
  EXPECT_FALSE(service.error().empty());
  auto req2 = mec::random_request(1, catalog, network.num_nodes(), {}, rng);
  EXPECT_EQ(service.submit_arrival(std::move(req2), 1.5, 1),
            SubmitStatus::kStopped);
  service.flush(2.0);
  service.wait_flushes_processed(2);
  service.stop();
  util::FaultRegistry::global().clear();
  // The prefix on disk (the snapshot) stays valid for recovery tooling.
  const JournalScan scan = scan_journal(path);
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.records[0].kind, "snapshot");
}

// Group-commit crash consistency: under per-window durability a whole
// window's records reach the disk as ONE physical write, and the torn-write
// fault tears INSIDE that group. The recovered prefix must be exactly the
// flushed bytes — the start snapshot plus the torn group's complete leading
// frames — and kContinue must truncate the torn frame and resume cleanly.
TEST(Streaming, TornWriteMidGroupRecoversToFlushedPrefix) {
  util::FaultRegistry::global().clear();
  const auto network = small_network(6);
  const auto catalog = small_catalog(6);
  const std::string path = temp_path("stream_torn_group.journal");
  util::Rng rng(11);
  {
    Orchestrator orch(network, catalog, {});
    Controller controller(orch);
    Journal journal(path, Journal::Mode::kTruncate,
                    Durability::per_window());
    // Hit 1 is the start() snapshot flush; hit 2 is the first window's
    // group — several records, torn mid-frame by the fault point.
    util::FaultRegistry::global().arm("journal.torn_write",
                                      util::FaultSpec{.skip = 1});
    StreamingOptions opt;
    opt.window_width = 1.0;
    opt.snapshot_on_start = true;
    StreamingService service(orch, std::move(opt), &controller, &journal);
    service.start();
    for (std::uint64_t i = 0; i < 4; ++i) {
      auto req =
          mec::random_request(i, catalog, network.num_nodes(), {}, rng);
      ASSERT_EQ(service.submit_arrival(std::move(req),
                                       0.2 + 0.1 * static_cast<double>(i), i),
                SubmitStatus::kAccepted);
    }
    service.flush(1.0);
    service.wait_flushes_processed(1);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!service.failed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(service.failed());
    EXPECT_TRUE(journal.wedged());
    EXPECT_EQ(journal.buffered_records(), 0u);
    service.stop();
    util::FaultRegistry::global().clear();
  }
  // The flushed prefix survives: the snapshot frame is intact and the torn
  // group contributes only complete frames before the cut.
  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.records[0].kind, "snapshot");
  for (const JournalRecord& r : scan.records) {
    EXPECT_NE(r.kind, "reconcile");  // the group's LAST record never lands
  }
  // Recovery tooling replays that prefix without complaint...
  const Recovered rec = recover(path, {});
  ASSERT_NE(rec.orch, nullptr);
  EXPECT_EQ(rec.last_seq, scan.records.back().seq);
  // ...and kContinue truncates the torn frame so appends resume the chain.
  {
    Journal resumed(path, Journal::Mode::kContinue, Durability::per_window());
    EXPECT_EQ(resumed.next_seq(), scan.records.back().seq + 1);
    resumed.append("repair", 9.0, io::Json(io::JsonObject{}));
  }  // dtor flushes the pending single-record group
  const JournalScan rescanned = scan_journal(path);
  EXPECT_FALSE(rescanned.torn_tail);
  EXPECT_EQ(rescanned.records.size(), scan.records.size() + 1);
  EXPECT_EQ(rescanned.records.back().kind, "repair");
}

// The determinism contract's recovery clause: a journaled stream killed
// mid-sequence resumes via recover() + first_admission_window and ends in
// a state byte-identical (snapshot-record fingerprint) to an uninterrupted
// run over the same trace.
TEST(Streaming, JournalRecoveryResumesRngSequenceMidStream) {
  const auto network = small_network(7);
  const auto catalog = small_catalog(7);
  const auto requests = fixed_requests(catalog, 20, network.num_nodes());
  // Two arrivals per unit cell: tickets 2k and 2k+1 at times k+0.25/k+0.75.
  auto time_of = [](std::size_t i) {
    return static_cast<double>(i / 2) + (i % 2 == 0 ? 0.25 : 0.75);
  };
  const std::uint64_t kSeed = 1234;

  auto run_range = [&](Orchestrator& orch, Controller& controller,
                       Journal* journal, std::uint64_t first_window,
                       bool snapshot_on_start, std::size_t lo,
                       std::size_t hi) {
    StreamingOptions opt;
    opt.window_width = 1.0;
    opt.seed = kSeed;
    opt.first_admission_window = first_window;
    opt.snapshot_on_start = snapshot_on_start;
    StreamingService service(orch, std::move(opt), &controller, journal);
    service.start();
    for (std::size_t i = lo; i < hi; ++i) {
      mec::SfcRequest req = requests[i];
      EXPECT_EQ(service.submit_arrival(std::move(req), time_of(i), i),
                SubmitStatus::kAccepted);
    }
    service.stop();
    return service.admission_windows();
  };

  // Uninterrupted baseline over all 20 arrivals (cells 0..9).
  Orchestrator full_orch(network, catalog, {});
  Controller full_ctrl(full_orch);
  run_range(full_orch, full_ctrl, nullptr, 0, false, 0, 20);
  const std::string want =
      make_snapshot_record(full_orch, full_ctrl).dump();

  // First incarnation: cells 0..4 (a grid-aligned split), then "crash".
  const std::string path = temp_path("stream_resume.journal");
  {
    Orchestrator orch(network, catalog, {});
    Controller ctrl(orch);
    Journal journal(path, Journal::Mode::kTruncate);
    const std::uint64_t windows =
        run_range(orch, ctrl, &journal, 0, true, 0, 10);
    EXPECT_EQ(windows, 5u);
  }

  // Recover and resume: the batch-record count IS the RNG resume offset.
  const JournalScan scan = scan_journal(path);
  std::uint64_t batches = 0;
  for (const JournalRecord& rec : scan.records) {
    if (rec.kind == "batch") ++batches;
  }
  EXPECT_EQ(batches, 5u);
  Recovered rec = recover(path, {});
  Journal resumed(path, Journal::Mode::kContinue);
  run_range(*rec.orch, *rec.controller, &resumed, batches, false, 10, 20);
  const std::string got =
      make_snapshot_record(*rec.orch, *rec.controller).dump();
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace mecra::orchestrator
