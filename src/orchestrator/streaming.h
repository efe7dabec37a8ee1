// Streaming admission service: the event-driven front end of the
// orchestrator.
//
// The batch API (Orchestrator::admit_batch) is call-driven: somebody
// collects a window of requests, calls, and waits. This service turns that
// into a continuously running pipeline, the regime RIPPLE (PAPERS.md)
// argues is the real online SFC problem — arrivals, departures, and
// re-admissions as a single event stream:
//
//   producers --> MpscQueue<StreamEvent> --> [pipeline thread] --> [commit
//     (any thread)      (lock-free)            admits window N     thread]
//                                                                  drains
//                                                                  N-1
//
// Window model. Events carry an EVENT TIME (the driver's clock, simulated
// or wall). The pipeline thread groups admission candidates into windows
// aligned to the fixed grid [k*W, (k+1)*W) of StreamingOptions::
// window_width. A window opens at its first event and closes on the first
// of: an event beyond its grid cell (time trigger), an explicit flush()
// punctuation, or drain-on-stop. Empty grid cells produce no window. At
// close, the window runs on the pipeline thread: departures and re-admit
// teardowns first (event order — capacity freed this window is available
// to this window's arrivals, the same order the dynamic simulator uses),
// then ONE Orchestrator::admit_batch over the arrivals plus re-admit
// requests in event order, then Controller::on_admit per admitted service.
//
// Epoch pipelining. The pipeline thread mutates ALL orchestrator/
// controller state and also CAPTURES journal payloads while that state is
// current (journal.h's make_*_record builders); the serial commit of the
// PREVIOUS window — journal framing + fsync-ordered appends, admission-
// latency histogram, on_commit — drains concurrently on the commit
// thread. Because nothing on the commit thread feeds back into admission
// decisions, pipelining changes wall-clock behaviour only: admission
// outcomes, service/instance ids, and journal bytes are BIT-IDENTICAL to
// pipelined_commit=false, and (via admit_batch's salted per-request
// streams) to any BatchOptions::threads value. Windows commit strictly in
// order; StreamingService::kMaxInflightWindows bounds how far admission
// may run ahead of durability.
//
// Determinism contract. A fixed seed + fixed window schedule (same events
// into the same windows) yields identical traces at any thread count,
// pipelined or not. Every accepted event is decided: the service refuses
// events only while stopped or failed, never by queue depth or latency.
// Window n of the run draws its RNG as
// derive_seed(seed, first_admission_window + n), counting only windows
// that ran admit_batch — which is exactly the count of `batch` records in
// the journal, so a recovered run resumes the sequence by passing that
// count as first_admission_window.
//
// Shutdown & failure. stop() drains: every event accepted BEFORE the call
// is processed, a final partial window closes with trigger kDrain, the
// commit queue empties, then both threads join (the destructor calls
// stop()). Producers racing stop() may have a just-accepted event dropped;
// quiesce producers first when the final window matters. A commit-thread
// failure (journal wedged by `journal.torn_write`, write error) marks the
// service failed(): admission stops — continuing to mutate state that can
// no longer be journaled would break crash consistency — while flush
// punctuation keeps draining so lockstep drivers never deadlock; the
// journal prefix on disk stays valid for recover().
//
// Thread safety: submit_*/flush/stats are safe from any thread (lock-free
// fast path); start/stop/wait_flushes_processed from the owning thread(s).
// The orchestrator, controller, and journal belong to the service between
// start() and stop() — the pipeline thread is their driver thread
// (orchestrator.h) — and must not be touched externally.
//
// Lock discipline (PR-8 style): flush_mutex_ guards the flush counter,
// inflight_mutex_ guards the window in-flight counters, stats_mutex_
// guards the error string; each guarded field is annotated
// MECRA_GUARDED_BY and every other hot-path field is a std::atomic. No
// lock is ever held while calling into orchestrator/controller/journal
// code, so the annotations prove the service adds no lock-ordering edges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "mec/request.h"
#include "obs/metrics.h"
#include "orchestrator/controller.h"
#include "orchestrator/journal.h"
#include "orchestrator/orchestrator.h"
#include "util/mpsc_queue.h"
#include "util/thread_annotations.h"

namespace mecra::orchestrator {

/// Event kinds on the ingress queue. kFlush and kStop are punctuation
/// (flush() / stop() enqueue them); drivers submit the first three.
enum class StreamEventKind : std::uint8_t {
  kArrival,    ///< admission candidate carrying an SfcRequest
  kDeparture,  ///< teardown of a live service (capacity release)
  kReadmit,    ///< teardown + re-admission of a live service's request
  kFlush,      ///< punctuation: close the open window now
  kStop,       ///< internal shutdown sentinel
};

/// One ingress event. `time` is the driver's event time (must not decrease
/// across submits from the same producer); `ticket` is an opaque
/// caller-chosen tag echoed in StreamOutcome.
struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kArrival;
  double time = 0.0;
  std::uint64_t ticket = 0;
  mec::SfcRequest request;  ///< kArrival payload (kReadmit captures its own)
  ServiceId service = 0;    ///< kDeparture / kReadmit target
  /// Wall-clock enqueue stamp; the commit thread turns it into the
  /// `stream.admit_latency_seconds` observation.
  std::chrono::steady_clock::time_point enqueued_at{};
  /// Internal: re-admit target existed and its request was captured.
  bool readmit_valid = false;
};

/// What closed a window.
enum class WindowTrigger : std::uint8_t {
  kTime,   ///< an event landed beyond the window's grid cell
  kFlush,  ///< explicit flush() punctuation
  kDrain,  ///< final partial window during stop()
};

/// Per-candidate admission decision, delivered via on_decided on the
/// PIPELINE thread right after the window's admit_batch — before the
/// window is durable, which lets lockstep drivers schedule departures
/// without waiting on the commit lag.
struct StreamOutcome {
  std::uint64_t ticket = 0;
  /// Close time of the deciding window (the admission timestamp the
  /// controller was given).
  double time = 0.0;
  bool admitted = false;
  /// The candidate was a re-admission (kReadmit) rather than an arrival.
  bool readmit = false;
  /// Valid only when admitted.
  ServiceId service = 0;
};

/// One committed window, delivered via on_commit on the COMMIT thread
/// after its journal records are durable.
struct WindowReport {
  std::uint64_t seq = 0;  ///< dense window sequence number, from 0
  double open_time = 0.0;
  double close_time = 0.0;
  WindowTrigger trigger = WindowTrigger::kTime;
  std::size_t arrivals = 0;    ///< kArrival candidates admitted+rejected
  std::size_t readmits = 0;    ///< kReadmit events (incl. unknown targets)
  std::size_t departures = 0;  ///< kDeparture events applied
  std::size_t admitted = 0;    ///< candidates admitted (arrivals+readmits)
  std::size_t rejected = 0;    ///< candidates refused by admission
  /// Pipeline-stage wall time of the window (lifecycle + admit_batch).
  double admit_seconds = 0.0;
  /// Commit-stage wall time (journal appends + metrics).
  double commit_seconds = 0.0;
};

/// submit_* result. Only kAccepted events reach the pipeline.
enum class SubmitStatus : std::uint8_t {
  kAccepted,
  kStopped,  ///< refused: service not started, stopping, or failed
};

/// Cumulative service counters (atomics; readable from any thread).
struct StreamStats {
  std::uint64_t submitted = 0;  ///< events accepted onto the queue
  std::uint64_t arrivals = 0;   ///< arrival candidates decided
  std::uint64_t readmits = 0;   ///< re-admit events processed
  std::uint64_t departures = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// Always 0: the service sheds nothing. Kept only because perfbench's
  /// stream_durable still reads them.
  std::uint64_t shed_queue = 0;
  std::uint64_t shed_slo = 0;
  /// Departure/re-admit events whose service id was not live.
  std::uint64_t unknown_service = 0;
  std::uint64_t windows = 0;  ///< windows committed
  std::uint64_t flushes = 0;  ///< flush punctuations processed
};

struct StreamingOptions {
  /// Width W of the event-time window grid (> 0). Windows cover
  /// [k*W, (k+1)*W); a window's admission timestamp is its grid close.
  double window_width = 1.0;
  /// Run the serial commit on its own thread (the epoch pipeline). False
  /// commits inline on the pipeline thread — same bytes, no overlap.
  bool pipelined_commit = true;
  /// Base seed for per-window admission RNG streams.
  std::uint64_t seed = 0;
  /// Resume offset into the per-window RNG sequence: the number of
  /// admission windows a previous incarnation already ran (== the count
  /// of `batch` records in its journal). Fresh streams pass 0.
  std::uint64_t first_admission_window = 0;
  /// Append a snapshot record every N windows (0 = never). Requires a
  /// controller; snapshots are what recover() resumes from.
  std::size_t snapshot_every_windows = 0;
  /// Append one snapshot record from start(), at event time 0, before any
  /// event is processed (gives a fresh journal its recovery anchor).
  /// Requires a controller.
  bool snapshot_on_start = false;
  /// Pipeline-thread callback: every window's decisions, in window order.
  std::function<void(const std::vector<StreamOutcome>&)> on_decided;
  /// Commit-thread callback: every window's report, after durability.
  std::function<void(const WindowReport&)> on_commit;
};

/// The streaming admission service (see file comment for the model).
///
/// Lifetime: construct over an orchestrator (plus optional controller and
/// journal, which must outlive the service), start(), feed events, stop().
/// The referenced objects are exclusively the service's between start()
/// and stop().
class StreamingService {
 public:
  /// Windows admitted but not yet committed; the pipeline thread blocks at
  /// window close when the commit thread lags this far.
  static constexpr std::size_t kMaxInflightWindows = 4;

  StreamingService(Orchestrator& orch, StreamingOptions options,
                   Controller* controller = nullptr,
                   Journal* journal = nullptr);
  /// Stops and drains (see stop()).
  ~StreamingService();

  StreamingService(const StreamingService&) = delete;
  StreamingService& operator=(const StreamingService&) = delete;

  /// Launches the pipeline (and, when pipelined_commit, the commit)
  /// thread. Writes the snapshot_on_start record first. Call once.
  void start();

  /// Drains and joins: every event accepted before the call is processed,
  /// the final partial window closes (trigger kDrain), all commits land.
  /// Idempotent; called by the destructor.
  void stop();

  /// Enqueues an admission candidate. Any thread; lock-free. Refused only
  /// when the service is stopped or failed (as are the two below).
  SubmitStatus submit_arrival(mec::SfcRequest request, double time,
                              std::uint64_t ticket = 0);
  /// Enqueues a departure.
  SubmitStatus submit_departure(ServiceId service, double time);
  /// Enqueues a teardown + re-admission of the service's request. The
  /// re-admission competes in its window's admit_batch like an arrival
  /// and reports through on_decided with readmit=true.
  SubmitStatus submit_readmit(ServiceId service, double time,
                              std::uint64_t ticket = 0);

  /// Punctuation: close the currently open window (if any) when this
  /// event is reached. `time` is informational; the window keeps its grid
  /// close time. Always accepted (also while failed — lockstep drivers
  /// wait on the flush counter and must never deadlock).
  void flush(double time);

  /// Blocks until n flush punctuations were processed. The guarantee on
  /// return is that every event submitted BEFORE the n-th flush() has
  /// been through its window's ADMISSION stage (on_decided fired); its
  /// commit may still be in flight on the commit thread — that lag is the
  /// pipeline.
  void wait_flushes_processed(std::uint64_t n);

  /// True after a commit failure (wedged journal, write error); the
  /// stream stops admitting but flush/stop still work. See error().
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }
  /// First failure message (empty while !failed()). Call after stop() or
  /// failed() — racing reads see either empty or the final message.
  [[nodiscard]] std::string error() const;

  /// Cumulative counters (consistent per field, not across fields).
  [[nodiscard]] StreamStats stats() const;
  /// Admission windows run so far, offset by first_admission_window —
  /// pass this as first_admission_window to a successor stream to
  /// continue the per-window RNG sequence.
  [[nodiscard]] std::uint64_t admission_windows() const noexcept {
    return admission_windows_.load(std::memory_order_relaxed);
  }

 private:
  /// Window under assembly on the pipeline thread.
  struct Window {
    bool open = false;
    std::uint64_t seq = 0;
    double open_time = 0.0;
    double close_time = 0.0;
    std::vector<StreamEvent> events;  ///< push order == event order
  };

  /// One journal record captured at window close, appended at commit.
  struct PendingRecord {
    std::string kind;
    double time = 0.0;
    io::Json data;
  };

  /// Everything the commit stage needs; built entirely on the pipeline
  /// thread, moved through the commit queue.
  struct CommitTicket {
    bool stop = false;  ///< commit-thread shutdown sentinel
    WindowReport report;
    std::vector<PendingRecord> records;
    /// Enqueue stamps of the window's candidates (latency histogram).
    std::vector<std::chrono::steady_clock::time_point> enqueued;
  };

  SubmitStatus submit_event(StreamEvent ev);
  void pipeline_loop();
  void commit_loop();
  void handle_event(Window& win, StreamEvent&& ev);
  /// Runs the window on the pipeline thread (lifecycle, admit_batch,
  /// payload capture, on_decided) and hands the ticket to the commit
  /// stage. Resets `win`.
  void close_window(Window& win, WindowTrigger trigger);
  void commit_ticket(CommitTicket& ticket);
  void record_failure(const std::string& what);

  Orchestrator& orch_;
  StreamingOptions options_;
  Controller* controller_;  // may be nullptr
  Journal* journal_;        // may be nullptr

  // Cached hot-path instrument (owned by the registry, never null after
  // construction; recording through it is gated by obs::enabled()).
  obs::Histogram* latency_hist_ = nullptr;

  util::MpscQueue<StreamEvent> ingress_;
  util::MpscQueue<CommitTicket> commit_queue_;
  std::thread pipeline_thread_;
  std::thread commit_thread_;

  std::atomic<bool> started_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<bool> failed_{false};

  // Pipeline-thread-only window state.
  std::uint64_t next_window_seq_ = 0;

  // Cumulative counters (relaxed atomics; see StreamStats).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<std::uint64_t> readmits_{0};
  std::atomic<std::uint64_t> departures_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> unknown_service_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> admission_windows_{0};

  /// Guards the flush counter; wait_flushes_processed sleeps here.
  mutable util::Mutex flush_mutex_;
  util::CondVar flush_cv_;
  std::uint64_t flushes_processed_ MECRA_GUARDED_BY(flush_mutex_) = 0;

  /// Guards the admitted-vs-committed window counters that implement the
  /// kMaxInflightWindows bound.
  util::Mutex inflight_mutex_;
  util::CondVar inflight_cv_;
  std::uint64_t windows_enqueued_ MECRA_GUARDED_BY(inflight_mutex_) = 0;
  std::uint64_t windows_committed_ MECRA_GUARDED_BY(inflight_mutex_) = 0;

  /// Guards the failure message (failed_ is the lock-free flag).
  mutable util::Mutex stats_mutex_;
  std::string error_ MECRA_GUARDED_BY(stats_mutex_);
};

}  // namespace mecra::orchestrator
