// Crash-consistent write-ahead event journal for the orchestrator.
//
// Every state-changing operation (admission commit, instance/cloudlet
// failure, repair, teardown, reconcile pass, batch commit) is appended to
// the journal BEFORE its effects become observable to the rest of the
// system, and periodic snapshots capture the full deployment + controller
// tracking state. recover() rebuilds a bit-identical orchestrator +
// controller pair — same placements, same instance ids, same backoff gates
// and pending repairs — from the last snapshot plus the event tail, so a
// crashed run can resume exactly where the journal ends.
//
// Record framing. The journal is a flat binary file of frames:
//
//   [u32 payload length, little-endian]
//   [u32 CRC-32 (IEEE) of the payload, little-endian]
//   [payload: compact JSON, `length` bytes]
//
// Each payload is a versioned record (docs/journal_format.md):
//
//   {"v":1,"seq":<n>,"t":<time>,"kind":"<kind>","data":{...}}
//
// The envelope up to `"data":` is an exact byte prefix — append() writes
// it by hand, without whitespace — so a reader decodes it without building
// any JSON. Sequence numbers are dense and start at 0. The typed writers
// below serialize their data straight from live state into text (an
// io::Json::raw value), which append() copies after the envelope: the
// write path builds no JSON tree, except a snapshot's network and catalog.
//
// Reading. One frame walker (journal.cpp) reads the file a frame at a time
// into one reused buffer and checks every frame's length, CRC-32, format
// version, sequence number and envelope; it is the only reader, behind
// scan_journal(), Journal(kContinue) and recover(). A TORN TAIL — the file
// ends inside a frame, or the final frame's checksum fails — is the
// expected signature of a crash mid-append and is tolerated: the partial
// frame is dropped and recovery proceeds to the last complete record. A
// checksum mismatch with MORE data after it is silent corruption and fails
// with a clear error instead (never undefined behaviour). The frame header
// itself carries no checksum, so in v1 a corrupted length that runs a
// mid-file frame past the end of the file reads exactly like a torn tail.
//
// Recovery cost. recover() walks twice: the first pass checks every frame
// and finds the last snapshot without parsing JSON; the second seeks to
// that snapshot and parses and applies one record at a time. It costs the
// last snapshot plus the tail, and holds one record's JSON tree at a time
// (the snapshot's, then each tail record's in turn).
//
// Replay strategy. Deterministic operations (fail_instance promotion,
// fail_cloudlet, repair, reconcile's greedy reaugment/revive) journal a
// thin re-invocation record and are simply re-run during replay. Admission
// is NOT assumed deterministic (a FallbackAugmenter tier may race a
// wall-clock deadline), so admit/batch records store their full EFFECT —
// the admitted services verbatim, instance ids included, plus the
// POST-EVENT RESIDUALS of every touched cloudlet — and replay installs
// them without re-running any algorithm. Residuals are recorded as values
// rather than re-derived by consuming per instance because floating-point
// capacity arithmetic is order-sensitive: reproducing the live run's bits
// would otherwise require replaying its exact per-node operation order
// (shard workers before the fallback pass, rolled-back attempts included).
//
// Group commit. append() frames records into an in-memory pending buffer;
// the Durability policy decides when the buffer reaches the file. Under
// kPerRecord (the default) every append is immediately written and flushed,
// exactly the pre-group-commit behaviour. Under kPerGroup the caller marks
// group boundaries with flush() — the streaming commit thread groups one
// window per flush. Frames are self-delimiting, so concatenating a group into
// one write produces bytes identical to writing each frame separately: the
// on-disk format is the same under every policy, and scan_journal/recover
// never know which one produced the file. What the policy trades away is
// durability granularity — a crash loses the unflushed suffix, never a
// flushed prefix, and never tears anything but the final frame written.
//
// Fault injection: the `journal.torn_write` fault point fires at the
// physical write, writing a deliberately truncated group — every complete
// frame before the buffer midpoint plus half the payload of the frame
// containing it — and then throws util::InjectedFault, simulating a crash
// mid-write; the journal is wedged afterwards (every further append throws)
// exactly like a real half-dead file handle. With single-record groups
// (kPerRecord) this reduces to the historical cut of header + half payload.
//
// Thread safety: a Journal belongs to the orchestrator's driver thread,
// like the orchestrator itself. scan_journal/recover are pure functions of
// the file.
//
// Lock discipline: the writer state (out_, next_seq_, wedged_) is
// intentionally unguarded — appends must stay ordered with the driver's
// state mutations, so a mutex here could only hide a sequencing bug, never
// fix one. A future multi-writer design must thread one util::Mutex
// through append() with MECRA_GUARDED_BY on all three fields
// (util/thread_annotations.h) so clang's -Wthread-safety build checks it.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.h"
#include "orchestrator/controller.h"
#include "orchestrator/orchestrator.h"

namespace mecra::orchestrator {

/// Bump when the record payload schema changes (docs/journal_format.md).
inline constexpr int kJournalFormatVersion = 1;

/// Record kinds (the `kind` payload field).
inline constexpr std::string_view kJournalSnapshot = "snapshot";
inline constexpr std::string_view kJournalAdmit = "admit";
inline constexpr std::string_view kJournalBatch = "batch";
inline constexpr std::string_view kJournalInstanceFailure = "instance_failure";
inline constexpr std::string_view kJournalCloudletOutage = "cloudlet_outage";
inline constexpr std::string_view kJournalRepair = "repair";
inline constexpr std::string_view kJournalTeardown = "teardown";
inline constexpr std::string_view kJournalReconcile = "reconcile";

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` —
/// the frame checksum, computed slicing-by-8. Exposed so tests can craft
/// corrupt frames.
[[nodiscard]] std::uint32_t journal_crc32(std::string_view bytes);

/// When appended records reach the file (group-commit policy). The bytes
/// written are identical under every policy; only the flush boundaries —
/// and therefore what a crash can lose — differ.
struct Durability {
  enum class Policy : std::uint8_t {
    kPerRecord,  // write+flush every append (historical default)
    kPerGroup,   // buffer until an explicit Journal::flush()
  };

  Policy policy = Policy::kPerRecord;

  [[nodiscard]] static Durability per_record() { return {}; }
  /// Group per caller-marked window: appends buffer until flush().
  [[nodiscard]] static Durability per_window() {
    return {.policy = Policy::kPerGroup};
  }

  /// Parses "per_record" or "per_window" (CLI flag syntax); throws
  /// util::CheckFailure on anything else.
  [[nodiscard]] static Durability parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;
};

class Journal {
 public:
  enum class Mode : std::uint8_t {
    kTruncate,  // start a fresh journal (existing file discarded)
    kContinue,  // append after the last complete record (a torn tail is
                // truncated away first; seq continues the chain)
  };

  explicit Journal(std::string path, Mode mode = Mode::kTruncate,
                   Durability durability = Durability::per_record());

  /// Flushes any pending group (best effort — errors are swallowed, as in
  /// a crash the same bytes would simply be lost).
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Sequence number the next append will carry.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// True after an injected torn write: the file ends mid-frame and every
  /// further append throws.
  [[nodiscard]] bool wedged() const noexcept { return wedged_; }

  /// Records framed but not yet written to the file.
  [[nodiscard]] std::size_t buffered_records() const noexcept {
    return pending_frames_.size();
  }
  /// Bytes framed but not yet written to the file.
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return pending_.size();
  }

  /// Appends one framed record; the durability policy decides whether it
  /// reaches the file now (kPerRecord) or waits in the pending group
  /// (kPerGroup). Returns the record's sequence number, assigned eagerly.
  /// `kind` must not need JSON escaping (no quote, backslash or control
  /// character): readers decode it as raw envelope bytes. `data` is
  /// written compactly after the envelope; a raw value (what the typed
  /// writers pass) is copied verbatim.
  std::uint64_t append(std::string_view kind, double time, io::Json data);

  /// Writes and flushes the pending group as one contiguous write. No-op
  /// when nothing is pending. This is the group boundary under kPerGroup —
  /// the streaming commit thread calls it once per window.
  void flush();

  // --- typed writers (one per record kind; see docs/journal_format.md) ---

  /// Full state snapshot: network residuals, catalog, services, down set,
  /// id counters, shard-map presence, and the controller's tracking state.
  std::uint64_t snapshot(const Orchestrator& orch,
                         const Controller& controller, double time);
  /// Effect record for one admitted service (ids already assigned) plus
  /// the post-admit residuals of the cloudlets it touched.
  std::uint64_t admit(const Orchestrator& orch, const Service& svc,
                      double time);
  /// Effect record for one admit_batch commit: every admitted service plus
  /// the post-batch id counters and touched residuals.
  std::uint64_t batch_commit(const Orchestrator& orch,
                             const std::vector<const Service*>& admitted,
                             double time);
  std::uint64_t instance_failure(ServiceId service, InstanceId instance,
                                 double time);
  std::uint64_t cloudlet_outage(graph::NodeId v, double time);
  std::uint64_t repair(graph::NodeId v, double time);
  std::uint64_t teardown(ServiceId service, double time);
  /// Thin re-invocation record: replay calls Controller::reconcile(time).
  std::uint64_t reconcile_mark(double time);

 private:
  /// Writes + flushes the pending buffer; hosts the torn_write fault point.
  void flush_pending();

  std::string path_;
  std::ofstream out_;
  std::uint64_t next_seq_ = 0;
  bool wedged_ = false;
  Durability durability_;
  /// Concatenated frames awaiting a physical write, plus each frame's
  /// start offset (for the mid-group torn-write cut).
  std::string pending_;
  std::vector<std::size_t> pending_frames_;
  /// Reusable serialization buffer for one record payload (append()).
  std::string payload_scratch_;
};

// --- record payload writers ---
//
// Each typed writer above is `append(kind, time, make_*_record(...))`. The
// payload writers are exposed separately for the streaming service
// (orchestrator/streaming.h), whose pipelined commit SPLITS capture from
// persistence: payloads read live orchestrator state (residuals, id
// counters), so they must be captured on the pipeline thread at
// window-close time, while the serial append happens later on the commit
// thread. A writer serializes the state once, into the payload's final
// compact text held as an io::Json::raw value (no tree; a snapshot's
// network and catalog still go through io::to_json): a pure value that
// appending afterwards copies and never re-reads orchestrator state for.

/// Payload of a `snapshot` record: full deployment + controller state.
[[nodiscard]] io::Json make_snapshot_record(const Orchestrator& orch,
                                            const Controller& controller);
/// Payload of an `admit` record for one committed service.
[[nodiscard]] io::Json make_admit_record(const Orchestrator& orch,
                                         const Service& svc);
/// Payload of a `batch` record: the admitted services verbatim plus
/// post-batch id counters and touched residuals.
[[nodiscard]] io::Json make_batch_record(
    const Orchestrator& orch, const std::vector<const Service*>& admitted);
/// Payload of a `teardown` record.
[[nodiscard]] io::Json make_teardown_record(ServiceId service);

/// One decoded record: the envelope fields plus the parsed "data" member.
struct JournalRecord {
  std::uint64_t seq = 0;
  double time = 0.0;
  std::string kind;
  io::Json body;

  [[nodiscard]] const io::Json& data() const { return body; }
};

struct JournalScan {
  std::vector<JournalRecord> records;
  /// A trailing partial/torn frame was dropped (crash mid-append).
  bool torn_tail = false;
  /// File offset just past the last complete record (where kContinue
  /// resumes writing).
  std::uint64_t bytes_used = 0;
};

/// Decodes every complete record of the file, parsing every record's data
/// (for tests and tools; recover() parses only from the last snapshot on).
/// Tolerates a torn tail; throws util::CheckFailure on mid-file corruption,
/// a bad sequence chain, a malformed envelope or data, or an unsupported
/// format version. A missing or empty file scans to zero records (recover()
/// is the layer that demands a snapshot).
[[nodiscard]] JournalScan scan_journal(const std::string& path);

struct RecoverOptions {
  /// Must match the crashed process's options: the journal records state,
  /// not configuration. `orchestrator.algorithm` is used by replayed
  /// reconcile passes.
  OrchestratorOptions orchestrator;
  ControllerOptions controller;
};

struct Recovered {
  /// The rebuilt pair; `controller` holds a reference into `orch`.
  std::unique_ptr<Orchestrator> orch;
  std::unique_ptr<Controller> controller;
  /// Events replayed after the snapshot (mirrored to the obs counter
  /// `journal.replayed_events`).
  std::size_t replayed_events = 0;
  bool torn_tail = false;
  /// Time and sequence number of the last applied record.
  double last_time = 0.0;
  std::uint64_t last_seq = 0;
};

/// Rebuilds the orchestrator + controller from the LAST snapshot record
/// plus every record after it. Every frame's framing and envelope is
/// checked; JSON is parsed only from that snapshot on. Throws
/// util::CheckFailure when the journal has no snapshot or is corrupt
/// mid-file.
[[nodiscard]] Recovered recover(const std::string& path,
                                const RecoverOptions& options);

}  // namespace mecra::orchestrator
