// Service lifecycle orchestrator.
//
// The paper's backup placement exists for a runtime story it never
// simulates: primaries are ACTIVE, secondaries are IDLE, and "the primary
// VNF instance communicates with its secondary VNF instances at pre-defined
// checking points" so that when a primary fails, a secondary takes over.
// This module implements that runtime: it owns the live network state and a
// set of running services, and processes events —
//
//   * admit(request)            admission + reliability augmentation;
//   * admit_batch(requests)     a whole arrival batch, partitioned by home
//                               shard and admitted concurrently (see the
//                               thread-safety notes below);
//   * fail_instance(...)        an instance dies; if it was the active one
//                               a secondary is promoted (nearest-first, the
//                               l-hop locality the paper motivates);
//   * fail_cloudlet(v)          correlated outage: every instance at v dies
//                               and v stops accepting placements;
//   * repair_cloudlet(v)        capacity returns (dead instances do not);
//   * reaugment(service)        top the backup level back up to the
//                               expectation after failures consumed it;
//   * revive(service)           place fresh actives for positions that lost
//                               every instance (a DOWN service recovers);
//   * teardown(service)         release everything.
//
// Failed instances keep their capacity reserved until repaired or torn
// down (a failed VM still occupies its slot until cleaned up); repairing a
// cloudlet reclaims the slots of its dead instances. A cloudlet between
// fail_cloudlet and repair_cloudlet is DOWN: admit, reaugment, and revive
// all refuse to place new instances on it.
//
// One admission procedure. admit(), admit_batch's shard phase, and its
// border pass all decide a request through the same private kernel
// (admit_within): random primaries over a candidate cloudlet list (Sec.
// 7.1), the BMCGAP over N_l^+ of each primary (Sec. 4.2, candidates from
// MecNetwork::cloudlets_within), the configured algorithm (Algorithm 2 by
// default), validate, apply, then the standby instances. The callers
// differ only in the candidate list (every cloudlet, or one shard's
// interior), the RNG stream, the model arena, and when ids are numbered.
//
// Thread safety — the sharded model. Mutating entry points (admit,
// admit_batch, fail_*, repair_cloudlet, reaugment, revive, teardown) must
// be called from ONE driver thread at a time; the orchestrator is not a
// free-threaded object. In a batch program that driver is the caller's
// thread; under orchestrator::StreamingService (streaming.h) the service's
// internal pipeline thread takes the driver role for the stream's lifetime
// and callers interact only through the lock-free event queue. Inside
// admit_batch the orchestrator fans the shard phase out to its own thread
// pool, and safety there rests on shard ownership rather than locks: the
// ShardMap partitions cloudlets into regions such that every l-hop backup
// neighbourhood of an INTERIOR cloudlet stays inside its own shard, each
// worker serves exactly one shard, and therefore no two workers ever
// touch the same cloudlet's residual or the same service. Requests that
// cannot be confined to one shard's interior take the serial border pass
// under `batch_mutex_` after the workers join. Border cloudlets additionally carry atomic debit
// counters that a post-join conservation audit checks, so a violated
// ownership invariant fails fast instead of corrupting capacities.
// Driver-thread-only regardless of sharding: everything that reshapes the
// service table or the down set (admit, fail_*, repair_cloudlet, teardown)
// and all non-const accessors. The obs instruments recorded throughout
// (admission.*, batch.*, shard.*) are safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/augmentation.h"
#include "core/bmcgap_arena.h"
#include "mec/network.h"
#include "mec/request.h"
#include "mec/shard_map.h"
#include "mec/vnf.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace mecra::orchestrator {

using ServiceId = std::uint64_t;
using InstanceId = std::uint64_t;

enum class InstanceRole : std::uint8_t { kActive, kStandby };
enum class InstanceState : std::uint8_t { kRunning, kFailed };

struct Instance {
  InstanceId id = 0;
  std::uint32_t chain_pos = 0;
  graph::NodeId cloudlet = 0;
  InstanceRole role = InstanceRole::kStandby;
  InstanceState state = InstanceState::kRunning;
};

enum class ServiceState : std::uint8_t {
  kHealthy,   // every position has a running active instance
  kDegraded,  // running, but some position lost redundancy below plan
  kDown,      // some position has no running instance at all
};

struct Service {
  ServiceId id = 0;
  mec::SfcRequest request;
  std::vector<Instance> instances;
  ServiceState state = ServiceState::kDown;

  /// Running instances (any role) serving `chain_pos`.
  [[nodiscard]] std::size_t running_at(std::uint32_t chain_pos) const;
  /// Current Eq. (1) reliability given only the RUNNING instances.
  [[nodiscard]] double current_reliability(const mec::VnfCatalog& catalog) const;
};

/// Knobs for the sharded batch-admission engine (admit_batch).
struct BatchOptions {
  /// Worker threads for the shard phase; 0 or 1 runs shards inline on the
  /// driver thread. Results are bit-identical for every value (asserted
  /// in tests) — threads only change wall-clock time.
  std::size_t threads = 1;
  /// Keep the per-request (instance, result) pairs of the last batch in
  /// last_batch_audit() so tests can re-run core::validate on them.
  bool record_audit = false;
};

struct OrchestratorOptions {
  std::uint32_t l_hops = 1;
  core::AugmentOptions augment;
  /// Algorithm used for (re-)augmentation; empty = matching heuristic.
  std::function<core::AugmentationResult(const core::BmcgapInstance&,
                                         const core::AugmentOptions&)>
      algorithm;
  BatchOptions batch;
};

/// Everything admit_batch decided for one batch, kept only when
/// BatchOptions::record_audit is set. Entries cover ADMITTED requests,
/// ascending request index.
struct BatchAudit {
  struct Entry {
    std::size_t request_index = 0;
    /// Home shard the request was bucketed into.
    std::size_t shard = 0;
    /// True when the request left the parallel phase and was admitted by
    /// the serial whole-network fallback pass.
    bool via_fallback = false;
    core::BmcgapInstance instance;
    core::AugmentationResult result;
  };
  std::vector<Entry> entries;
  std::size_t parallel_admitted = 0;
  std::size_t fallback_admitted = 0;
  std::size_t rejected = 0;
  /// Requests routed to the serial fallback pass because their shard
  /// worker faulted (graceful degradation; mirrored to `admit.degraded`).
  std::size_t degraded = 0;
};

class Orchestrator {
 public:
  Orchestrator(mec::MecNetwork network, mec::VnfCatalog catalog,
               OrchestratorOptions options = {});

  [[nodiscard]] const mec::MecNetwork& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const mec::VnfCatalog& catalog() const noexcept {
    return catalog_;
  }

  /// Admits and augments a request over every cloudlet; primaries become
  /// active instances, placed backups standby. Returns nullopt when
  /// admission fails.
  std::optional<ServiceId> admit(const mec::SfcRequest& request,
                                 util::Rng& rng);

  /// Admits a whole arrival batch, sharded: requests are bucketed by the
  /// home shard of their source AP and admitted concurrently, one worker
  /// per shard, with primaries confined to the shard's INTERIOR cloudlets
  /// (so every backup candidate stays inside the shard — no cross-shard
  /// capacity writes). Requests whose shard attempt finds no interior
  /// capacity retry serially against the whole network after the workers
  /// join (the border/fallback pass, under `batch_mutex_`): the same call
  /// admit() makes, on the request's own derived stream. Returns one slot
  /// per input request, in order.
  ///
  /// Deterministic: one draw from `rng` salts the batch; request i then
  /// uses its own derived stream (util::derive_seed), so placements and
  /// instance ids are bit-identical for any BatchOptions::threads value.
  std::vector<std::optional<ServiceId>> admit_batch(
      const std::vector<mec::SfcRequest>& requests, util::Rng& rng);

  /// The region partition admit_batch uses, built lazily from the network
  /// and OrchestratorOptions::l_hops on first use.
  [[nodiscard]] const mec::ShardMap& shard_map();
  /// True once shard_map() has been built (admit_batch was used). Journal
  /// snapshots record it (orchestrator/journal.h).
  [[nodiscard]] bool has_shard_map() const noexcept {
    return shard_map_ != nullptr;
  }
  /// The batch worker pool; nullptr while batch.threads <= 1. Built
  /// lazily alongside the first sharded batch.
  [[nodiscard]] util::ThreadPool* batch_pool();

  /// Audit of the most recent admit_batch (empty unless
  /// BatchOptions::record_audit was set).
  [[nodiscard]] const BatchAudit& last_batch_audit() const noexcept {
    return batch_audit_;
  }

  [[nodiscard]] const Service& service(ServiceId id) const;
  /// True while `id` names a live (not yet torn down) service. The
  /// streaming service uses this to tolerate departure events for
  /// services that already left (double teardown, raced re-admission).
  [[nodiscard]] bool has_service(ServiceId id) const noexcept {
    return services_.find(id) != services_.end();
  }
  [[nodiscard]] std::vector<ServiceId> services() const;

  /// Kills one instance. If it was active and a standby for the same
  /// position is running, the standby closest (in hops) to the failed
  /// instance's cloudlet is promoted; returns the promoted instance id.
  std::optional<InstanceId> fail_instance(ServiceId service, InstanceId inst);

  /// Kills every running instance hosted at `v` (across all services) and
  /// performs the same promotion logic per affected position. Capacity at
  /// v stays reserved until repair_cloudlet, and v refuses new placements
  /// until then. Requires that v is not already down.
  void fail_cloudlet(graph::NodeId v);

  /// Reclaims the capacity held by FAILED instances at v (they are removed
  /// from their services) and marks v as up again. Running instances are
  /// untouched. Also valid for cloudlets that never went down (reclaims
  /// slots of individually failed instances).
  void repair_cloudlet(graph::NodeId v);

  /// True between fail_cloudlet(v) and repair_cloudlet(v).
  [[nodiscard]] bool is_cloudlet_down(graph::NodeId v) const;
  /// Currently-down cloudlets, ascending node id.
  [[nodiscard]] std::vector<graph::NodeId> down_cloudlets() const;

  /// Places fresh standby instances until the service's CURRENT reliability
  /// reaches its expectation again (or capacity runs out). Candidates are
  /// N_l^+ of each position's current active (MecNetwork::
  /// cloudlets_within). Returns the number of standbys added. Down
  /// cloudlets are never chosen.
  std::size_t reaugment(ServiceId service);

  /// Brings a kDown service back: every position with no running instance
  /// gets a fresh ACTIVE instance on the up cloudlet with the largest
  /// residual that fits (ties: lowest node id); positions with running
  /// standbys but no active get a promotion. Positions that cannot be
  /// placed stay down. Returns true when the service left kDown. Callers
  /// typically follow up with reaugment() to restore redundancy.
  bool revive(ServiceId service);

  /// Releases every slot (running or failed) of the service.
  void teardown(ServiceId service);

  /// Recomputes and returns the service state (also stored on the service).
  ServiceState refresh_state(ServiceId service);

  // --- journal recovery support (orchestrator/journal.h; driver thread) ---

  /// Next ids admit/reaugment will assign (journaled in snapshots).
  [[nodiscard]] ServiceId next_service_id() const noexcept {
    return next_service_;
  }
  [[nodiscard]] InstanceId next_instance_id() const noexcept {
    return next_instance_;
  }

  /// Installs a fully-formed service verbatim. Journal recovery passes
  /// false — snapshot restore and admit/batch effect replay both install
  /// recorded residuals directly (bit-exact; see journal.h) — but callers
  /// without a residual record can pass true to debit the instances'
  /// slots arithmetically. Id counters are advanced past installed ids.
  void restore_service(Service svc, bool consume_capacity);

  /// Installs a journaled residual value verbatim (admit/batch effect
  /// replay; exact regardless of the live run's consume order).
  void restore_residual(graph::NodeId v, double value) {
    network_.set_residual(v, value);
  }

  /// Marks v down without failing instances (snapshot restore; the
  /// instance states arrive via restore_service).
  void restore_down_cloudlet(graph::NodeId v);

  /// Fast-forwards the id counters to a snapshot's values (they may exceed
  /// every live id when services departed). Counters never move backwards.
  void set_id_counters(ServiceId next_service, InstanceId next_instance);

  /// Builds the shard map now if it does not exist yet — recovery of a
  /// state whose original had one, so later snapshots record
  /// has_shard_map() as the original run would have.
  void ensure_shard_map() { (void)shard_map(); }

 private:
  /// Zeroes the residual of every down cloudlet for its lifetime so the
  /// admission/augmentation paths (which only see residual capacities)
  /// cannot place anything there; restores the held residual on exit.
  class DownMask {
   public:
    explicit DownMask(Orchestrator& orch);
    ~DownMask();
    DownMask(const DownMask&) = delete;
    DownMask& operator=(const DownMask&) = delete;

   private:
    Orchestrator& orch_;
    std::vector<std::pair<graph::NodeId, double>> held_;
  };

  /// Sentinel id carried by instances staged inside admit_batch until its
  /// commit phase numbers them.
  static constexpr InstanceId kPendingInstanceId =
      ~static_cast<InstanceId>(0);

  /// One request's staged outcome inside admit_batch, before commit.
  struct StagedAdmission {
    bool admitted = false;
    bool via_fallback = false;
    /// The shard worker faulted on (or before reaching) this request; it
    /// is drained to the serial fallback pass (see admit_in_shard).
    bool faulted = false;
    std::size_t shard = 0;
    Service svc;  // instance ids are kPendingInstanceId until commit
    core::BmcgapInstance instance;
    core::AugmentationResult result;
  };

  Service& service_mut(ServiceId id);
  void promote_for_position(Service& svc, std::uint32_t chain_pos,
                            graph::NodeId failed_at);
  /// The admission kernel (see the file comment): primaries drawn from
  /// `candidates` with `rng`, the model from `arena`, then the configured
  /// algorithm, validate, apply_placements, and the standby instances.
  /// Returns the admitted service WITHOUT registering it, or nullopt with
  /// nothing consumed. `number_ids` numbers the service and its instances
  /// from the live counters as they are created; otherwise every id stays
  /// kPendingInstanceId (service id 0) for admit_batch's commit phase.
  /// When `audit` is set it receives the instance and result. If anything
  /// after the primary placement throws, the primaries' capacity is
  /// released before the exception propagates.
  std::optional<Service> admit_within(
      const mec::SfcRequest& request,
      const std::vector<graph::NodeId>& candidates, util::Rng& rng,
      core::BmcgapArena& arena, bool number_ids, StagedAdmission* audit);
  /// Shard phase for request `index` (worker threads): admit_within over
  /// the shard's interior cloudlets with the shard's arena; the request
  /// falls back by leaving `staged.admitted` false.
  void admit_in_shard(const mec::SfcRequest& request, std::size_t shard,
                      std::uint64_t batch_salt, std::size_t index,
                      StagedAdmission& staged);
  /// Records `amount` against v's atomic border-debit slot when v is a
  /// border cloudlet (conservation audit; see admit_batch).
  void note_border_debit(graph::NodeId v, double amount);

  /// Lazily-created model arenas (core/bmcgap_arena.h). The serial arena
  /// serves admit() and the batch border pass (both driver-thread, the
  /// border pass under batch_mutex_); shard arena `s` is touched only by
  /// the one worker serving shard s, so none of them needs a lock.
  core::BmcgapArena& serial_arena();
  core::BmcgapArena& shard_arena(std::size_t shard);

  mec::MecNetwork network_;
  mec::VnfCatalog catalog_;
  OrchestratorOptions options_;
  std::map<ServiceId, Service> services_;
  std::set<graph::NodeId> down_cloudlets_;
  ServiceId next_service_ = 0;
  InstanceId next_instance_ = 0;

  // --- sharded batch engine state (lazy; see admit_batch) ---
  std::unique_ptr<mec::ShardMap> shard_map_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// Serializes the border/fallback pass (the "fallback lock"): whole-
  /// network admission for requests the shard-confined phase could not
  /// place. It cannot GUARD `network_` — workers legitimately write
  /// shard-disjoint residuals without it — so the protected region is the
  /// pass itself, not a field; shard ownership plus the border-debit audit
  /// carry the rest of the proof (see the class comment).
  util::Mutex batch_mutex_;
  /// Per-node atomic debit counters, allocated for the whole node range;
  /// only border-cloudlet slots are ever written. After the parallel
  /// phase, residual(v) must equal its pre-batch snapshot minus this
  /// debit for every border cloudlet — a cheap runtime proof that no
  /// worker escaped its shard.
  std::unique_ptr<std::atomic<double>[]> border_debit_;
  BatchAudit batch_audit_;
  /// See serial_arena()/shard_arena(); shard_arenas_ is sized once when
  /// the shard map is built and its slots are filled lazily, each by the
  /// single worker that owns the shard.
  std::unique_ptr<core::BmcgapArena> serial_arena_;
  std::vector<std::unique_ptr<core::BmcgapArena>> shard_arenas_;
};

}  // namespace mecra::orchestrator
