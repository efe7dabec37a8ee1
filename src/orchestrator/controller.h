// Self-healing reconciler on top of the Orchestrator.
//
// The Orchestrator exposes mechanism (fail / repair / reaugment / revive);
// this module supplies policy: a driver (the chaos simulator, an operator
// shell, a live control plane) notifies the controller of events in
// simulated or wall-clock time, and reconcile(now) restores every tracked
// service toward its reliability expectation. Three reaugmentation
// policies:
//
//   * kReactive  — attempt a top-up for every below-expectation service at
//                  every reconcile call (lowest downtime, most attempts);
//   * kPeriodic  — batch attempts at fixed period boundaries (amortizes
//                  solver work under heavy failure churn);
//   * kBackoff   — like reactive, but a service whose attempt FAILED to
//                  restore the expectation is gated behind an exponential
//                  backoff (initial * factor^n, capped), so hopeless
//                  services (no capacity until something departs or a
//                  repair lands) stop consuming solver time. Repairs reset
//                  every gate, because fresh capacity changes the odds.
//
// Cloudlet outages are healed with a configurable MTTR: on_cloudlet_failed
// schedules a repair at now + mttr, performed by the first reconcile at or
// after that time. next_wakeup() tells drivers when scheduled work (a
// repair, a batch boundary, a backoff retry) is due, so event loops can
// merge it with their own event stream.
//
// Thread safety: a Controller is owned by ONE driver thread; none of its
// members may be called concurrently. Like the orchestrator it wraps, that
// driver is the caller's thread in batch programs and the internal
// pipeline thread of orchestrator::StreamingService in streaming ones —
// the streaming service routes every on_admit/on_teardown call through its
// window-close path, so external code never calls the controller directly
// while a stream is running. reconcile() has one path: it checks the
// eligible dirty services in ascending service id, reviving and topping
// up each in turn on the driver thread, whether or not admit_batch ever
// ran. Whole simulations may still run in parallel, one orchestrator +
// controller pair each. The obs counters reconcile() emits (controller.*)
// are safe from any thread.
//
// Lock discipline: the controller deliberately owns NO mutex — its
// tracking tables (tracked_, repair_queue_, metrics_) are driver-thread-
// only. Anything that would make these fields cross-thread must move them
// onto util::Mutex with MECRA_GUARDED_BY (util/thread_annotations.h) so the
// clang -Wthread-safety build enforces the new protocol.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "orchestrator/orchestrator.h"

namespace mecra::orchestrator {

enum class ReaugmentPolicy : std::uint8_t { kReactive, kPeriodic, kBackoff };

struct ControllerOptions {
  ReaugmentPolicy policy = ReaugmentPolicy::kReactive;
  /// kPeriodic: batch boundary spacing (first batch at t = period).
  double period = 5.0;
  /// kBackoff: gate after the n-th consecutive failed attempt is
  /// min(backoff_max, backoff_initial * backoff_factor^(n-1)).
  double backoff_initial = 1.0;
  double backoff_factor = 2.0;
  double backoff_max = 64.0;
  /// Delay between a cloudlet outage and its scheduled repair.
  double mttr = 10.0;
  /// Attempt revive() for kDown services before topping up.
  bool revive_down_services = true;
};

struct ControllerMetrics {
  std::size_t repairs = 0;
  std::size_t reaugment_attempts = 0;
  std::size_t reaugment_successes = 0;  // expectation restored
  std::size_t reaugment_failures = 0;   // still below after the attempt
  std::size_t standbys_added = 0;
  std::size_t revivals = 0;  // kDown services brought back up
};

/// What one reconcile() call actually did (for event traces).
struct ReconcileReport {
  std::vector<graph::NodeId> repaired;
  std::size_t attempts = 0;
  std::size_t standbys_added = 0;
  std::size_t revived = 0;
};

/// Snapshot of a Controller's mutable tracking state — serialized into
/// journal snapshots (orchestrator/journal.h) and restored into a freshly
/// constructed Controller during recovery. Options are not part of the
/// state: recovery constructs the controller with the original options.
struct ControllerState {
  struct Entry {
    ServiceId service = 0;
    bool dirty = false;
    double not_before = 0.0;
    double backoff = 0.0;
  };
  std::vector<Entry> tracked;                            // ascending service id
  std::vector<std::pair<double, graph::NodeId>> repair_queue;  // due-time order
  double next_batch = 0.0;
  double last_now = 0.0;
  ControllerMetrics metrics;
};

class Controller {
 public:
  /// The orchestrator must outlive the controller.
  explicit Controller(Orchestrator& orch, ControllerOptions options = {});

  // --- event notifications from the driver ---

  /// Starts tracking a newly admitted service (clean; nothing scheduled).
  /// `now` is the driver's current time, same clock as reconcile().
  void on_admit(ServiceId id, double now);
  /// Stops tracking a departed service; pending backoff state is dropped.
  void on_teardown(ServiceId id);
  /// Marks the service dirty so the next eligible reconcile() re-checks
  /// its reliability (promotion already happened inside the orchestrator).
  void on_instance_failed(ServiceId id, double now);
  /// Schedules the cloudlet's repair at now + mttr and marks every tracked
  /// service for a health check.
  void on_cloudlet_failed(graph::NodeId v, double now);

  /// Earliest time scheduled work (repair, batch boundary, backoff retry)
  /// is due; +infinity when nothing is scheduled.
  [[nodiscard]] double next_wakeup() const;

  /// Performs every repair due at `now` and runs the reaugmentation policy.
  /// `now` must not decrease across calls.
  ReconcileReport reconcile(double now);

  /// Cumulative counters since construction (never reset). The same
  /// deltas are mirrored to the global obs registry as `controller.*`
  /// counters by every reconcile() call.
  [[nodiscard]] const ControllerMetrics& metrics() const noexcept {
    return metrics_;
  }

  // --- journal recovery support (orchestrator/journal.h) ---

  /// Everything reconcile()/next_wakeup() depend on, in deterministic order.
  [[nodiscard]] ControllerState state() const;
  /// Replaces the tracking tables wholesale with a prior state() snapshot.
  void restore(const ControllerState& state);

 private:
  struct TrackedService {
    bool dirty = false;      // possibly below expectation; needs a check
    double not_before = 0.0; // kBackoff gate
    double backoff = 0.0;    // current gate width; 0 = no failed attempt yet
  };

  /// One service's health check + revive/top-up, counted into metrics_
  /// and `report`.
  void attempt(ServiceId id, TrackedService& tracked, double now,
               ReconcileReport& report);

  Orchestrator& orch_;
  ControllerOptions options_;
  ControllerMetrics metrics_;
  std::map<ServiceId, TrackedService> tracked_;
  std::multimap<double, graph::NodeId> repair_queue_;
  double next_batch_;  // kPeriodic only
  double last_now_ = 0.0;
};

}  // namespace mecra::orchestrator
