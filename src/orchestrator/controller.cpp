#include "orchestrator/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mecra::orchestrator {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Batched mirror of ControllerMetrics deltas onto the global registry,
/// recorded once per reconcile() (see Controller::reconcile).
void record_reconcile(const ControllerMetrics& before,
                      const ControllerMetrics& after) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& reconciles = reg.counter("controller.reconciles");
  static obs::Counter& repairs = reg.counter("controller.repairs");
  static obs::Counter& attempts = reg.counter("controller.reaugment_attempts");
  static obs::Counter& successes =
      reg.counter("controller.reaugment_successes");
  static obs::Counter& failures = reg.counter("controller.reaugment_failures");
  static obs::Counter& standbys = reg.counter("controller.standbys_added");
  static obs::Counter& revivals = reg.counter("controller.revivals");
  reconciles.add(1);
  repairs.add(after.repairs - before.repairs);
  attempts.add(after.reaugment_attempts - before.reaugment_attempts);
  successes.add(after.reaugment_successes - before.reaugment_successes);
  failures.add(after.reaugment_failures - before.reaugment_failures);
  standbys.add(after.standbys_added - before.standbys_added);
  revivals.add(after.revivals - before.revivals);
}

}  // namespace

Controller::Controller(Orchestrator& orch, ControllerOptions options)
    : orch_(orch), options_(options), next_batch_(options.period) {
  // Every knob must be finite: an Inf/NaN factor or cap would poison the
  // backoff arithmetic (gates at +inf never fire) and the saturation test
  // in attempt() divides by backoff_factor.
  MECRA_CHECK(std::isfinite(options_.period) && options_.period > 0.0);
  MECRA_CHECK(std::isfinite(options_.backoff_initial) &&
              options_.backoff_initial > 0.0);
  MECRA_CHECK(std::isfinite(options_.backoff_factor) &&
              options_.backoff_factor >= 1.0);
  MECRA_CHECK(std::isfinite(options_.backoff_max) &&
              options_.backoff_max >= options_.backoff_initial);
  MECRA_CHECK(std::isfinite(options_.mttr) && options_.mttr >= 0.0);
}

void Controller::on_admit(ServiceId id, double now) {
  const Service& svc = orch_.service(id);
  TrackedService tracked;
  // Admission may come up short when capacity is scarce; such services are
  // dirty from birth and get topped up as capacity frees.
  tracked.dirty = svc.state == ServiceState::kDown ||
                  svc.current_reliability(orch_.catalog()) <
                      svc.request.expectation;
  tracked.not_before = now;
  tracked_[id] = tracked;
}

void Controller::on_teardown(ServiceId id) { tracked_.erase(id); }

void Controller::on_instance_failed(ServiceId id, double /*now*/) {
  const auto it = tracked_.find(id);
  if (it != tracked_.end()) it->second.dirty = true;
}

void Controller::on_cloudlet_failed(graph::NodeId v, double now) {
  repair_queue_.emplace(now + options_.mttr, v);
  // The controller does not know which services had instances at v; mark
  // everything dirty and let attempt() clear the healthy ones cheaply.
  for (auto& [id, tracked] : tracked_) tracked.dirty = true;
}

double Controller::next_wakeup() const {
  double wake = kInf;
  if (!repair_queue_.empty()) {
    wake = std::min(wake, repair_queue_.begin()->first);
  }
  bool any_dirty = false;
  double earliest_gate = kInf;
  for (const auto& [id, tracked] : tracked_) {
    if (!tracked.dirty) continue;
    any_dirty = true;
    earliest_gate = std::min(earliest_gate, tracked.not_before);
  }
  if (any_dirty) {
    switch (options_.policy) {
      case ReaugmentPolicy::kReactive:
        break;  // acts on every reconcile; no self-scheduled wakeup
      case ReaugmentPolicy::kPeriodic:
        wake = std::min(wake, next_batch_);
        break;
      case ReaugmentPolicy::kBackoff:
        // Gates at or before "now" fire on the next reconcile anyway; only
        // future gates need a wakeup.
        if (earliest_gate > last_now_) wake = std::min(wake, earliest_gate);
        break;
    }
  }
  return wake;
}

void Controller::attempt(ServiceId id, TrackedService& tracked, double now,
                         ReconcileReport& report) {
  const Service& svc = orch_.service(id);
  const double rho = svc.request.expectation;
  if (svc.state != ServiceState::kDown &&
      svc.current_reliability(orch_.catalog()) >= rho) {
    tracked.dirty = false;
    tracked.backoff = 0.0;
    return;  // healthy; not an attempt
  }

  ++metrics_.reaugment_attempts;
  ++report.attempts;
  if (svc.state == ServiceState::kDown && options_.revive_down_services) {
    if (orch_.revive(id)) {
      ++metrics_.revivals;
      ++report.revived;
    }
  }
  if (orch_.service(id).state != ServiceState::kDown) {
    const std::size_t added = orch_.reaugment(id);
    metrics_.standbys_added += added;
    report.standbys_added += added;
  }

  const Service& after = orch_.service(id);
  const bool met = after.state != ServiceState::kDown &&
                   after.current_reliability(orch_.catalog()) >= rho;
  if (met) {
    ++metrics_.reaugment_successes;
    tracked.dirty = false;
    tracked.backoff = 0.0;
    return;
  }
  ++metrics_.reaugment_failures;
  if (options_.policy == ReaugmentPolicy::kBackoff) {
    if (tracked.backoff == 0.0) {
      tracked.backoff = options_.backoff_initial;
    } else if (tracked.backoff >=
               options_.backoff_max / options_.backoff_factor) {
      // Saturate without computing the product: thousands of consecutive
      // failures must land exactly on backoff_max, never overflow past it.
      tracked.backoff = options_.backoff_max;
    } else {
      tracked.backoff *= options_.backoff_factor;
    }
    tracked.not_before = now + tracked.backoff;
  }
}

ControllerState Controller::state() const {
  ControllerState state;
  state.tracked.reserve(tracked_.size());
  for (const auto& [id, tracked] : tracked_) {
    state.tracked.push_back(
        {id, tracked.dirty, tracked.not_before, tracked.backoff});
  }
  state.repair_queue.assign(repair_queue_.begin(), repair_queue_.end());
  state.next_batch = next_batch_;
  state.last_now = last_now_;
  state.metrics = metrics_;
  return state;
}

void Controller::restore(const ControllerState& state) {
  tracked_.clear();
  for (const auto& entry : state.tracked) {
    tracked_[entry.service] =
        TrackedService{entry.dirty, entry.not_before, entry.backoff};
  }
  repair_queue_.clear();
  for (const auto& [due, v] : state.repair_queue) repair_queue_.emplace(due, v);
  next_batch_ = state.next_batch;
  last_now_ = state.last_now;
  metrics_ = state.metrics;
}

ReconcileReport Controller::reconcile(double now) {
  MECRA_CHECK_MSG(now >= last_now_, "reconcile time moved backwards");
  last_now_ = now;
  ReconcileReport report;
  obs::TraceSpan span("controller.reconcile");
  const ControllerMetrics before = metrics_;

  // Due repairs first: they free capacity the policy pass can use.
  while (!repair_queue_.empty() && repair_queue_.begin()->first <= now) {
    const graph::NodeId v = repair_queue_.begin()->second;
    repair_queue_.erase(repair_queue_.begin());
    orch_.repair_cloudlet(v);
    ++metrics_.repairs;
    report.repaired.push_back(v);
  }
  if (!report.repaired.empty()) {
    // Fresh capacity invalidates every backoff decision.
    std::size_t gates_reset = 0;
    for (auto& [id, tracked] : tracked_) {
      tracked.dirty = true;
      if (tracked.backoff != 0.0) ++gates_reset;
      tracked.backoff = 0.0;
      tracked.not_before = now;
    }
    if (gates_reset > 0 && obs::enabled()) {
      static obs::Counter& resets =
          obs::MetricsRegistry::global().counter("controller.backoff_resets");
      resets.add(gates_reset);
    }
  }

  if (options_.policy == ReaugmentPolicy::kPeriodic) {
    if (now < next_batch_) {
      record_reconcile(before, metrics_);
      return report;
    }
    while (next_batch_ <= now) next_batch_ += options_.period;
  }

  // Eligible dirty services, ascending service id (map order).
  for (auto& [id, tracked] : tracked_) {
    if (!tracked.dirty) continue;
    if (options_.policy == ReaugmentPolicy::kBackoff &&
        now < tracked.not_before) {
      continue;
    }
    attempt(id, tracked, now, report);
  }
  span.attr("attempts", static_cast<double>(report.attempts));
  span.attr("repaired", static_cast<double>(report.repaired.size()));
  record_reconcile(before, metrics_);
  return report;
}

}  // namespace mecra::orchestrator
