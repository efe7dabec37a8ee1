#include "sim/simulate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/streaming.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace mecra::sim {

namespace {

using orchestrator::ServiceId;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Streams of the master seed, derive_seed(seed, n); see simulate.h.
enum Stream : std::uint64_t {
  kArrivalStream = 11,
  kRequestStream = 12,
  kHoldStream = 13,
  kAdmitStream = 14,
  kInstanceFailureStream = 15,
  kOutageStream = 16,
  kWindowStream = 17,
};

/// Peak arrival rate of the profile (the thinning envelope).
double peak_rate(const SimConfig& c) {
  if (c.profile == RateProfile::kBurst) {
    return c.arrival_rate * std::max(1.0, c.burst_factor);
  }
  if (c.profile == RateProfile::kDiurnal) {
    return c.arrival_rate * (1.0 + c.diurnal_amplitude);
  }
  return c.arrival_rate;
}

/// Instantaneous arrival rate lambda(t).
double rate_at(const SimConfig& c, double t) {
  if (c.profile == RateProfile::kBurst) {
    return std::fmod(t, c.burst_period) < c.burst_duty * c.burst_period
               ? c.arrival_rate * c.burst_factor
               : c.arrival_rate;
  }
  if (c.profile == RateProfile::kDiurnal) {
    return c.arrival_rate *
           (1.0 + c.diurnal_amplitude *
                      std::sin(2.0 * std::acos(-1.0) * t / c.diurnal_period));
  }
  return c.arrival_rate;
}

/// Next event of a Poisson process of `rate` after `now` (never at rate 0).
double next_poisson(util::Rng& rng, double rate, double now) {
  return rate > 0.0 ? now + rng.exponential(1.0 / rate) : kInf;
}

/// Uniform [0, 1) and exponential draws from a derived seed (stateless).
double unit_draw(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<double>(util::derive_seed(seed, stream) >> 11) *
         0x1.0p-53;
}

double exp_draw(std::uint64_t seed, std::uint64_t stream, double mean) {
  return -mean * std::log(1.0 - unit_draw(seed, stream));
}

/// The scheduled end of an admitted incarnation: a departure, or a
/// re-admission of the same request.
struct Expiry {
  double time = 0.0;
  ServiceId service = 0;
  std::uint64_t ticket = 0;  ///< the arrival's ticket, kept across re-admits
  bool readmit = false;
};

/// Min-heap order with a deterministic tie-break (service id).
struct ExpiresLater {
  bool operator()(const Expiry& a, const Expiry& b) const {
    return std::tie(a.time, a.service) > std::tie(b.time, b.service);
  }
};
using ExpiryQueue =
    std::priority_queue<Expiry, std::vector<Expiry>, ExpiresLater>;

/// The workload source of every mode (see simulate.h).
class Workload {
 public:
  Workload(const SimConfig& config, const mec::VnfCatalog& catalog,
           std::size_t num_nodes, std::uint64_t seed)
      : config_(config), catalog_(catalog), num_nodes_(num_nodes),
        arrival_rng_(util::derive_seed(seed, kArrivalStream)),
        request_rng_(util::derive_seed(seed, kRequestStream)),
        hold_seed_(util::derive_seed(seed, kHoldStream)) {
    advance();
  }

  /// Time of the next arrival; +infinity once the horizon is reached.
  [[nodiscard]] double next_time() const noexcept { return next_time_; }

  Arrival pop() {
    MECRA_CHECK(next_time_ < kInf);
    Arrival a{next_ticket_, next_time_,
              mec::random_request(next_ticket_, catalog_, num_nodes_,
                                  config_.request, request_rng_)};
    ++next_ticket_;
    advance();
    return a;
  }

  /// End of the incarnation of `ticket` admitted as `service` at `now`;
  /// `readmitted` selects the second incarnation, which always departs.
  /// Stateless, so safe from any thread.
  [[nodiscard]] Expiry expiry(ServiceId service, std::uint64_t ticket,
                              double now, bool readmitted) const {
    Expiry e{.time = now, .service = service, .ticket = ticket};
    const double mean = config_.mean_holding_time;
    if (readmitted) {
      e.time += exp_draw(hold_seed_, ticket * 3 + 2, mean);
    } else {
      e.time += exp_draw(hold_seed_, ticket * 3, mean);
      e.readmit =
          unit_draw(hold_seed_, ticket * 3 + 1) < config_.readmit_fraction;
    }
    return e;
  }

 private:
  /// Next accepted candidate under Poisson thinning at the peak rate.
  void advance() {
    do {
      next_time_ += arrival_rng_.exponential(1.0 / peak_);
      if (next_time_ >= config_.horizon) {
        next_time_ = kInf;
        return;
      }
    } while (arrival_rng_.uniform01() >= rate_at(config_, next_time_) / peak_);
  }

  const SimConfig& config_;
  const mec::VnfCatalog& catalog_;
  std::size_t num_nodes_;
  util::Rng arrival_rng_;
  util::Rng request_rng_;
  std::uint64_t hold_seed_;
  double peak_ = peak_rate(config_);
  double next_time_ = 0.0;
  std::uint64_t next_ticket_ = 0;
};

/// End of the last grid cell [k*W, (k+1)*W) that starts before the
/// horizon: where the windowed modes' final window closes.
double grid_end(const SimConfig& config) {
  std::uint64_t cells = 0;
  while (static_cast<double>(cells) * config.window_width < config.horizon) {
    ++cells;
  }
  return static_cast<double>(cells) * config.window_width;
}

/// Records the end state, then drains it at time `t`: every live service
/// is torn down and every down cloudlet repaired, journaled like any other
/// event.
void finish(SimReport& r, orchestrator::Orchestrator& orch,
            orchestrator::Journal* journal, double t) {
  r.live_services = orch.services().size();
  r.end_total_residual = orch.network().total_residual();
  for (const ServiceId id : orch.services()) {
    if (journal != nullptr) (void)journal->teardown(id, t);
    orch.teardown(id);
  }
  for (const graph::NodeId v : orch.down_cloudlets()) {
    if (journal != nullptr) (void)journal->repair(v, t);
    orch.repair_cloudlet(v);
  }
  r.final_total_residual = orch.network().total_residual();
  if (journal != nullptr) {
    journal->flush();
    r.journal_records = journal->next_seq();
  }
  if (r.admitted > 0) {
    r.mean_achieved_reliability /= static_cast<double>(r.admitted);
  }
  r.requests_per_second =
      r.wall_seconds > 0.0
          ? static_cast<double>(r.arrivals + r.readmits) / r.wall_seconds
          : 0.0;
}

/// Exports the run as the `sim.*` metric family: cumulative counters plus
/// point-in-time gauges (overwritten by the next run, so a sweep reports
/// its last point; reset the registry between runs to isolate).
void export_metrics(const SimReport& r) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("sim.arrivals").add(r.arrivals);
  reg.counter("sim.admitted").add(r.admitted);
  reg.counter("sim.rejected").add(r.rejected);
  reg.counter("sim.met_expectation").add(r.met_expectation);
  reg.counter("sim.windows").add(r.windows);
  reg.counter("sim.instance_failures").add(r.instance_failures);
  reg.counter("sim.cloudlet_outages").add(r.cloudlet_outages);
  reg.counter("sim.down_episodes").add(r.down_episodes);
  const double held = r.total_held_time;
  reg.gauge("sim.peak_utilization").set(r.peak_utilization);
  reg.gauge("sim.slo_attainment").set(r.slo_attainment);
  reg.gauge("sim.slo_violation_time").set(held > 0.0 ? held - r.slo_time : 0.0);
  reg.gauge("sim.degraded_fraction")
      .set(held > 0.0 ? r.degraded_time / held : 0.0);
  reg.gauge("sim.down_fraction").set(held > 0.0 ? r.down_time / held : 0.0);
  reg.gauge("sim.mean_time_to_recovery").set(r.mean_time_to_recovery);
}

/// Counts an admitted service toward met_expectation, with the tolerance
/// of AugmentationResult::expectation_met, and toward the reliability mean.
void count_admitted(SimReport& r, const orchestrator::Service& svc,
                    const mec::VnfCatalog& catalog) {
  const double reliability = svc.current_reliability(catalog);
  if (reliability >= svc.request.expectation - 1e-12) ++r.met_expectation;
  r.mean_achieved_reliability += reliability;  // averaged by finish()
}

/// Availability bookkeeping of a live service.
struct Tracked {
  double since = 0.0;  ///< availability integrated up to here
  bool is_down = false;
  double down_since = 0.0;
};

/// The open window of the windowed modes; kPooled keeps its events.
struct Window {
  bool open = false;
  double close = 0.0;
  std::vector<std::variant<Arrival, Expiry>> events;
};

}  // namespace

// The one event loop. kPerEvent and kPooled run everything on the caller's
// thread, with the optional layers; kStreaming walks the same windows but
// submits each window's events to the service, flushes at the close, and
// waits for the window's admission stage while its commit drains on the
// commit thread (the epoch pipeline).
SimReport simulate(const mec::MecNetwork& network,
                   const mec::VnfCatalog& catalog, const SimConfig& config,
                   std::uint64_t seed) {
  MECRA_CHECK(config.arrival_rate > 0.0);
  MECRA_CHECK(config.mean_holding_time > 0.0);
  MECRA_CHECK(config.horizon > 0.0);
  MECRA_CHECK(config.window_width > 0.0);
  MECRA_CHECK(config.instance_failure_rate >= 0.0 &&
              config.cloudlet_outage_rate >= 0.0);
  MECRA_CHECK_MSG(config.controller.has_value() ||
                      (config.instance_failure_rate == 0.0 &&
                       config.cloudlet_outage_rate == 0.0),
                  "fault injection needs the self-healing layer (controller)");
  MECRA_CHECK_MSG(config.crash_times.empty() || !config.journal_path.empty(),
                  "crash_times require a journal_path");
  MECRA_CHECK(std::is_sorted(config.crash_times.begin(),
                             config.crash_times.end()));
  obs::TraceSpan run_span("sim.run");
  const bool windowed = config.mode != AdmissionMode::kPerEvent;
  const bool streaming = config.mode == AdmissionMode::kStreaming;
  const bool healing = config.controller.has_value();
  MECRA_CHECK_MSG(!streaming || (!healing && config.crash_times.empty()),
                  "kStreaming runs neither the fault nor the crash layer");
  const orchestrator::ControllerOptions controller_options =
      config.controller.value_or(orchestrator::ControllerOptions{});
  const orchestrator::OrchestratorOptions orch_options{
      .l_hops = config.l_hops,
      .augment = config.augment,
      .algorithm = config.algorithm,
      .batch = {.threads = config.threads}};
  // unique_ptrs so a crash-restart drill can swap in the recovered pair.
  auto orch = std::make_unique<orchestrator::Orchestrator>(network, catalog,
                                                           orch_options);
  auto controller =
      std::make_unique<orchestrator::Controller>(*orch, controller_options);
  std::unique_ptr<orchestrator::Journal> journal;
  if (!config.journal_path.empty()) {
    journal = std::make_unique<orchestrator::Journal>(
        config.journal_path, orchestrator::Journal::Mode::kTruncate,
        config.durability);
    (void)journal->snapshot(*orch, *controller, 0.0);
    // The t = 0 snapshot is the recovery anchor: durable regardless of the
    // group-commit policy.
    journal->flush();
  }
  double next_snapshot = journal != nullptr && config.snapshot_period > 0.0
                             ? config.snapshot_period
                             : kInf;
  std::size_t next_crash = 0;

  Workload workload(config, catalog, network.num_nodes(), seed);
  util::Rng admit_rng(util::derive_seed(seed, kAdmitStream));
  util::Rng ifail_rng(util::derive_seed(seed, kInstanceFailureStream));
  util::Rng outage_rng(util::derive_seed(seed, kOutageStream));
  double next_ifail =
      next_poisson(ifail_rng, config.instance_failure_rate, 0.0);
  double next_outage =
      next_poisson(outage_rng, config.cloudlet_outage_rate, 0.0);
  // Base of the windowed modes' per-window admission streams.
  const std::uint64_t window_seed = util::derive_seed(seed, kWindowStream);
  std::uint64_t admission_windows = 0;
  // Lifecycle events of the windowed modes run to the last window's close.
  const double end = windowed ? grid_end(config) : config.horizon;

  SimReport r;
  ExpiryQueue due;
  std::map<ServiceId, Tracked> tracked;
  Window win;
  std::vector<double> call_seconds;
  double clock = 0.0;
  double util_integral = 0.0;
  double ttr_sum = 0.0;
  const double total_capacity = orch->network().total_capacity();
  MECRA_CHECK(total_capacity > 0.0);

  // kStreaming: the service owns orchestrator, controller and journal from
  // start() to stop(); its pipeline thread reports admitted services.
  util::Mutex mu;
  std::vector<Expiry> decided;  // guarded by mu
  std::optional<orchestrator::StreamingService> service;
  std::uint64_t flushes = 0;
  obs::Histogram* latency = nullptr;  // submit -> commit, cumulative
  obs::Histogram::Snapshot latency_before;
  if (streaming) {
    latency = &obs::MetricsRegistry::global().histogram(
        "stream.admit_latency_seconds");
    latency_before = latency->snapshot();
    orchestrator::StreamingOptions sopt;
    sopt.window_width = config.window_width;
    sopt.pipelined_commit = config.pipelined_commit;
    sopt.seed = window_seed;
    if (config.snapshot_period > 0.0) {
      sopt.snapshot_every_windows = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::llround(config.snapshot_period / config.window_width)));
    }
    sopt.on_decided =
        [&](const std::vector<orchestrator::StreamOutcome>& out) {
          util::LockGuard lock(mu);
          for (const orchestrator::StreamOutcome& o : out) {
            if (!o.admitted) continue;
            count_admitted(r, orch->service(o.service), catalog);
            decided.push_back(
                workload.expiry(o.service, o.ticket, o.time, o.readmit));
          }
        };
    service.emplace(*orch, std::move(sopt), controller.get(), journal.get());
    service->start();
  }

  auto record = [&](double t, SimEventKind kind, std::uint64_t subject) {
    if (config.record_trace) r.trace.push_back({t, kind, subject});
  };

  // Adds a live service's held / SLO / degraded / down time from its last
  // observation to t (clamped to the horizon), under the state it held
  // meanwhile.
  auto integrate = [&](ServiceId id, Tracked& acct, double t) {
    t = std::min(t, config.horizon);
    const double dt = t - acct.since;
    if (dt <= 0.0) return;
    acct.since = t;
    const orchestrator::Service& svc = orch->service(id);
    r.total_held_time += dt;
    if (svc.state == orchestrator::ServiceState::kDown) {
      r.down_time += dt;
      return;
    }
    if (svc.state == orchestrator::ServiceState::kDegraded) {
      r.degraded_time += dt;
    }
    if (svc.current_reliability(catalog) >= svc.request.expectation) {
      r.slo_time += dt;
    }
  };
  // Integrates utilization up to t (clamped to the horizon; not while the
  // service owns the state). A service's health changes only through
  // faults and healing, so without that layer each service is integrated
  // once, when it ends.
  auto observe = [&](double t) {
    t = std::min(t, config.horizon);
    const double dt = t - clock;
    if (dt <= 0.0 || streaming) return;
    clock = t;
    const double u = 1.0 - orch->network().total_residual() / total_capacity;
    util_integral += u * dt;
    r.peak_utilization = std::max(r.peak_utilization, u);
    if (!healing) return;
    for (auto& [id, acct] : tracked) integrate(id, acct, t);
  };

  // Down-episode bookkeeping after every step that can change health.
  auto note_transitions = [&](double now) {
    for (auto& [id, acct] : tracked) {
      const bool down =
          orch->service(id).state == orchestrator::ServiceState::kDown;
      if (down && !acct.is_down) {
        acct.is_down = true;
        acct.down_since = now;
        ++r.down_episodes;
      } else if (!down && acct.is_down) {
        acct.is_down = false;
        ++r.recovered_episodes;
        ttr_sum += now - acct.down_since;
      }
    }
  };

  // After every state-changing step: the self-healing pass, the group-
  // commit boundary, and periodic snapshots.
  auto settle = [&](double now) {
    if (healing) {
      // Every call is journaled, even a no-work one: it advances the
      // controller's last_now, which gates next_wakeup. Replay re-invokes
      // reconcile(now); its effects are deterministic in the state.
      if (journal != nullptr) (void)journal->reconcile_mark(now);
      const orchestrator::ReconcileReport rec = controller->reconcile(now);
      for (const graph::NodeId v : rec.repaired) {
        record(now, SimEventKind::kRepair, v);
      }
      if (rec.standbys_added > 0) {
        record(now, SimEventKind::kReaugment, rec.standbys_added);
      }
      if (rec.revived > 0) record(now, SimEventKind::kRevive, rec.revived);
      note_transitions(now);
    }
    if (journal == nullptr || streaming) return;
    if (now >= next_snapshot) {
      (void)journal->snapshot(*orch, *controller, now);
      while (next_snapshot <= now) next_snapshot += config.snapshot_period;
    }
    if (config.durability.policy ==
        orchestrator::Durability::Policy::kPerGroup) {
      journal->flush();
    }
  };

  // One admission decision at time t (the journal already holds it).
  auto decide = [&](std::optional<ServiceId> id, std::uint64_t ticket,
                    bool readmitted, double t) {
    if (!id.has_value()) {
      ++r.rejected;
      record(t, SimEventKind::kReject, ticket);
      return;
    }
    ++r.admitted;
    record(t, SimEventKind::kAdmit, *id);
    count_admitted(r, orch->service(*id), catalog);
    tracked.emplace(*id, Tracked{.since = t});
    controller->on_admit(*id, t);
    due.push(workload.expiry(*id, ticket, t, readmitted));
  };

  // kPerEvent admission of one request at its event time.
  auto admit = [&](const mec::SfcRequest& request, std::uint64_t ticket,
                   bool readmitted, double t) {
    const util::Timer call;
    const std::optional<ServiceId> id = orch->admit(request, admit_rng);
    call_seconds.push_back(call.elapsed_seconds());
    // Effect record before the admission becomes visible.
    if (id.has_value() && journal != nullptr) {
      (void)journal->admit(*orch, orch->service(*id), t);
    }
    decide(id, ticket, readmitted, t);
  };

  // Departure, or the teardown half of a re-admission. The teardown
  // record lands before the state change.
  auto end_incarnation = [&](const Expiry& e, double t) {
    record(t, SimEventKind::kDeparture, e.service);
    integrate(e.service, tracked.at(e.service), t);
    tracked.erase(e.service);
    if (journal != nullptr) (void)journal->teardown(e.service, t);
    orch->teardown(e.service);
    controller->on_teardown(e.service);
    ++(e.readmit ? r.readmits : r.departed);
  };

  // Window close. kPooled applies StreamingService's rules: lifecycle
  // first, then one admit_batch over the arrivals and re-admits in event
  // order.
  auto close_window = [&] {
    const double t = win.close;
    if (streaming) {
      service->flush(t);
      service->wait_flushes_processed(++flushes);
      util::LockGuard lock(mu);
      for (const Expiry& e : decided) due.push(e);
      decided.clear();
      win = Window{};
      return;
    }
    std::vector<mec::SfcRequest> requests;
    std::vector<std::pair<std::uint64_t, bool>> candidates;  // ticket, readmit
    for (const auto& event : win.events) {
      if (const auto* a = std::get_if<Arrival>(&event)) {
        ++r.arrivals;
        requests.push_back(a->request);
        candidates.push_back({a->ticket, false});
        continue;
      }
      const Expiry& e = std::get<Expiry>(event);
      if (e.readmit) {
        requests.push_back(orch->service(e.service).request);
        candidates.push_back({e.ticket, true});
      }
      end_incarnation(e, t);
    }
    if (!requests.empty()) {
      util::Rng rng(util::derive_seed(window_seed, admission_windows++));
      const util::Timer call;
      const auto ids = orch->admit_batch(requests, rng);
      call_seconds.push_back(call.elapsed_seconds());
      if (journal != nullptr) {
        std::vector<const orchestrator::Service*> admitted;
        for (const auto& id : ids) {
          if (id.has_value()) admitted.push_back(&orch->service(*id));
        }
        (void)journal->batch_commit(*orch, admitted, t);
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        decide(ids[i], candidates[i].first, candidates[i].second, t);
      }
    }
    ++r.windows;
    win = Window{};
  };
  auto enqueue = [&](std::variant<Arrival, Expiry> event, double t) {
    if (!win.open) {
      const double w = config.window_width;
      win.open = true;
      win.close = std::floor(t / w) * w + w;
    }
    if (!streaming) {
      win.events.push_back(std::move(event));
    } else if (auto* a = std::get_if<Arrival>(&event)) {
      (void)service->submit_arrival(std::move(a->request), t, a->ticket);
    } else if (const Expiry& e = std::get<Expiry>(event); e.readmit) {
      (void)service->submit_readmit(e.service, t, e.ticket);
    } else {
      (void)service->submit_departure(e.service, t);
    }
  };

  // Merged event stream: each kind is cut at its own end, and ties break in
  // the order of the checks below.
  const auto before = [](double t, double limit) {
    return t < limit ? t : kInf;
  };
  const util::Timer wall;
  for (;;) {
    const double close = win.open ? win.close : kInf;
    const double wake =
        healing ? before(controller->next_wakeup(), config.horizon) : kInf;
    const double expiry = due.empty() ? kInf : before(due.top().time, end);
    const double arrival = workload.next_time();
    const double ifail = before(next_ifail, config.horizon);
    const double outage = before(next_outage, config.horizon);
    const double now = std::min({close, wake, expiry, arrival, ifail, outage});

    if (!win.open && next_crash < config.crash_times.size() &&
        config.crash_times[next_crash] <= std::min(now, config.horizon)) {
      // Crash-restart drill: rebuild the pair from the journal exactly as
      // a restarted process would. Only between windows, so batching
      // decisions (and the trace) match an uninterrupted run.
      ++next_crash;
      ++r.crash_restarts;
      controller.reset();
      orch.reset();
      journal.reset();  // closes the file (flushing any pending group)
      auto recovered = orchestrator::recover(
          config.journal_path,
          {.orchestrator = orch_options, .controller = controller_options});
      orch = std::move(recovered.orch);
      controller = std::move(recovered.controller);
      r.replayed_events += recovered.replayed_events;
      journal = std::make_unique<orchestrator::Journal>(
          config.journal_path, orchestrator::Journal::Mode::kContinue,
          config.durability);
      continue;
    }
    if (now == kInf) break;

    observe(now);
    if (close <= now) {
      close_window();
      settle(now);
    } else if (wake <= now) {
      // Wakeup times strictly advance (repairs pop, batch boundaries
      // move), so this cannot spin.
      settle(now);
    } else if (expiry <= now) {
      const Expiry e = due.top();
      due.pop();
      if (windowed) {
        enqueue(e, now);
        continue;
      }
      const mec::SfcRequest request =
          e.readmit ? orch->service(e.service).request : mec::SfcRequest{};
      end_incarnation(e, now);
      if (e.readmit) admit(request, e.ticket, true, now);
      settle(now);
    } else if (arrival <= now) {
      Arrival a = workload.pop();
      ++r.generated;
      if (config.record_trace) r.arrival_trace.push_back(a);
      if (windowed) {
        enqueue(std::move(a), now);
        continue;
      }
      ++r.arrivals;
      admit(a.request, a.ticket, false, now);
      settle(now);
    } else if (ifail <= now) {
      next_ifail = next_poisson(ifail_rng, config.instance_failure_rate, now);
      // Victim: uniform over running instances in (service id, instance
      // id) order; with none running the failure is a no-op.
      std::vector<std::pair<ServiceId, orchestrator::InstanceId>> running;
      for (const ServiceId id : orch->services()) {
        for (const orchestrator::Instance& inst :
             orch->service(id).instances) {
          if (inst.state == orchestrator::InstanceState::kRunning) {
            running.emplace_back(id, inst.id);
          }
        }
      }
      if (!running.empty()) {
        const auto [svc, inst] = running[ifail_rng.index(running.size())];
        // Thin re-invocation record: promotion is deterministic.
        if (journal != nullptr) {
          (void)journal->instance_failure(svc, inst, now);
        }
        (void)orch->fail_instance(svc, inst);
        ++r.instance_failures;
        record(now, SimEventKind::kInstanceFailure, inst);
        controller->on_instance_failed(svc, now);
        note_transitions(now);
      }
      settle(now);
    } else {
      next_outage = next_poisson(outage_rng, config.cloudlet_outage_rate, now);
      std::vector<graph::NodeId> up;
      for (const graph::NodeId v : orch->network().cloudlets()) {
        if (!orch->is_cloudlet_down(v)) up.push_back(v);
      }
      if (!up.empty()) {
        const graph::NodeId victim = up[outage_rng.index(up.size())];
        if (journal != nullptr) (void)journal->cloudlet_outage(victim, now);
        orch->fail_cloudlet(victim);
        ++r.cloudlet_outages;
        record(now, SimEventKind::kCloudletOutage, victim);
        controller->on_cloudlet_failed(victim, now);
        note_transitions(now);
      }
      settle(now);
    }
  }
  if (streaming) {
    service->stop();  // joins its threads: the state is this thread's again
    const orchestrator::StreamStats stats = service->stats();
    r.arrivals = stats.arrivals;
    r.admitted = stats.admitted;
    r.rejected = stats.rejected;
    r.departed = stats.departures;
    r.readmits = stats.readmits;
    r.windows = stats.windows;
    obs::Histogram::Snapshot run_latency = latency->snapshot();
    for (std::size_t b = 0; b < run_latency.counts.size(); ++b) {
      run_latency.counts[b] -= latency_before.counts[b];
    }
    run_latency.count -= latency_before.count;
    r.p50_latency_seconds = run_latency.quantile(0.50);
    r.p99_latency_seconds = run_latency.quantile(0.99);
  }
  r.wall_seconds = wall.elapsed_seconds();

  observe(config.horizon);
  for (auto& [id, acct] : tracked) integrate(id, acct, config.horizon);
  finish(r, *orch, journal.get(), end);
  r.controller = controller->metrics();
  r.time_avg_utilization = util_integral / config.horizon;
  if (r.total_held_time > 0.0) {
    r.slo_attainment = r.slo_time / r.total_held_time;
  }
  if (r.recovered_episodes > 0) {
    r.mean_time_to_recovery =
        ttr_sum / static_cast<double>(r.recovered_episodes);
  }
  if (!call_seconds.empty()) {
    r.p50_latency_seconds = util::quantile(call_seconds, 0.5);
    r.p99_latency_seconds = util::quantile(call_seconds, 0.99);
  }
  run_span.attr("arrivals", static_cast<double>(r.arrivals));
  export_metrics(r);
  return r;
}

}  // namespace mecra::sim
