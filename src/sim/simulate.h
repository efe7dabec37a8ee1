// The simulation core: every Poisson arrival/departure run in the repo —
// the dynamic regime of [12, 13], the self-healing chaos loop, and the
// open-loop streaming trace — is one call to sim::simulate().
//
// Workload source. Candidates arrive at the profile's PEAK rate and are
// kept with probability rate(t)/peak (Poisson thinning, constant / burst /
// diurnal profiles), so every derived draw is identical across profiles
// with the same peak. Arrival times come from derive_seed(seed, 11) and
// request contents from derive_seed(seed, 12); arrival i carries ticket i
// and a request with id i. Lifecycle draws are STATELESS functions of the
// arrival ticket on derive_seed(seed, 13): an admitted first incarnation
// holds for Exp(mean_holding_time) drawn at ticket*3, is re-admitted (torn
// down and re-placed, RIPPLE's scaling event) instead of departing with
// probability readmit_fraction drawn at ticket*3+1, and a re-admitted
// incarnation departs for good after a second hold drawn at ticket*3+2.
// The submitted trace is therefore a pure function of (config, seed) in
// every mode; only which services exist to depart depends on admission.
//
// Admission modes:
//   * kPerEvent  — Orchestrator::admit per arrival and per re-admit, at the
//                  event's time, drawing from derive_seed(seed, 14);
//   * kPooled    — StreamingService's window rules run inline on the
//                  caller's thread: events fall into windows of the grid
//                  [k*W, (k+1)*W) (W = window_width); at a window's close,
//                  its departures and re-admit teardowns apply first, in
//                  event order, then ONE admit_batch over its arrivals and
//                  re-admits, in event order, seeded
//                  derive_seed(derive_seed(seed, 17), n) for the n-th
//                  window that admitted anything — the windows' own base,
//                  so no window reuses another stream of the seed.
//                  Capacity a departure frees is held until its window
//                  closes;
//   * kStreaming — orchestrator::StreamingService itself, driven in
//                  lockstep over the same windows (StreamingOptions::seed
//                  = derive_seed(seed, 17)): submit a window's events,
//                  flush at its close, wait for its admission stage. Decides bit-identically to kPooled at any thread
//                  count and with pipelined commit on or off (asserted in
//                  tests/simulate_test.cpp).
//
// Optional layers, each off by default; off reproduces a plain
// arrival/departure run.
//   * Faults + self-healing: setting `controller` makes the Controller
//     reconcile after every state-changing event — repairs after MTTR,
//     standby top-ups (services admitted below rho_j are dirty from birth)
//     and revivals per its policy — and lets instance_failure_rate /
//     cloudlet_outage_rate inject Poisson instance failures (victim
//     uniform over running instances) and cloudlet outages (victim uniform
//     over up cloudlets) from derive_seed(seed, 15/16). Ties between event
//     kinds break in a fixed order (window close, controller wakeup,
//     departure/re-admit, arrival, instance failure, outage).
//   * Journal: with a journal_path, every state change is journaled before
//     it becomes visible (orchestrator/journal.h), starting from a snapshot
//     at t = 0 plus one every snapshot_period.
//   * Crash-restart drills: at each of crash_times (ascending; needs a
//     journal) the orchestrator and controller are destroyed and recovered
//     from the journal between events — never inside an open window. The
//     driver state (workload, RNGs, lifecycle queue, accounting) survives,
//     so a bit-identical recovery keeps the whole trace bit-identical
//     (asserted in tests/recovery_test.cpp).
// kStreaming takes the journal (the service writes it) and rejects the
// fault and crash layers: the service owns the state between windows.
//
// Horizon. Arrivals and faults stop at `horizon`. Lifecycle events stop at
// the horizon in kPerEvent and at the end of the last grid cell in the
// windowed modes, whose last window closes there. Services still live at
// the end are counted in live_services, then drained (torn down, outages
// repaired — journaled like any other event) so final_total_residual is
// checkable against the input network. Utilization and availability
// integrate over [0, horizon].
//
// Determinism: the same (network, catalog, config, seed) reproduces every
// count, the trace, and the journal bytes, provided the augmentation
// algorithm is deterministic (the default matching heuristic is; a
// FallbackAugmenter with a wall-clock deadline is not). Only wall-clock
// fields (wall_seconds, requests_per_second, latencies) vary.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/augmentation.h"
#include "mec/network.h"
#include "mec/request.h"
#include "mec/vnf.h"
#include "orchestrator/controller.h"
#include "orchestrator/journal.h"

namespace mecra::sim {

/// Arrival-rate shape over time.
enum class RateProfile : std::uint8_t {
  kConstant,  ///< lambda(t) = arrival_rate
  kBurst,     ///< square wave: arrival_rate * burst_factor for the first
              ///< burst_duty fraction of every burst_period, else base
  kDiurnal,   ///< arrival_rate * (1 + diurnal_amplitude * sin(2*pi*t/P))
};

/// How arrivals are admitted (see the file comment).
enum class AdmissionMode : std::uint8_t { kPerEvent, kPooled, kStreaming };

struct SimConfig {
  // --- workload source ---
  /// Base mean arrivals per unit time (Poisson).
  double arrival_rate = 1.0;
  /// Mean exponential holding time of an admitted service.
  double mean_holding_time = 10.0;
  /// Arrivals (and faults) are generated in [0, horizon).
  double horizon = 100.0;
  /// Request shape; request.expectation is rho_j of every request.
  mec::RequestParams request;
  RateProfile profile = RateProfile::kConstant;
  double burst_factor = 4.0;
  double burst_period = 25.0;
  double burst_duty = 0.2;
  double diurnal_amplitude = 0.8;  ///< in [0, 1]
  double diurnal_period = 50.0;
  /// Probability that an admitted service is re-admitted instead of
  /// departing when its first holding time expires.
  double readmit_fraction = 0.0;

  // --- admission ---
  AdmissionMode mode = AdmissionMode::kPerEvent;
  /// Window width W of kPooled and kStreaming (> 0).
  double window_width = 1.0;
  std::uint32_t l_hops = 1;
  core::AugmentOptions augment;
  /// Augmentation algorithm for admission and reaugmentation alike
  /// (matching heuristic when empty). Must never return a
  /// capacity-violating plan — wrap risky chains in a FallbackAugmenter.
  std::function<core::AugmentationResult(const core::BmcgapInstance&,
                                         const core::AugmentOptions&)>
      algorithm;
  /// Shard worker threads of the sharded batch engine
  /// (orchestrator::BatchOptions; the shard count is its automatic one).
  /// Results are bit-identical for every value.
  std::size_t threads = 1;
  /// kStreaming: commit on the service's own thread (the epoch pipeline)
  /// instead of inline. Decisions and journal bytes are identical.
  bool pipelined_commit = true;

  // --- faults + self-healing layer (kPerEvent / kPooled) ---
  /// Engages the layer: the Controller's policy and MTTR.
  std::optional<orchestrator::ControllerOptions> controller;
  /// Global Poisson rates of single-instance failures and whole-cloudlet
  /// outages (0 = none; positive rates need `controller`).
  double instance_failure_rate = 0.0;
  double cloudlet_outage_rate = 0.0;

  // --- durability layer ---
  /// Write-ahead journal path; empty runs without a journal.
  std::string journal_path;
  /// Group-commit policy. Under kPerGroup a group ends after every step
  /// of the event loop that changes state: each event in kPerEvent; each
  /// window close, controller wakeup, instance failure and outage in
  /// kPooled (so with the fault layer on a group can be smaller than a
  /// window); each window in kStreaming. File bytes are identical under
  /// every policy.
  orchestrator::Durability durability;
  /// Simulated time between journal snapshots (0 = the t = 0 snapshot
  /// only); kStreaming rounds it to whole windows.
  double snapshot_period = 0.0;
  /// Crash-restart drill times (ascending; need journal_path).
  std::vector<double> crash_times;

  /// Record the arrival sequence and the event trace in the report.
  bool record_trace = false;
};

/// One arrival of the workload source.
struct Arrival {
  std::uint64_t ticket = 0;
  double time = 0.0;
  mec::SfcRequest request;

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

enum class SimEventKind : std::uint8_t {
  kAdmit,            // subject = service id
  kReject,           // subject = ticket
  kDeparture,        // subject = service id (re-admit teardowns included)
  kInstanceFailure,  // subject = instance id
  kCloudletOutage,   // subject = cloudlet node id
  kRepair,           // subject = cloudlet node id
  kReaugment,        // subject = standbys added by the reconcile pass
  kRevive,           // subject = services revived by the reconcile pass
};

struct SimEvent {
  double time = 0.0;
  SimEventKind kind = SimEventKind::kAdmit;
  std::uint64_t subject = 0;

  friend bool operator==(const SimEvent&, const SimEvent&) = default;
};

struct SimReport {
  // --- admission ---
  std::uint64_t generated = 0;  ///< arrivals the workload produced
  std::uint64_t arrivals = 0;   ///< arrivals admission decided on
  std::uint64_t admitted = 0;  ///< incl. re-admitted incarnations
  std::uint64_t rejected = 0;  ///< incl. refused re-admissions
  std::uint64_t departed = 0;  ///< departures before the end (not drained)
  std::uint64_t readmits = 0;
  std::uint64_t windows = 0;   ///< windows closed (kPooled, kStreaming)
  /// Admitted services whose reliability met rho_j (less 1e-12, as in
  /// AugmentationResult::expectation_met) at admission, and its mean.
  std::uint64_t met_expectation = 0;
  double mean_achieved_reliability = 0.0;

  // --- utilization over [0, horizon] (kPerEvent, kPooled) ---
  double time_avg_utilization = 0.0;
  double peak_utilization = 0.0;

  // --- faults + availability (kPerEvent, kPooled) ---
  std::uint64_t instance_failures = 0;
  std::uint64_t cloudlet_outages = 0;
  /// The controller's repairs, top-ups and revivals.
  orchestrator::ControllerMetrics controller;
  /// Service-time held (admit -> departure or horizon), and the parts of
  /// it spent up with current reliability >= rho_j, kDegraded, and kDown.
  double total_held_time = 0.0;
  double slo_time = 0.0;
  double degraded_time = 0.0;
  double down_time = 0.0;
  /// slo_time / total_held_time (1 when nothing was held).
  double slo_attainment = 1.0;
  std::uint64_t down_episodes = 0;
  std::uint64_t recovered_episodes = 0;
  /// Mean duration of recovered down episodes (0 when none recovered).
  double mean_time_to_recovery = 0.0;

  // --- end state ---
  /// Services live when the event loop ends, and the total residual
  /// capacity with them still placed (the determinism fingerprint).
  std::uint64_t live_services = 0;
  double end_total_residual = 0.0;
  /// Total residual after the drain; equals the input network's when
  /// capacity accounting is conserved.
  double final_total_residual = 0.0;

  // --- durability (0 without a journal) ---
  std::uint64_t crash_restarts = 0;
  /// Records appended over the run, snapshots and drain included.
  std::uint64_t journal_records = 0;
  /// Events replayed from the journal, summed over every recovery.
  std::uint64_t replayed_events = 0;

  // --- wall clock ---
  double wall_seconds = 0.0;
  /// Decided candidates (arrivals + re-admits) per wall second.
  double requests_per_second = 0.0;
  /// Decision latency quantiles: per admit/admit_batch call in the
  /// synchronous modes, submit -> commit in kStreaming (0 while obs is
  /// disabled).
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;

  /// Only with SimConfig::record_trace: the arrival sequence, and the
  /// decision / lifecycle / fault trace (synchronous modes only).
  std::vector<Arrival> arrival_trace;
  std::vector<SimEvent> trace;
};

/// Runs the simulation on a COPY of `network` (the input is untouched).
[[nodiscard]] SimReport simulate(const mec::MecNetwork& network,
                                 const mec::VnfCatalog& catalog,
                                 const SimConfig& config, std::uint64_t seed);

}  // namespace mecra::sim
