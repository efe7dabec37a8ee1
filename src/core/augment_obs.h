// Private (core-internal) observability shim for the augmentation
// algorithms: one RAII object per augment_* call records a span plus
// calls/expectation-met counters and a latency histogram under the
// algorithm's scope name (e.g. "augment.ilp"). Kept out of
// core/augmentation.h so obs stays a PRIVATE dependency of mecra_core.
#pragma once

#include <string>

#include "core/augmentation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mecra::core::detail {

enum class Algorithm { kIlp, kRandomized, kHeuristic, kGreedy };
inline constexpr const char* kScopes[] = {
    "augment.ilp", "augment.randomized", "augment.heuristic",
    "augment.greedy"};

/// Measures one augmentation call of algorithm `A`. Construct AFTER the
/// result object (the destructor reads the final `result`, including the
/// runtime_seconds the algorithm stamps right before returning). Each
/// algorithm's instruments are looked up once, on its first record, and
/// held as static references.
///
/// Thread safety: safe on concurrent trial-runner workers — all recording
/// goes through the sharded registry.
template <Algorithm A>
class AugmentObs {
  static constexpr const char* kScope = kScopes[static_cast<int>(A)];

 public:
  explicit AugmentObs(const AugmentationResult& result)
      : result_(result), span_(kScope) {}

  AugmentObs(const AugmentObs&) = delete;
  AugmentObs& operator=(const AugmentObs&) = delete;

  ~AugmentObs() {
    if (!obs::enabled()) return;
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& calls =
        reg.counter(std::string(kScope) + ".calls");
    static obs::Histogram& seconds =
        reg.histogram(std::string(kScope) + ".seconds");
    calls.add(1);
    if (result_.expectation_met) {
      static obs::Counter& met =
          reg.counter(std::string(kScope) + ".met");
      met.add(1);
    }
    seconds.observe(result_.runtime_seconds);
    span_.attr("placements", static_cast<double>(result_.placements.size()));
    span_.attr("achieved", result_.achieved_reliability);
  }

 private:
  const AugmentationResult& result_;
  obs::TraceSpan span_;
};

}  // namespace mecra::core::detail
