// Deadline-aware fallback chain over the augmentation algorithms.
//
// Reaugmentation inside a control loop must never stall the loop: under
// load the exact solver can burn seconds on a single service while other
// services sit degraded. FallbackAugmenter wraps an ordered chain of
// algorithm tiers (default: ILP -> randomized rounding -> matching
// heuristic -> greedy) under a per-call wall-clock deadline. Tiers run in
// order until one produces a capacity-FEASIBLE result that meets the
// expectation; once the deadline expires, remaining expensive tiers are
// skipped (the last tier still runs when nothing feasible exists yet, so a
// call always returns). Results that violate capacity — the randomized
// algorithm's documented failure shape — are rejected and the chain falls
// through, so the augmenter NEVER returns a capacity-violating placement.
// When no tier meets the expectation, the best capacity-feasible result
// seen is returned (best-effort degradation, counted separately).
//
// Per-tier serve/timeout/infeasible/unmet counters expose how often each
// tier actually answered, which is the load signal the chaos bench reports.
//
// Determinism note: the deadline compares wall-clock time, so WHICH tier
// serves can differ between runs when a deadline is set. Loops that need
// bit-identical traces (tests, replay) should disable the deadline or use
// a chain of deterministic tiers only.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/augmentation.h"

namespace mecra::core {

/// One algorithm tier. `remaining_seconds` is the wall-clock budget left
/// for the whole call (+infinity when the deadline is disabled); tiers
/// that can bound their own runtime (the ILP) should respect it, others
/// may ignore it.
struct FallbackTier {
  std::string name;
  std::function<AugmentationResult(const BmcgapInstance&,
                                   const AugmentOptions&,
                                   double remaining_seconds)>
      algorithm;
};

struct FallbackTierStats {
  std::string name;
  std::size_t attempts = 0;    // tier actually ran
  std::size_t served = 0;      // tier's result was the one returned
  std::size_t timeouts = 0;    // tier skipped because the deadline expired
  std::size_t infeasible = 0;  // result violated capacity; rejected
  std::size_t unmet = 0;       // feasible but below the expectation
  std::size_t errors = 0;      // tier threw; caught, chain fell through
};

struct FallbackOptions {
  /// Wall-clock budget per augment() call in seconds; 0 disables the
  /// deadline (every tier may run to completion).
  double deadline_seconds = 0.0;
};

class FallbackAugmenter {
 public:
  explicit FallbackAugmenter(FallbackOptions options = {})
      : FallbackAugmenter(default_chain(), options) {}
  FallbackAugmenter(std::vector<FallbackTier> tiers,
                    FallbackOptions options = {});

  /// ILP (deadline-capped via IlpOptions::time_limit_seconds) ->
  /// randomized rounding -> matching heuristic -> greedy.
  [[nodiscard]] static std::vector<FallbackTier> default_chain();

  /// Wraps a plain algorithm (which ignores the remaining budget) as a tier.
  [[nodiscard]] static FallbackTier make_tier(
      std::string name,
      std::function<AugmentationResult(const BmcgapInstance&,
                                       const AugmentOptions&)>
          algorithm);

  /// Runs the chain; the returned result is always capacity-feasible for
  /// `instance` (possibly with zero placements when nothing feasible
  /// exists).
  [[nodiscard]] AugmentationResult augment(const BmcgapInstance& instance,
                                           const AugmentOptions& options = {});

  [[nodiscard]] const std::vector<FallbackTierStats>& stats() const noexcept {
    return tier_stats_;
  }
  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
  /// Calls where no tier met the expectation and the best feasible result
  /// (possibly empty) was returned.
  [[nodiscard]] std::size_t best_effort_calls() const noexcept {
    return best_effort_calls_;
  }
  void reset_stats();

  /// Adapter with the OrchestratorOptions/SimConfig algorithm signature.
  /// The augmenter must outlive the returned function.
  [[nodiscard]] std::function<AugmentationResult(const BmcgapInstance&,
                                                 const AugmentOptions&)>
  as_algorithm();

 private:
  std::vector<FallbackTier> tiers_;
  FallbackOptions options_;
  std::vector<FallbackTierStats> tier_stats_;
  std::size_t calls_ = 0;
  std::size_t best_effort_calls_ = 0;
};

}  // namespace mecra::core
