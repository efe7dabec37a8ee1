// The benchmark's three workloads. Each run repeats identical ROUNDS — a
// complete set-up, a fixed amount of seeded work, and the round's output
// checks — until the requested seconds have passed, then reports medians
// and pooled exact-sample percentiles over the rounds (README.md).
#pragma once

#include <cstdint>
#include <string>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Wall seconds the run keeps starting rounds for.
  double seconds = 10.0;
  /// Traced mode: per-layer metrics from spans and replays.
  bool trace = false;
  /// Smoke-test sizes (tests only): tiny inputs, same code paths.
  bool tiny = false;
};

/// Untraced mode fills the end-to-end metrics, traced mode the per-layer
/// metrics; `trace` receives the traced passes' spans.
[[nodiscard]] Report run_stream_durable(const RunOptions& options,
                                        Trace& trace);
[[nodiscard]] Report run_serial_admit(const RunOptions& options, Trace& trace);
[[nodiscard]] Report run_paper_solve(const RunOptions& options, Trace& trace);

/// Round scheduling shared by the workloads: keep going while fewer than
/// `min_rounds` ran or the wall budget is not spent, and stop at the hard
/// cap whatever the sample counts say (a refused percentile then fails
/// the run instead of overrunning the 180 s limit).
class RoundBudget {
 public:
  RoundBudget(double seconds, std::size_t min_rounds)
      : start_(now_s()), seconds_(seconds), min_rounds_(min_rounds) {}
  /// `need_more` asks for another round regardless of the wall budget
  /// (a traced run still short of 1000 samples for a p99).
  [[nodiscard]] bool more(std::size_t done, bool need_more = false) const {
    const double elapsed = now_s() - start_;
    if (elapsed > kHardCapS) return false;
    return done < min_rounds_ || elapsed < seconds_ || need_more;
  }

 private:
  static constexpr double kHardCapS = 120.0;
  double start_;
  double seconds_;
  std::size_t min_rounds_;
};

}  // namespace perfbench
