// Observability overhead micro-bench — the MECRA_OBS=off guarantee.
//
// The obs subsystem promises that a runtime-disabled instrument costs one
// relaxed atomic load + one predictable branch per call, i.e. within noise
// of a build compiled with -DMECRA_OBS=OFF (where `obs::enabled()` is
// `constexpr false` and the same call sites compile to nothing). This
// bench measures ns/op for:
//
//   baseline   — the bare loop body (volatile accumulator)
//   disabled   — loop body + Counter::add(1) with obs disabled at runtime
//   counter    — Counter::add(1) with obs enabled
//   histogram  — Histogram::observe with obs enabled
//   span       — TraceSpan open/close with obs enabled
//
// and FAILS (exit 1) when the disabled-vs-baseline delta exceeds
// --tolerance-ns (default 1.5 ns — a generous bound for load+branch; the
// acceptance target is <=1% of any real workload's per-call work, which
// even a 1 µs heuristic call clears by 600x). Compile the subsystem out
// (-DMECRA_OBS=OFF) and the "disabled" row IS the compiled-out path, so
// the same check then asserts the two builds agree.
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

/// Prevents the compiler from deleting or reordering the measured loop.
inline void clobber() { asm volatile("" ::: "memory"); }

template <typename F>
double ns_per_op(std::size_t iters, const F& op) {
  const mecra::util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) op(i);
  clobber();
  return timer.elapsed_seconds() * 1e9 / static_cast<double>(iters);
}

/// Minimum over `reps` runs — the standard estimator for fixed-cost
/// overhead (anything above the minimum is scheduler/cache noise).
template <typename F>
double best_ns_per_op(int reps, std::size_t iters, const F& op) {
  double best = ns_per_op(iters, op);  // warm-up run counts too
  for (int r = 1; r < reps; ++r) best = std::min(best, ns_per_op(iters, op));
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mecra;
  const util::CliArgs args(argc, argv, {"iters", "reps", "tolerance-ns"});
  const auto iters =
      static_cast<std::size_t>(args.get_int("iters", 20'000'000));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const double tolerance_ns = args.get_double("tolerance-ns", 1.5);

  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& counter = reg.counter("micro.counter");
  obs::Histogram& hist = reg.histogram("micro.hist");
  obs::TraceRing::global().set_capacity(1024);

  volatile std::uint64_t sink = 0;

  const double baseline = best_ns_per_op(reps, iters, [&](std::size_t i) {
    sink = sink + i;
  });

  obs::set_enabled(false);
  const double disabled = best_ns_per_op(reps, iters, [&](std::size_t i) {
    sink = sink + i;
    counter.add(1);
  });

  obs::set_enabled(true);
  const double enabled = best_ns_per_op(reps, iters, [&](std::size_t i) {
    sink = sink + i;
    counter.add(1);
  });
  const double histogram = best_ns_per_op(reps, iters, [&](std::size_t i) {
    sink = sink + i;
    hist.observe(static_cast<double>(i & 1023));
  });
  const double span = best_ns_per_op(reps, iters / 100, [&](std::size_t) {
    const obs::TraceSpan s("micro.span");
  });

  std::cout << "=== obs overhead (" << iters << " iters, best of " << reps
            << "; " << (obs::kCompiledIn ? "compiled in" : "COMPILED OUT")
            << ") ===\n\n";
  util::Table table({"path", "ns/op", "delta vs baseline"});
  table.add_row({"baseline", util::fmt(baseline, 3), ""});
  table.add_row({"counter.add disabled", util::fmt(disabled, 3),
                 util::fmt(disabled - baseline, 3)});
  table.add_row({"counter.add enabled", util::fmt(enabled, 3),
                 util::fmt(enabled - baseline, 3)});
  table.add_row({"histogram.observe enabled", util::fmt(histogram, 3),
                 util::fmt(histogram - baseline, 3)});
  table.add_row({"span open+close enabled", util::fmt(span, 3),
                 util::fmt(span - baseline, 3)});
  table.print(std::cout);

  // Sanity: a disabled counter must not have recorded anything.
  if (obs::kCompiledIn && counter.value() == 0) {
    std::cerr << "FAIL: enabled counter recorded nothing\n";
    return 1;
  }

  const double delta = disabled - baseline;
  std::cout << "\ndisabled-path overhead: " << util::fmt(delta, 3)
            << " ns/op (tolerance " << util::fmt(tolerance_ns, 2)
            << " ns)\n";
  if (delta > tolerance_ns) {
    std::cerr << "FAIL: runtime-disabled instrument costs more than the "
                 "branch-only budget\n";
    return 1;
  }
  std::cout << "OK: disabled path is branch-only within tolerance\n";
  return 0;
}
