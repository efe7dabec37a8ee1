// Process-wide metrics: counters, gauges, and fixed-bucket histograms
// behind a named registry.
//
// Design goals (ROADMAP: "runs as fast as the hardware allows"):
//   * lock-free record path — every write is a relaxed atomic op on a
//     per-thread shard (cache-line-aligned slots indexed by a stable
//     per-thread index), so concurrent workers never contend on one line;
//   * merge on scrape — `value()`/`snapshot()` sum the shards; scrapes are
//     rare (end of a run / epoch) and may race benignly with writers;
//   * registration is the only locked path — call sites cache the returned
//     reference (`static obs::Counter& c = ...;`), so the mutex is paid
//     once per site, not per record;
//   * zero-cost off switch — every record checks `obs::enabled()` first
//     (see obs/obs.h for the compile-time and runtime switches).
//
// Instruments are owned by their registry and live as long as it does;
// references returned by `counter()`/`gauge()`/`histogram()` are stable.
//
// Thread safety: all record and read operations on all classes here are
// safe from any thread. `MetricsRegistry::reset()` zeroes values without
// deregistering; a write racing a reset may land before or after the zero
// (callers reset between epochs, at quiescent points).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "util/thread_annotations.h"

namespace mecra::obs {

/// Number of per-thread shards per instrument. Threads map onto shards by
/// a stable round-robin thread index, so up to kShards writers proceed
/// with zero cache-line sharing.
inline constexpr std::size_t kShards = 16;

namespace detail {
/// Stable shard index for the calling thread, in [0, kShards).
[[nodiscard]] std::size_t thread_shard() noexcept;
}  // namespace detail

/// Monotonically increasing event count (e.g. `ilp.nodes`).
///
/// Thread safety: `add()` is wait-free (one relaxed fetch_add on the
/// calling thread's shard); `value()` may run concurrently with writers
/// and returns a sum that is exact once writers quiesce.
class Counter {
 public:
  /// Adds `n` to the counter. No-op while observability is disabled.
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    slots_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  [[nodiscard]] std::uint64_t value() const noexcept;

  /// Zeroes every shard (registry reset path).
  void reset() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kShards> slots_;
  std::string name_;
};

/// Last-write-wins instantaneous value (e.g. `sim.slo_attainment`).
///
/// Thread safety: `set()` is a relaxed atomic store; `add()` is a CAS
/// loop (gauges are low-rate — use a Counter for hot accumulation).
class Gauge {
 public:
  /// Replaces the value. No-op while observability is disabled.
  void set(double v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }

  /// Adds `delta` atomically (compare-exchange loop).
  void add(double delta) noexcept;

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::atomic<double> value_{0.0};
  std::string name_;
};

/// Fixed-bucket histogram with upper-inclusive bucket bounds (Prometheus
/// "le" semantics): an observation lands in the FIRST bucket whose bound
/// is >= the value; values above the last bound land in the implicit
/// overflow bucket, so `counts` has `bounds.size() + 1` entries.
///
/// Thread safety: `observe()` does one relaxed fetch_add on the calling
/// thread's shard plus a CAS-accumulated sum and (rarely-looping) min/max
/// updates; `snapshot()` may race writers benignly.
class Histogram {
 public:
  /// Merged view of the histogram (see class comment for bucket layout).
  struct Snapshot {
    std::vector<double> bounds;         ///< upper-inclusive bucket bounds
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;            ///< total observations
    double sum = 0.0;                   ///< sum of observed values
    double min = 0.0;                   ///< 0 when count == 0
    double max = 0.0;                   ///< 0 when count == 0

    /// Estimated q-quantile (q in [0,1], clamped) assuming observations
    /// are uniform within each bucket (linear interpolation between
    /// bucket bounds — the classic histogram_quantile estimate). Returns
    /// 0 for an empty snapshot. When the rank lands in the unbounded
    /// overflow bucket the estimate is `max`, an upper bound. Resolution
    /// is bucket granularity; with default_latency_bounds() that is a
    /// factor of 2.
    [[nodiscard]] double quantile(double q) const;
  };

  /// Records one observation. No-op while observability is disabled.
  void observe(double v) noexcept;

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes counts/sum/min/max; bucket bounds are immutable.
  void reset() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

  /// `n` bounds growing geometrically: start, start*factor, ... —
  /// the standard shape for latency distributions.
  [[nodiscard]] static std::vector<double> exponential_bounds(double start,
                                                              double factor,
                                                              std::size_t n);

  /// Default latency bounds in SECONDS: 1 µs .. ~67 s, factor 2 (27
  /// buckets + overflow). Used when `MetricsRegistry::histogram` is
  /// called without explicit bounds.
  [[nodiscard]] static std::vector<double> default_latency_bounds();

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);

  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;  // bounds + overflow
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;  // strictly increasing
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<double> min_;
  std::atomic<double> max_;
  std::string name_;
};

/// One merged, ordered view of every instrument in a registry. Samples are
/// sorted by name (deterministic export order).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    Histogram::Snapshot data;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Named instrument registry. `global()` is the process-wide instance all
/// in-repo instrumentation records to; independent registries can be
/// created for tests.
///
/// Thread safety: instrument lookup/creation takes a mutex (cache the
/// returned reference at the call site); `snapshot()` and `reset()` are
/// safe concurrently with recording.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (created on first use, never destroyed
  /// before exit).
  [[nodiscard]] static MetricsRegistry& global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. The reference stays valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name) MECRA_EXCLUDES(mutex_);

  /// Returns the gauge registered under `name`, creating it on first use.
  [[nodiscard]] Gauge& gauge(std::string_view name) MECRA_EXCLUDES(mutex_);

  /// Returns the histogram registered under `name`, creating it with
  /// `bounds` (default: Histogram::default_latency_bounds()) on first
  /// use. Bounds of an existing histogram are NOT changed.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds = {})
      MECRA_EXCLUDES(mutex_);

  /// Zeroes every instrument's value but keeps all registrations (the
  /// between-epochs reset the simulators use).
  void reset() MECRA_EXCLUDES(mutex_);

  /// Merged view of every instrument, sorted by name.
  [[nodiscard]] MetricsSnapshot snapshot() const MECRA_EXCLUDES(mutex_);

 private:
  /// Guards the instrument maps (registration + scrape); the instruments
  /// themselves record lock-free through their own atomic shards.
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      MECRA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      MECRA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      MECRA_GUARDED_BY(mutex_);
};

}  // namespace mecra::obs
