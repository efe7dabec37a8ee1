#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace mecra::obs {

namespace detail {

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

namespace {

/// Relaxed CAS add for atomic doubles (no fetch_add for FP pre-C++20 on
/// all targets; loop converges immediately absent contention).
void atomic_add(std::atomic<double>& a, double delta) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

}  // namespace detail

// --- Counter ---

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
}

// --- Gauge ---

void Gauge::add(double delta) noexcept {
  if (!enabled()) return;
  detail::atomic_add(value_, delta);
}

// --- Histogram ---

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()),
      name_(std::move(name)) {
  MECRA_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  MECRA_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                      std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                          bounds_.end(),
                  "histogram bounds must be strictly increasing");
  shards_.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::observe(double v) noexcept {
  if (!enabled()) return;
  // Upper-inclusive: first bound >= v; past-the-end = overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  Shard& shard = *shards_[detail::thread_shard()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(shard.sum, v);
  detail::atomic_min(min_, v);
  detail::atomic_max(max_, v);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [0, count]; walk buckets and interpolate linearly
  // inside the one that crosses it (Prometheus histogram_quantile shape).
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  double lower = 0.0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    const double reached = static_cast<double>(cumulative + in_bucket);
    if (in_bucket > 0 && reached >= rank) {
      const double frac = std::clamp(
          (rank - static_cast<double>(cumulative)) /
              static_cast<double>(in_bucket),
          0.0, 1.0);
      return lower + frac * (bounds[b] - lower);
    }
    cumulative += in_bucket;
    lower = bounds[b];
  }
  // Rank falls in the unbounded overflow bucket: the tightest honest
  // answer is the lifetime max (an upper bound; see header contract).
  return max > lower ? max : lower;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard->sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  if (snap.count > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (const auto& shard : shards_) {
    for (auto& c : shard->counts) c.store(0, std::memory_order_relaxed);
    shard->sum.store(0.0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t n) {
  MECRA_CHECK(start > 0.0 && factor > 1.0 && n > 0);
  std::vector<double> bounds;
  bounds.reserve(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_latency_bounds() {
  return exponential_bounds(1e-6, 2.0, 27);
}

// --- MetricsRegistry ---

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MECRA_CHECK_MSG(!name.empty(), "instrument name must be non-empty");
  const util::LockGuard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MECRA_CHECK_MSG(!name.empty(), "instrument name must be non-empty");
  const util::LockGuard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  MECRA_CHECK_MSG(!name.empty(), "instrument name must be non-empty");
  const util::LockGuard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds();
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::string(name), std::move(bounds))))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::reset() {
  const util::LockGuard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const util::LockGuard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  return snap;
}

}  // namespace mecra::obs
