// In-memory spans, exact-sample statistics and the metric table of the
// benchmark. Everything here is plain arithmetic on recorded numbers, so the
// benchmark's own tests (tests/perfbench_test.cpp) exercise it directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (only differences are meaningful).
[[nodiscard]] double now_s();

// --- statistics over exact per-op samples ---

/// Samples a percentile needs beyond its rank before it is reported.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile q in (0, 1) of `samples`: the value at rank
/// ceil(q * n) of the sorted samples. Refuses (nullopt) when fewer than
/// kMinTail samples lie beyond that rank, so a p99 needs at least 1000
/// samples and a p50 at least 20.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Median of a small set of repeated measurements (mean of the two middle
/// values for even counts); 0 for an empty set. Used for per-round
/// estimates such as set-up time, where the tail rule does not apply.
[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// a / b, or 0 when b is 0 (a ratio over no attempts).
[[nodiscard]] double ratio(double a, double b);

/// Admission decisions and the three ratios the orchestrator workloads
/// report over them.
struct DecisionTally {
  std::uint64_t decided = 0;
  std::uint64_t admitted = 0;
  /// Admitted with Eq. (1) reliability >= expectation (tolerance 1e-12,
  /// as core::finalize_result).
  std::uint64_t met = 0;
  /// Sum over admitted candidates of reliability / expectation.
  double quality_sum = 0.0;

  void reject() { ++decided; }
  void admit(double reliability, double expectation);
  friend bool operator==(const DecisionTally&,
                         const DecisionTally&) = default;

  /// admitted / decided.
  [[nodiscard]] double admit_ratio() const;
  /// met / decided: a rejection counts as a missed expectation.
  [[nodiscard]] double expectation_met_ratio() const;
  /// Mean reliability / expectation over admitted candidates.
  [[nodiscard]] double quality_ratio() const;
};

// --- spans ---

/// One timed call. `parent` indexes the enclosing span in the same trace
/// (-1 for a root); `id` is the window sequence number or request ticket
/// the call served (-1 when neither applies).
struct Span {
  std::string_view name;
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;
  std::int64_t id = -1;
};

/// Spans of one thread, kept in memory until the run ends. Spans nest
/// strictly: open() pushes onto the stack, close() pops.
class Trace {
 public:
  /// Span names must outlive the trace (string literals in practice).
  std::size_t open(std::string_view name, std::int64_t id = -1);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Appends a finished span directly (tests and hand-built traces).
  std::size_t add(Span span);

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on a trace; a null trace records nothing (the untraced mode
/// runs the same code with tracing off).
class Scoped {
 public:
  Scoped(Trace* trace, std::string_view name, std::int64_t id = -1)
      : trace_(trace), index_(trace != nullptr ? trace->open(name, id) : 0) {}
  ~Scoped() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace* trace_;
  std::size_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are merged, and each
/// child is clipped to the parent's interval).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Per-name totals over a trace.
struct LayerTime {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Spans named with this prefix time the benchmark's own code (load
/// generation, output checks), not a layer of the program.
inline constexpr std::string_view kBenchPrefix = "bench.";

struct Attribution {
  /// Summed duration of the root spans: the traced wall time.
  double wall_s = 0.0;
  /// Summed self time of the program's layers: every non-root span
  /// outside kBenchPrefix.
  double attributed_s = 0.0;
  /// Summed self time of the benchmark's own non-root spans.
  double bench_s = 0.0;
  /// Non-root span names, layers and bench.* alike, heaviest self time
  /// first.
  std::vector<LayerTime> layers;

  /// Share of the traced wall time that no layer of the program accounts
  /// for: the benchmark's own self time plus time no span covers.
  [[nodiscard]] double unattributed_share() const {
    return wall_s > 0.0 ? 1.0 - attributed_s / wall_s : 0.0;
  }
};

[[nodiscard]] Attribution attribute(const std::vector<Span>& spans);

/// Durations of every span named `name`, in seconds.
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            std::string_view name);

/// Summed duration of every span named `name`, in seconds.
[[nodiscard]] double total_duration(const std::vector<Span>& spans,
                                    std::string_view name);

/// Summed duration of the spans named `part` over that of the spans named
/// `whole` (for example driver wait over the timed serving region).
[[nodiscard]] double share(const std::vector<Span>& spans,
                           std::string_view part, std::string_view whole);

// --- metrics ---

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Every end-to-end metric (untraced run) and every per-layer metric
/// (traced run), in print order. BENCHMARK.json lists the same names and
/// units (checked by the tests).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// What one invocation prints as its last line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed output checks (printed to stderr; any entry makes the run
  /// incorrect).
  std::vector<std::string> errors;
  /// Values by metric name; every metric of the mode's table is printed,
  /// and a layer the workload never calls reads 0.
  std::vector<std::pair<std::string, double>> values;

  void check(bool ok, const std::string& what);
  void set(std::string_view name, double value);
  /// The q-percentile of `samples`, or 0 after failing the run when it
  /// was refused (`name` labels the failure).
  double checked_percentile(std::string_view name,
                            const std::vector<double>& samples, double q);
  /// Sets a percentile metric, failing the run when it was refused.
  void set_percentile(std::string_view name, const std::vector<double>& samples,
                      double q, double scale);
  [[nodiscard]] std::optional<double> get(std::string_view name) const;

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
  /// {name: {"value": v, "unit": u}, ...}} over `specs`.
  [[nodiscard]] std::string json(const std::vector<MetricSpec>& specs) const;
};

/// Prints one untraced round's figures to stdout (diagnostics; the JSON
/// result stays the last line).
void print_round(const char* workload, std::size_t round, double ops_per_s,
                 double p50_ms, double p99_ms, double setup_s,
                 double recover_s, double steal);

/// Prints the traced passes' span table (name, calls, total, self) to
/// stdout, then the benchmark's own self time and the time no span covers,
/// and returns the unattributed share of the traced wall time.
double print_attribution(const std::string& workload, const Trace& trace);

}  // namespace perfbench
