#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "io/json.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank, 1-based: the smallest rank r with r >= q * n.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void DecisionTally::admit(double reliability, double expectation) {
  ++decided;
  ++admitted;
  if (reliability >= expectation - 1e-12) ++met;
  quality_sum += reliability / expectation;
}

double DecisionTally::admit_ratio() const {
  return ratio(static_cast<double>(admitted), static_cast<double>(decided));
}

double DecisionTally::expectation_met_ratio() const {
  return ratio(static_cast<double>(met), static_cast<double>(decided));
}

double DecisionTally::quality_ratio() const {
  return ratio(quality_sum, static_cast<double>(admitted));
}

std::size_t Trace::open(std::string_view name, std::int64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  s.start = now_s();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::close(std::size_t index) {
  spans_[index].end = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::size_t Trace::add(Span span) {
  spans_.push_back(span);
  return spans_.size() - 1;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const double a = std::max(spans[c].start, s.start);
      const double b = std::min(spans[c].end, s.end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_a = 0.0;
    double run_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

Attribution attribute(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  Attribution out;
  std::map<std::string_view, LayerTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      out.wall_s += s.end - s.start;
      continue;
    }
    (s.name.starts_with(kBenchPrefix) ? out.bench_s : out.attributed_s) +=
        self[i];
    LayerTime& l = by_name[s.name];
    l.name = std::string(s.name);
    ++l.calls;
    l.total_s += s.end - s.start;
    l.self_s += self[i];
  }
  for (auto& [name, layer] : by_name) out.layers.push_back(std::move(layer));
  std::sort(out.layers.begin(), out.layers.end(),
            [](const LayerTime& a, const LayerTime& b) {
              return a.self_s != b.self_s ? a.self_s > b.self_s
                                          : a.name < b.name;
            });
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double total_duration(const std::vector<Span>& spans, std::string_view name) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double share(const std::vector<Span>& spans, std::string_view part,
             std::string_view whole) {
  return ratio(total_duration(spans, part), total_duration(spans, whole));
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_ms_p50", "ms"},
      {"op_ms_p99", "ms"},
      {"admit_ratio", "ratio"},
      {"expectation_met_ratio", "ratio"},
      {"quality_ratio", "ratio"},
      {"recover_s", "s"},
      {"recover_rss_mb", "MB"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // orchestrator: streaming service (stream_durable)
      {"orchestrator.streaming.admit_stage_ms_p50", "ms"},
      {"orchestrator.streaming.admit_stage_ms_p99", "ms"},
      {"orchestrator.streaming.commit_stage_ms_p50", "ms"},
      {"orchestrator.streaming.commit_stage_ms_p99", "ms"},
      {"orchestrator.streaming.commit_wait_ms_p50", "ms"},
      {"orchestrator.streaming.driver_wait_share", "ratio"},
      {"orchestrator.streaming.submit_us_mean", "us"},
      {"orchestrator.streaming.candidates_per_window", "count"},
      // orchestrator kernel and util pool (stream_durable replay)
      {"orchestrator.batch.admit_ms_p50", "ms"},
      {"orchestrator.batch.admit_ms_p99", "ms"},
      {"orchestrator.batch.fallback_share", "ratio"},
      {"orchestrator.controller.us_per_window", "us"},
      {"orchestrator.teardown_us_mean", "us"},
      {"process.cpu_per_wall", "ratio"},
      {"util.pool.admit_ms_p50", "ms"},
      {"util.pool.speedup", "ratio"},
      // orchestrator journal and io (stream_durable)
      {"orchestrator.journal.capture_us_per_window", "us"},
      {"orchestrator.journal.append_us_per_window", "us"},
      {"orchestrator.journal.flush_us_p50", "us"},
      {"orchestrator.journal.flush_us_p99", "us"},
      {"orchestrator.journal.bytes_per_window", "B"},
      {"orchestrator.journal.scan_s", "s"},
      {"orchestrator.journal.replay_s", "s"},
      {"orchestrator.journal.snapshot_ms", "ms"},
      // admission, core and matching (serial_admit replay)
      {"admission.place_us_p50", "us"},
      {"admission.reject_share", "ratio"},
      {"core.model_build_us_p50", "us"},
      {"core.arena_reuse_ratio", "ratio"},
      {"core.augment_heuristic_us_p50", "us"},
      {"core.augment_heuristic_us_p99", "us"},
      {"core.instance_items_mean", "count"},
      {"core.validate_apply_us_mean", "us"},
      {"orchestrator.admit_self_us", "us"},
      // core, ilp and lp (paper_solve)
      {"core.augment_ilp_ms_p50", "ms"},
      {"core.augment_ilp_ms_p99", "ms"},
      {"core.augment_randomized_ms_p50", "ms"},
      {"ilp.nodes_mean", "count"},
      {"ilp.nodes_p99", "count"},
      {"lp.pivots_per_ilp_mean", "count"},
      {"ilp.warm_hit_ratio", "ratio"},
      {"ilp.node_cap_hits", "count"},
      {"core.heuristic_vs_ilp", "ratio"},
      {"core.randomized_vs_ilp", "ratio"},
      // set-up: io, mec, sim
      {"io.network_load_ms", "ms"},
      {"mec.shard_map_build_ms", "ms"},
      {"sim.scenario_build_ms_mean", "ms"},
      // run context
      {"host.steal_share", "ratio"},
      {"trace.overhead", "ratio"},
      {"trace.unattributed_share", "ratio"},
  };
  return specs;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void Report::set(std::string_view name, double value) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(std::string(name), value);
}

double Report::checked_percentile(std::string_view name,
                                  const std::vector<double>& samples,
                                  double q) {
  const std::optional<double> p = percentile(samples, q);
  check(p.has_value(), std::string(name) + " refused: " +
                           std::to_string(samples.size()) +
                           " samples leave fewer than 10 beyond it");
  return p.value_or(0.0);
}

void Report::set_percentile(std::string_view name,
                            const std::vector<double>& samples, double q,
                            double scale) {
  set(name, checked_percentile(name, samples, q) * scale);
}

std::optional<double> Report::get(std::string_view name) const {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return std::nullopt;
}

std::string Report::json(const std::vector<MetricSpec>& specs) const {
  using mecra::io::Json;
  using mecra::io::JsonObject;
  JsonObject metrics;
  for (const MetricSpec& spec : specs) {
    const double v = get(spec.name).value_or(0.0);
    JsonObject m;
    m.set("value", Json(std::isfinite(v) ? v : 0.0));
    m.set("unit", Json(std::string(spec.unit)));
    metrics.set(std::string(spec.name), Json(std::move(m)));
  }
  JsonObject out;
  out.set("correct", Json(correct));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  out.set("metrics", Json(std::move(metrics)));
  return Json(std::move(out)).dump();
}

void print_round(const char* workload, std::size_t round, double ops_per_s,
                 double p50_ms, double p99_ms, double setup_s,
                 double recover_s, double steal) {
  std::printf("%s round %zu: %.1f ops/s, p50 %.4f ms, p99 %.4f ms, setup "
              "%.4f s, recover %.4f s, steal %.3f\n",
              workload, round, ops_per_s, p50_ms, p99_ms, setup_s, recover_s,
              steal);
}

double print_attribution(const std::string& workload, const Trace& trace) {
  const Attribution a = attribute(trace.spans());
  std::printf("%s traced wall %.3f s; layer self times:\n", workload.c_str(),
              a.wall_s);
  std::printf("  %-44s %10s %12s %12s %7s\n", "span", "calls", "total_ms",
              "self_ms", "share");
  for (const LayerTime& l : a.layers) {
    std::printf("  %-44s %10zu %12.3f %12.3f %6.2f%%\n", l.name.c_str(),
                l.calls, 1e3 * l.total_s, 1e3 * l.self_s,
                100.0 * ratio(l.self_s, a.wall_s));
  }
  const double uncovered = a.wall_s - a.attributed_s - a.bench_s;
  std::printf("  %-44s %10s %12s %12.3f %6.2f%%\n", "(bench.* self, no layer)",
              "", "", 1e3 * a.bench_s, 100.0 * ratio(a.bench_s, a.wall_s));
  std::printf("  %-44s %10s %12s %12.3f %6.2f%%\n", "(no span)", "", "",
              1e3 * uncovered, 100.0 * ratio(uncovered, a.wall_s));
  std::printf("  %-44s %10s %12s %12.3f %6.2f%%\n", "(unattributed)", "", "",
              1e3 * (a.wall_s - a.attributed_s),
              100.0 * a.unattributed_share());
  return a.unattributed_share();
}

}  // namespace perfbench
