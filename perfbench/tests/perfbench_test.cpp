// Tests of the benchmark itself: percentile selection, self-time
// arithmetic, the ratio definitions, the metric tables against
// BENCHMARK.json, and a tiny-size smoke run of every workload in both modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(Percentile, NearestRankOnExactSamples) {
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(percentile(one_to(1000), 0.50), 500.0);
  EXPECT_EQ(percentile(one_to(2000), 0.99), 1980.0);
}

TEST(Percentile, RefusesP99WithFewerThanTenSamplesBeyondIt) {
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_TRUE(percentile(one_to(1000), 0.99).has_value());
  EXPECT_FALSE(percentile(one_to(19), 0.50).has_value());
  EXPECT_EQ(percentile(one_to(20), 0.50), 10.0);
  EXPECT_FALSE(percentile({}, 0.50).has_value());
}

TEST(Percentile, ARefusedMetricFailsTheRun) {
  Report rep;
  rep.set_percentile("op_ms_p99", one_to(500), 0.99, 1e3);
  EXPECT_FALSE(rep.correct);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_EQ(rep.get("op_ms_p99"), 0.0);

  Report ok;
  ok.set_percentile("op_ms_p99", one_to(1000), 0.99, 1e3);
  EXPECT_TRUE(ok.correct);
  EXPECT_EQ(ok.get("op_ms_p99"), 990e3);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, NestedSpansSubtractTheirChildrensCoverage) {
  Trace t;
  const auto root = static_cast<std::int32_t>(t.add({"root", 0.0, 10.0, -1}));
  const auto a = static_cast<std::int32_t>(t.add({"a", 1.0, 4.0, root}));
  t.add({"b", 3.0, 6.0, root});  // overlaps a: root is covered on [1, 6]
  t.add({"c", 2.0, 3.0, a});
  t.add({"d", 9.0, 12.0, root});  // clipped to the root's end: [9, 10]
  const std::vector<double> self = self_times(t.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
}

TEST(SelfTime, UnattributedShareIsTheRootsSelfTime) {
  Trace t;
  const auto root = static_cast<std::int32_t>(t.add({"root", 0.0, 10.0, -1}));
  const auto a = static_cast<std::int32_t>(t.add({"layer.a", 1.0, 4.0, root}));
  t.add({"layer.c", 2.0, 3.0, a});
  t.add({"layer.b", 5.0, 9.0, root});
  t.add({"layer.c", 6.0, 7.0, static_cast<std::int32_t>(3)});
  const Attribution at = attribute(t.spans());
  EXPECT_DOUBLE_EQ(at.wall_s, 10.0);
  EXPECT_DOUBLE_EQ(at.attributed_s, 7.0);
  EXPECT_DOUBLE_EQ(at.unattributed_share(), 0.3);
  ASSERT_EQ(at.layers.size(), 3u);
  EXPECT_EQ(at.layers[0].name, "layer.b");  // self 3
  EXPECT_DOUBLE_EQ(at.layers[0].self_s, 3.0);
  EXPECT_EQ(at.layers[1].name, "layer.a");  // self 2
  EXPECT_EQ(at.layers[2].name, "layer.c");  // two calls, self 1 each
  EXPECT_EQ(at.layers[2].calls, 2u);
  EXPECT_DOUBLE_EQ(at.layers[2].self_s, 2.0);
}

TEST(SelfTime, BenchSpansAreNotALayer) {
  // The benchmark's own spans cover the whole root, yet only the layer
  // spans inside them count as attributed.
  Trace t;
  const auto root = static_cast<std::int32_t>(t.add({"root", 0.0, 10.0, -1}));
  const auto gen =
      static_cast<std::int32_t>(t.add({"bench.generate", 0.0, 9.0, root}));
  t.add({"layer.a", 1.0, 7.0, gen});
  t.add({"bench.check", 9.0, 10.0, root});
  const Attribution at = attribute(t.spans());
  EXPECT_DOUBLE_EQ(at.wall_s, 10.0);
  EXPECT_DOUBLE_EQ(at.attributed_s, 6.0);
  EXPECT_DOUBLE_EQ(at.bench_s, 4.0);
  EXPECT_DOUBLE_EQ(at.unattributed_share(), 0.4);
  ASSERT_EQ(at.layers.size(), 3u);
  EXPECT_EQ(at.layers[0].name, "layer.a");
}

TEST(SelfTime, ScopedSpansNestOnTheCallStack) {
  Trace t;
  {
    Scoped outer(&t, "outer", 7);
    { Scoped inner(&t, "inner"); }
    { Scoped inner(&t, "inner"); }
  }
  { Scoped next(&t, "next"); }
  { Scoped off(nullptr, "ignored"); }
  const std::vector<Span>& s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[0].id, 7);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  for (const Span& span : s) EXPECT_LE(span.start, span.end);
  EXPECT_LE(s[1].end, s[2].start);
}

TEST(Ratios, DecisionTallyOnAHandBuiltSequence) {
  DecisionTally t;
  t.admit(0.96, 0.95);          // met
  t.admit(0.90, 0.95);          // admitted below its expectation
  t.reject();                   // counts as decided, not admitted, not met
  t.admit(0.95 - 1e-13, 0.95);  // within finalize_result's tolerance
  EXPECT_EQ(t.decided, 4u);
  EXPECT_EQ(t.admitted, 3u);
  EXPECT_EQ(t.met, 2u);
  EXPECT_DOUBLE_EQ(t.admit_ratio(), 0.75);
  EXPECT_DOUBLE_EQ(t.expectation_met_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(t.quality_ratio(),
                   (0.96 + 0.90 + (0.95 - 1e-13)) / 0.95 / 3.0);

  EXPECT_DOUBLE_EQ(DecisionTally{}.admit_ratio(), 0.0);
}

TEST(Ratios, ShareOfAHandBuiltServingTrace) {
  // Two windows: the driver generates, submits, then waits on admission.
  Trace t;
  const auto serve =
      static_cast<std::int32_t>(t.add({"bench.serve", 0, 20, -1}));
  for (int w = 0; w < 2; ++w) {
    const double o = 10.0 * w;
    const auto cell = static_cast<std::int32_t>(
        t.add({"bench.generate", o, o + 10, serve, w}));
    t.add({"orchestrator.streaming.submit", o + 0, o + 1, cell, 2 * w});
    t.add({"orchestrator.streaming.submit", o + 1, o + 2, cell, 2 * w + 2});
    t.add({"orchestrator.streaming.wait", o + 3, o + 9, cell, w});
  }
  EXPECT_DOUBLE_EQ(
      share(t.spans(), "orchestrator.streaming.wait", "bench.serve"),
      12.0 / 20.0);
  EXPECT_DOUBLE_EQ(mean(durations(t.spans(), "orchestrator.streaming.submit")),
                   1.0);
  EXPECT_DOUBLE_EQ(share(t.spans(), "missing", "bench.serve"), 0.0);
  EXPECT_DOUBLE_EQ(share(t.spans(), "bench.serve", "missing"), 0.0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_table(const mecra::io::Json& list,
                  const std::vector<MetricSpec>& specs) {
  const mecra::io::JsonArray& arr = list.as_array();
  ASSERT_EQ(arr.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const mecra::io::JsonObject& m = arr[i].as_object();
    EXPECT_EQ(m.at("name").as_string(), specs[i].name);
    EXPECT_EQ(m.at("unit").as_string(), specs[i].unit);
  }
}

TEST(Metrics, ResultLineIsJsonWithEveryDigit) {
  Report rep;
  rep.attempted = 3;
  rep.set("setup_s", 0.012345678901234567);
  rep.set("ops_per_s", 88351.44);
  const mecra::io::Json json =
      mecra::io::Json::parse(rep.json(end_to_end_metrics()));
  const mecra::io::JsonObject& o = json.as_object();
  EXPECT_EQ(o.keys(), (std::vector<std::string>{"correct", "attempted",
                                                "failed", "metrics"}));
  const mecra::io::JsonObject& m = o.at("metrics").as_object();
  EXPECT_EQ(m.at("setup_s").as_object().at("value").as_double(),
            0.012345678901234567);
  EXPECT_EQ(m.at("ops_per_s").as_object().at("value").as_double(), 88351.44);
  EXPECT_EQ(m.at("recover_s").as_object().at("value").as_double(), 0.0);
  EXPECT_EQ(m.at("ops_per_s").as_object().at("unit").as_string(), "1/s");
}

TEST(Metrics, TablesMatchBenchmarkJson) {
  const std::string text = slurp(PERFBENCH_BENCHMARK_JSON);
  ASSERT_FALSE(text.empty()) << PERFBENCH_BENCHMARK_JSON;
  const mecra::io::Json json = mecra::io::Json::parse(text);
  const mecra::io::JsonObject& o = json.as_object();
  expect_table(o.at("end_to_end"), end_to_end_metrics());
  expect_table(o.at("per_layer"), per_layer_metrics());
  std::vector<std::string> names;
  for (const mecra::io::Json& w : o.at("workloads").as_array()) {
    names.push_back(w.as_object().at("name").as_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"stream_durable", "serial_admit",
                                             "paper_solve"}));
}

/// Every metric of the mode's table is printed by name with its unit.
void expect_printed(const Report& rep, const std::vector<MetricSpec>& specs) {
  const mecra::io::Json json = mecra::io::Json::parse(rep.json(specs));
  const mecra::io::JsonObject& o = json.as_object();
  EXPECT_TRUE(o.at("correct").as_bool());
  EXPECT_GE(o.at("attempted").as_int(), 1);
  EXPECT_EQ(o.at("failed").as_int(), 0);
  const mecra::io::JsonObject& metrics = o.at("metrics").as_object();
  EXPECT_EQ(metrics.size(), specs.size());
  for (const MetricSpec& spec : specs) {
    ASSERT_TRUE(metrics.contains(std::string(spec.name))) << spec.name;
    const mecra::io::JsonObject& m =
        metrics.at(std::string(spec.name)).as_object();
    EXPECT_EQ(m.at("unit").as_string(), spec.unit) << spec.name;
  }
}

using Runner = Report (*)(const RunOptions&, Trace&);

void smoke(Runner run) {
  RunOptions options;
  options.seconds = 0.0;
  options.tiny = true;
  {
    Trace trace;
    const Report rep = run(options, trace);
    for (const std::string& e : rep.errors) ADD_FAILURE() << e;
    expect_printed(rep, end_to_end_metrics());
    for (const MetricSpec& spec : end_to_end_metrics()) {
      EXPECT_GT(rep.get(spec.name).value_or(0.0), 0.0) << spec.name;
    }
    EXPECT_TRUE(trace.spans().empty());
  }
  options.trace = true;
  Trace trace;
  const Report rep = run(options, trace);
  for (const std::string& e : rep.errors) ADD_FAILURE() << e;
  expect_printed(rep, per_layer_metrics());
  EXPECT_LE(print_attribution("smoke", trace), 0.05);
}

TEST(Smoke, StreamDurableTinyRunPrintsEveryMetric) {
  smoke(run_stream_durable);
}
TEST(Smoke, SerialAdmitTinyRunPrintsEveryMetric) { smoke(run_serial_admit); }
TEST(Smoke, PaperSolveTinyRunPrintsEveryMetric) { smoke(run_paper_solve); }

}  // namespace
}  // namespace perfbench
