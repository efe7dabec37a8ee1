// Tests for the observability subsystem: histogram bucket-edge semantics,
// concurrent counters from thread-pool workers, span parent/child nesting,
// registry reset between sim epochs, and the JSON exporter / run-report
// round-trip through io::Json::parse.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/report.h"
#include "util/thread_pool.h"

namespace mecra::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "obs compiled out (MECRA_OBS=OFF)";
    set_enabled(true);
    TraceRing::global().clear();
  }
};

// ------------------------------------------------------------- histograms

TEST_F(ObsTest, HistogramBucketEdgesAreUpperInclusive) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0, 4.0});
  // Prometheus "le" semantics: a value EQUAL to a bound lands in that
  // bound's bucket, not the next one.
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (edge)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1 (edge)
  h.observe(4.0);  // bucket 2 (last finite edge)
  h.observe(4.1);  // overflow
  h.observe(9.0);  // overflow

  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  ASSERT_EQ(s.counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 + 9.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST_F(ObsTest, HistogramEmptySnapshotAndDefaultBounds) {
  MetricsRegistry reg;
  const Histogram::Snapshot s = reg.histogram("empty").snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_EQ(s.bounds, Histogram::default_latency_bounds());
  EXPECT_EQ(s.counts.size(), s.bounds.size() + 1);

  const auto exp = Histogram::exponential_bounds(1e-6, 2.0, 5);
  ASSERT_EQ(exp.size(), 5u);
  for (std::size_t i = 1; i < exp.size(); ++i) {
    EXPECT_DOUBLE_EQ(exp[i], exp[i - 1] * 2.0);
  }
}

// --------------------------------------------------------------- counters

TEST_F(ObsTest, ConcurrentCounterIncrementsFromThreadPoolWorkers) {
  MetricsRegistry reg;
  Counter& hits = reg.counter("hits");
  Counter& weighted = reg.counter("weighted");
  constexpr std::size_t kTasks = 20000;
  util::parallel_for(kTasks, 8, [&](std::size_t i) {
    hits.add(1);
    weighted.add(i % 3);
  });
  EXPECT_EQ(hits.value(), kTasks);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kTasks; ++i) expected += i % 3;
  EXPECT_EQ(weighted.value(), expected);
}

TEST_F(ObsTest, DisabledInstrumentsRecordNothing) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", {1.0});
  set_enabled(false);
  c.add(5);
  g.set(3.0);
  h.observe(0.5);
  {
    const TraceSpan span("inert");
    EXPECT_FALSE(span.active());
  }
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(TraceRing::global().snapshot().empty());
}

// ------------------------------------------------------------------ spans

TEST_F(ObsTest, SpanParentChildNesting) {
  {
    TraceSpan outer("outer");
    outer.attr("depth", 0);
    {
      TraceSpan inner("inner");
      inner.attr("depth", 1);
    }
    { const TraceSpan sibling("sibling"); }
  }
  const auto events = TraceRing::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: children close before their parent.
  const SpanEvent& inner = events[0];
  const SpanEvent& sibling = events[1];
  const SpanEvent& outer = events[2];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(sibling.name, "sibling");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(sibling.parent, outer.id);
  EXPECT_NE(inner.id, sibling.id);
  // Children are temporally contained in the parent.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(sibling.end_ns, outer.end_ns);
  ASSERT_EQ(inner.attrs.size(), 1u);
  EXPECT_EQ(inner.attrs[0].first, "depth");
  EXPECT_DOUBLE_EQ(inner.attrs[0].second, 1.0);
}

TEST_F(ObsTest, TraceRingBoundsAndDropCounts) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    SpanEvent e;
    e.id = static_cast<std::uint64_t>(i + 1);
    e.name = std::string("s").append(std::to_string(i));
    ring.push(std::move(e));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto held = ring.snapshot();
  ASSERT_EQ(held.size(), 4u);
  // Oldest surviving first: s6..s9.
  EXPECT_EQ(held.front().name, "s6");
  EXPECT_EQ(held.back().name, "s9");
}

TEST_F(ObsTest, TopSpansOrdersByDuration) {
  std::vector<SpanEvent> events(3);
  events[0].name = "short";
  events[0].start_ns = 0;
  events[0].end_ns = 10;
  events[1].name = "long";
  events[1].start_ns = 5;
  events[1].end_ns = 105;
  events[2].name = "mid";
  events[2].start_ns = 2;
  events[2].end_ns = 52;
  const auto top = top_spans(events, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "long");
  EXPECT_EQ(top[1].name, "mid");
}

TEST_F(ObsTest, TopSpansTieBreaksOnIdForATotalOrder) {
  // Spans tying on (duration, start) are the normal case under a coarse
  // clock; they must come out in id order regardless of input order, not
  // in std::sort's implementation-defined tie order (which would make
  // span reports diff run-to-run).
  const std::uint64_t shuffled_ids[] = {42, 7, 99, 13};
  std::vector<SpanEvent> events(4);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].id = shuffled_ids[i];
    events[i].name = "tied";
    events[i].start_ns = 100;
    events[i].end_ns = 200;
  }
  const auto top = top_spans(events, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].id, 7u);
  EXPECT_EQ(top[1].id, 13u);
  EXPECT_EQ(top[2].id, 42u);
  EXPECT_EQ(top[3].id, 99u);
}

// ----------------------------------------------------------------- epochs

TEST_F(ObsTest, RegistryResetBetweenEpochsKeepsRegistrations) {
  MetricsRegistry reg;
  reg.counter("epoch.count").add(7);
  reg.gauge("epoch.gauge").set(2.5);
  reg.histogram("epoch.hist", {1.0}).observe(0.5);

  reg.reset();  // epoch boundary: zero values, keep instruments

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "epoch.count");
  EXPECT_EQ(snap.counters[0].value, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].data.count, 0u);

  // Cached references stay valid and record into epoch 2.
  reg.counter("epoch.count").add(3);
  EXPECT_EQ(reg.counter("epoch.count").value(), 3u);
}

// ---------------------------------------------- collapsed-stack exporter

TEST_F(ObsTest, CollapsedExportFoldsStacksAndSubtractsChildTime) {
  // Hand-built span tree (times in ns):
  //   root [0, 10000] -> child [1000, 4000] twice the same name,
  //   plus an orphan whose parent was evicted from the ring.
  std::vector<SpanEvent> spans;
  SpanEvent root;
  root.id = 1;
  root.parent = 0;
  root.name = "root op";  // space must sanitize to '_'
  root.start_ns = 0;
  root.end_ns = 10000;
  SpanEvent child1;
  child1.id = 2;
  child1.parent = 1;
  child1.name = "child";
  child1.start_ns = 1000;
  child1.end_ns = 4000;
  SpanEvent child2 = child1;
  child2.id = 3;
  child2.start_ns = 5000;
  child2.end_ns = 8000;
  SpanEvent orphan;
  orphan.id = 4;
  orphan.parent = 99;  // not in the set: roots its own stack
  orphan.name = "orphan";
  orphan.start_ns = 0;
  orphan.end_ns = 2000;
  spans = {root, child1, child2, orphan};

  std::ostringstream out;
  export_collapsed(spans, out);
  // Deterministic (sorted) stack order; self time in integer µs:
  // root = 10 − 3 − 3 = 4, the two childs aggregate to 6, orphan 2.
  EXPECT_EQ(out.str(),
            "orphan 2\n"
            "root_op 4\n"
            "root_op;child 6\n");
}

TEST_F(ObsTest, CollapsedExportOfGlobalRingCoversLiveSpans) {
  TraceRing::global().clear();
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  std::ostringstream out;
  export_collapsed(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("outer "), std::string::npos);
  EXPECT_NE(text.find("outer;inner "), std::string::npos);
}

// -------------------------------------------------- JSON export round-trip

TEST_F(ObsTest, JsonExporterRoundTripsThroughIoJson) {
  MetricsRegistry reg;
  reg.counter("a.count").add(12);
  reg.gauge("b.gauge").set(0.75);
  Histogram& h = reg.histogram("c.hist", {1.0, 2.0});
  h.observe(0.5);
  h.observe(3.0);

  std::vector<SpanEvent> spans(1);
  spans[0].id = 9;
  spans[0].parent = 4;
  spans[0].name = "solve";
  spans[0].start_ns = 100;
  spans[0].end_ns = 450;
  spans[0].thread = 2;
  spans[0].attrs = {{"nodes", 17.0}};

  const std::string text = to_json(reg.snapshot(), spans, 41, 3);
  const io::Json doc = io::Json::parse(text);

  const io::JsonObject& metrics = doc.as_object().at("metrics").as_object();
  const auto& counters = metrics.at("counters").as_array();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].as_object().at("name").as_string(), "a.count");
  EXPECT_EQ(counters[0].as_object().at("value").as_int(), 12);
  EXPECT_DOUBLE_EQ(metrics.at("gauges").as_array()[0].as_object()
                       .at("value").as_double(), 0.75);
  const io::JsonObject& hist =
      metrics.at("histograms").as_array()[0].as_object();
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_EQ(hist.at("bounds").as_array().size(), 2u);
  EXPECT_EQ(hist.at("counts").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("max").as_double(), 3.0);

  const io::JsonObject& span_block = doc.as_object().at("spans").as_object();
  EXPECT_EQ(span_block.at("recorded").as_int(), 41);
  EXPECT_EQ(span_block.at("dropped").as_int(), 3);
  const io::JsonObject& span = span_block.at("top").as_array()[0].as_object();
  EXPECT_EQ(span.at("name").as_string(), "solve");
  EXPECT_EQ(span.at("duration_ns").as_int(), 350);
  EXPECT_DOUBLE_EQ(span.at("attrs").as_object().at("nodes").as_double(),
                   17.0);
}

TEST_F(ObsTest, GlobalExportAndTablesRender) {
  MetricsRegistry::global().counter("obs_test.touch").add(1);
  { const TraceSpan s("obs_test.span"); }
  const io::Json doc = io::Json::parse(global_to_json(8));
  EXPECT_TRUE(doc.as_object().contains("metrics"));
  EXPECT_TRUE(doc.as_object().contains("spans"));

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_GE(metrics_table(snap).num_rows(), 1u);
  EXPECT_GE(spans_table(TraceRing::global().snapshot()).num_rows(), 1u);
}

// ------------------------------------------------- run-report integration

TEST_F(ObsTest, RunReportValidatesAgainstSchema) {
  MetricsRegistry::global().counter("report.calls").add(2);
  { const TraceSpan s("report.span"); }

  const std::string path =
      ::testing::TempDir() + "/mecra_obs_test_report.json";
  sim::write_run_report(
      path, sim::run_context("obs_test", 42, 3, {"ILP", "Heuristic"}));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const io::Json doc = io::Json::parse(text);
  const io::JsonObject& root = doc.as_object();
  EXPECT_EQ(root.at("schema").as_string(), "mecra.run_report/v1");

  const io::JsonObject& ctx = root.at("context").as_object();
  EXPECT_EQ(ctx.at("producer").as_string(), "obs_test");
  EXPECT_EQ(ctx.at("seed").as_int(), 42);
  EXPECT_EQ(ctx.at("trials").as_int(), 3);
  EXPECT_EQ(ctx.at("algorithms").as_array()[1].as_string(), "Heuristic");

  bool saw_counter = false;
  for (const io::Json& c :
       root.at("metrics").as_object().at("counters").as_array()) {
    if (c.as_object().at("name").as_string() == "report.calls") {
      EXPECT_EQ(c.as_object().at("value").as_int(), 2);
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_GE(root.at("spans").as_object().at("recorded").as_int(), 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mecra::obs
