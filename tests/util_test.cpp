// Unit tests for the util substrate: contracts, RNG determinism, streaming
// statistics, tables, CLI parsing, the thread pool, and the dense matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/cli.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mecra::util {
namespace {

// ---------------------------------------------------------------- check.h

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(MECRA_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsCheckFailure) {
  EXPECT_THROW(MECRA_CHECK(false), CheckFailure);
}

TEST(Check, MessageIsIncluded) {
  try {
    MECRA_CHECK_MSG(false, "the answer is 42");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"),
              std::string::npos);
  }
}

// ------------------------------------------------------------------ rng.h

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ChildStreamsAreIndependentOfDrawCount) {
  Rng a(99);
  Rng b(99);
  (void)b();  // advance b only
  (void)b();
  // child() derives from the construction seed, not the engine state.
  EXPECT_EQ(a.child(7)(), b.child(7)());
}

TEST(Rng, ChildStreamsDifferByIndex) {
  Rng a(99);
  EXPECT_NE(a.child(1)(), a.child(2)());
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(5);
  EXPECT_THROW((void)rng.uniform_int(3, 2), CheckFailure);
}

TEST(Rng, UniformStaysInHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 3.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRejectsOutOfRange) {
  Rng rng(5);
  EXPECT_THROW((void)rng.bernoulli(1.5), CheckFailure);
  EXPECT_THROW((void)rng.bernoulli(-0.1), CheckFailure);
}

TEST(Rng, CategoricalRespectsZeroWeights) {
  Rng rng(5);
  const std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.categorical(w), 1u);
  }
}

TEST(Rng, CategoricalApproximatesWeights) {
  Rng rng(5);
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.categorical(w) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(5);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW((void)rng.categorical(w), CheckFailure);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(10, 6);
  EXPECT_EQ(sample.size(), 6u);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 6u);
  for (std::size_t v : sample) EXPECT_LT(v, 10u);
}

TEST(Rng, SampleWithoutReplacementFullPermutation) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(3);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, DeriveSeedIsDeterministicAndSpread) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

// ---------------------------------------------------------------- stats.h

TEST(Stats, EmptyAccumulator) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, SingleSample) {
  Accumulator acc;
  acc.add(4.0);
  EXPECT_EQ(acc.mean(), 4.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 4.0);
  EXPECT_EQ(acc.max(), 4.0);
}

TEST(Stats, KnownMeanAndVariance) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of the classic data set: 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Stats, MergeMatchesSequential) {
  Accumulator all;
  Accumulator left;
  Accumulator right;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(Stats, MergeWithEmptySides) {
  Accumulator a;
  Accumulator b;
  a.add(1.0);
  a.merge(b);  // empty rhs
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // empty lhs
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(Stats, MeanStddevOfSpan) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.0);
  EXPECT_DOUBLE_EQ(stddev_of(v), 1.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

// ---------------------------------------------------------------- table.h

TEST(Table, RowWidthIsEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"x", "yy"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("x"), std::string::npos);
  EXPECT_NE(out.find("--"), std::string::npos);  // rule under the "yy" column
  EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"a"});
  t.add_row({"hello, \"world\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.97821, 2), "97.82%");
}

// ------------------------------------------------------------------ cli.h

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4", "pos1", "--flag"};
  CliArgs args(6, argv, {"alpha", "beta", "flag"});
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv, {"missing"});
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv, {"n"});
  EXPECT_THROW((void)args.get_int("n", 0), CheckFailure);
  EXPECT_THROW((void)args.get_double("n", 0), CheckFailure);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1"};
  CliArgs args(4, argv, {"a", "b", "c"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

// A key the driver does not read fails the run and names the accepted
// keys; --help names them and succeeds. A misspelt gate flag
// (--check-agaisnt) must not fall through to an ungated run.
TEST(Cli, UnknownKeyFailsAndHelpListsTheKeys) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* typo[] = {"prog", "--check-agaisnt", "BENCH.json"};
  EXPECT_EXIT(CliArgs(3, typo, {"quick", "check-against"}),
              ::testing::ExitedWithCode(2),
              "unknown option --check-agaisnt(.|\n)*--quick --check-against");
  const char* help[] = {"prog", "--help"};
  EXPECT_EXIT(
      {
        std::cout.rdbuf(std::cerr.rdbuf());  // the matcher reads stderr
        CliArgs(2, help, {"quick", "check-against"});
      },
      ::testing::ExitedWithCode(0), "options: --quick --check-against");
  const char* ok[] = {"prog", "--quick"};
  CliArgs args(2, ok, {"quick", "check-against"});
  EXPECT_TRUE(args.get_bool("quick", false));
  EXPECT_FALSE(args.has("check-against"));
  EXPECT_THROW((void)args.get("out", ""), CheckFailure);  // undeclared read
}

// ---------------------------------------------------------------- matrix.h

TEST(Matrix, ShapeAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 1.5);
  m.fill(0.0);
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, RowSpansAliasStorage) {
  Matrix m(2, 2);
  m.row(1)[0] = 7.0;
  EXPECT_EQ(m(1, 0), 7.0);
}

TEST(Matrix, ResetChangesShape) {
  Matrix m(2, 2, 1.0);
  m.reset(3, 1, 2.0);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_EQ(m(2, 0), 2.0);
}

// ------------------------------------------------------------ thread_pool.h

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyLoopIsFine) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([] {});
  EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.stopped());
  pool.stop();
  EXPECT_TRUE(pool.stopped());
  EXPECT_THROW((void)pool.submit([] {}), CheckFailure);
  pool.stop();  // idempotent: a second stop (and the destructor) is fine
  EXPECT_TRUE(pool.stopped());
}

TEST(ThreadPool, QueuedTasksDrainBeforeStopReturns) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([&] { ran++; }));
    }
    pool.stop();  // must wait for all 16, not drop the queue
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ExceptionPropagationUnderContention) {
  // Stress: many concurrent parallel_for waves, each with several throwing
  // indices, racing on a small pool. Every wave must (a) rethrow one of
  // its own exceptions and (b) still run every non-throwing index — no
  // lost blocks, no cross-wave leakage, no deadlock.
  ThreadPool pool(4);
  constexpr std::size_t kWaves = 50;
  constexpr std::size_t kIndices = 64;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::atomic<int>> hits(kIndices);
    bool threw = false;
    try {
      pool.parallel_for(kIndices, [&](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error("wave boom");
        hits[i]++;
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "wave boom");
    }
    EXPECT_TRUE(threw);
    for (std::size_t i = 0; i < kIndices; ++i) {
      if (i % 7 == 3) continue;
      // parallel_for skips indices after a throw only within the same
      // block; whole blocks are never dropped, so an index either threw
      // or shares a block with an earlier throwing index.
      EXPECT_LE(hits[i].load(), 1);
    }
    // At least the indices before the first throwing one in each block ran.
    EXPECT_GE(std::accumulate(hits.begin(), hits.end(), 0,
                              [](int acc, const std::atomic<int>& h) {
                                return acc + h.load();
                              }),
              static_cast<int>(kIndices / 7));
  }
}

TEST(ThreadPool, FreeFunctionSerialPath) {
  std::vector<int> hits(10, 0);
  parallel_for(10, 1, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelMatchesSerialWithDerivedStreams) {
  // The determinism pattern used by the runner: every index derives its own
  // child stream, so thread scheduling cannot change results.
  auto run = [](std::size_t threads) {
    std::vector<double> out(32);
    parallel_for(32, threads, [&](std::size_t i) {
      Rng rng = Rng(42).child(i);
      out[i] = rng.uniform01();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------- timer.h

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

TEST(Timer, StopwatchAccumulates) {
  StopwatchAccumulator sw;
  sw.start();
  sw.stop();
  const double first = sw.total_seconds();
  sw.start();
  sw.stop();
  EXPECT_GE(sw.total_seconds(), first);
}

}  // namespace
}  // namespace mecra::util

// Appended: exponential draws for the dynamic simulator.
namespace mecra::util {
namespace {

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(99);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 4.0, 0.12);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(99);
  EXPECT_THROW((void)rng.exponential(0.0), CheckFailure);
  EXPECT_THROW((void)rng.exponential(-1.0), CheckFailure);
}

}  // namespace
}  // namespace mecra::util
