// Tests for the branch-and-bound MILP solver: hand-checked integer
// programs, knapsacks with known optima, mixed-integer cases, warm starts,
// limits, and a brute-force cross-validation sweep over random 0/1
// programs (the solver must match exhaustive enumeration exactly), plus
// reliability branching on trees past its strong-branching gate.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ilp_exact.h"
#include "ilp/branch_and_bound.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace mecra::ilp {
namespace {

IlpSolution solve_all_integer(const lp::Model& m, IlpOptions opt = {}) {
  return BranchAndBoundSolver(opt).solve_pure(m);
}

// ------------------------------------------------------------ basic cases

TEST(BranchAndBound, LpIntegralSolutionNeedsNoBranching) {
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, 3, 1);
  m.add_constraint({{x, 1.0}}, lp::Relation::kLessEqual, 2.0);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_EQ(s.nodes_explored, 1u);
}

TEST(BranchAndBound, FractionalLpGetsRounded) {
  // max x st 2x <= 5, x integer -> x = 2 (LP gives 2.5).
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, 10, 1);
  m.add_constraint({{x, 2.0}}, lp::Relation::kLessEqual, 5.0);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(BranchAndBound, ClassicKnapsack) {
  // Weights {2,3,4,5}, values {3,4,5,6}, capacity 5 -> best 7 ({2,3}).
  lp::Model m(lp::Sense::kMaximize);
  const double w[] = {2, 3, 4, 5};
  const double v[] = {3, 4, 5, 6};
  std::vector<lp::Term> cap;
  for (int i = 0; i < 4; ++i) {
    const auto x = m.add_variable(0, 1, v[i]);
    cap.push_back({x, w[i]});
  }
  m.add_constraint(std::move(cap), lp::Relation::kLessEqual, 5.0);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
}

TEST(BranchAndBound, MinimizationCovering) {
  // min x0 + x1 + x2 st pairwise covers, binary -> 2 variables suffice? No:
  // x0+x1 >= 1, x1+x2 >= 1, x0+x2 >= 1 needs two ones.
  lp::Model m;
  std::vector<lp::VarId> x;
  for (int i = 0; i < 3; ++i) x.push_back(m.add_variable(0, 1, 1));
  m.add_constraint({{x[0], 1.0}, {x[1], 1.0}}, lp::Relation::kGreaterEqual, 1);
  m.add_constraint({{x[1], 1.0}, {x[2], 1.0}}, lp::Relation::kGreaterEqual, 1);
  m.add_constraint({{x[0], 1.0}, {x[2], 1.0}}, lp::Relation::kGreaterEqual, 1);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(BranchAndBound, EqualityWithIntegers) {
  // max x + y st x + y == 3, x,y in {0..2} integer.
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, 2, 1);
  const auto y = m.add_variable(0, 2, 1);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Relation::kEqual, 3.0);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

TEST(BranchAndBound, GeneralIntegersBeyondBinary) {
  // max 2a + 3b st 4a + 7b <= 30, a,b >= 0 integer -> a=4,b=2: 14? Check:
  // 4*4+7*2=30 ok, obj 8+6=14; a=7,b=0: 28<=30 obj 14; b=4: 28, a=0: 12.
  lp::Model m(lp::Sense::kMaximize);
  const auto a = m.add_variable(0, lp::kInfinity, 2);
  const auto b = m.add_variable(0, lp::kInfinity, 3);
  m.add_constraint({{a, 4.0}, {b, 7.0}}, lp::Relation::kLessEqual, 30.0);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 14.0, 1e-9);
}

// ----------------------------------------------------------- mixed integer

TEST(BranchAndBound, MixedIntegerKeepsContinuousFree) {
  // max x + y, x integer <= 2.5-ish via row, y continuous in [0, 0.7].
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, 10, 1);
  const auto y = m.add_variable(0, 0.7, 1);
  m.add_constraint({{x, 2.0}}, lp::Relation::kLessEqual, 5.0);
  const auto s =
      BranchAndBoundSolver().solve(m, {true, false});
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_NEAR(s.x[y], 0.7, 1e-9);
}

// ------------------------------------------------------------- edge cases

TEST(BranchAndBound, InfeasibleIntegerBox) {
  // 0.4 <= x <= 0.6 has no integer point.
  lp::Model m;
  (void)m.add_variable(0.4, 0.6, 1);
  EXPECT_EQ(solve_all_integer(m).status, IlpStatus::kInfeasible);
}

TEST(BranchAndBound, InfeasibleRows) {
  lp::Model m;
  const auto x = m.add_variable(0, 10, 1);
  m.add_constraint({{x, 1.0}}, lp::Relation::kGreaterEqual, 6.0);
  m.add_constraint({{x, 1.0}}, lp::Relation::kLessEqual, 5.0);
  EXPECT_EQ(solve_all_integer(m).status, IlpStatus::kInfeasible);
}

TEST(BranchAndBound, IntegerGapInfeasibility) {
  // 2x == 3 has no integer solution though the LP is feasible.
  lp::Model m;
  const auto x = m.add_variable(0, 5, 1);
  m.add_constraint({{x, 2.0}}, lp::Relation::kEqual, 3.0);
  EXPECT_EQ(solve_all_integer(m).status, IlpStatus::kInfeasible);
}

TEST(BranchAndBound, UnboundedRelaxation) {
  lp::Model m(lp::Sense::kMaximize);
  (void)m.add_variable(0, lp::kInfinity, 1);
  EXPECT_EQ(solve_all_integer(m).status, IlpStatus::kUnbounded);
}

TEST(BranchAndBound, EmptyModel) {
  lp::Model m;
  const auto s = solve_all_integer(m);
  EXPECT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.objective, 0.0);
}

TEST(BranchAndBound, NonIntegralBoundsAreTightenedInward) {
  // x in [0.3, 2.7] integer -> effective [1, 2].
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0.3, 2.7, 1);
  const auto s = solve_all_integer(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
}

// ------------------------------------------------------------ warm start

TEST(BranchAndBound, WarmStartSeedsIncumbent) {
  lp::Model m(lp::Sense::kMaximize);
  const double w[] = {2, 3, 4, 5};
  const double v[] = {3, 4, 5, 6};
  std::vector<lp::Term> cap;
  for (int i = 0; i < 4; ++i) {
    const auto x = m.add_variable(0, 1, v[i]);
    cap.push_back({x, w[i]});
  }
  m.add_constraint(std::move(cap), lp::Relation::kLessEqual, 5.0);
  // Feasible but suboptimal start {item 3}: value 6.
  const std::vector<double> warm{0, 0, 0, 1};
  const auto s = BranchAndBoundSolver().solve(
      m, std::vector<bool>(4, true), warm);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-9);  // still finds the true optimum
}

TEST(BranchAndBound, WarmStartMustBeFeasible) {
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, 1, 1);
  m.add_constraint({{x, 1.0}}, lp::Relation::kLessEqual, 0.0);
  EXPECT_THROW((void)BranchAndBoundSolver().solve(m, {true}, {1.0}),
               util::CheckFailure);
}

TEST(BranchAndBound, WarmStartSurvivesNodeLimitZeroExploration) {
  // With max_nodes = 1 the solver still returns at least the warm start.
  lp::Model m(lp::Sense::kMaximize);
  const double w[] = {3, 5, 7, 11, 13};
  std::vector<lp::Term> cap;
  for (int i = 0; i < 5; ++i) {
    const auto x = m.add_variable(0, 1, w[i] + 0.5);
    cap.push_back({x, w[i]});
  }
  m.add_constraint(std::move(cap), lp::Relation::kLessEqual, 17.0);
  IlpOptions opt;
  opt.max_nodes = 1;
  opt.rounding_period = 0;  // heuristic off: isolate the warm-start path
  const std::vector<double> warm{1, 0, 0, 0, 1};  // weight 16, value 17
  const auto s =
      BranchAndBoundSolver(opt).solve(m, std::vector<bool>(5, true), warm);
  EXPECT_TRUE(s.has_solution());
  EXPECT_GE(s.objective, 17.0 - 1e-9);
}

// ---------------------------------------------------------------- limits

TEST(BranchAndBound, NodeLimitReportsBound) {
  util::Rng rng(99);
  lp::Model m(lp::Sense::kMaximize);
  std::vector<lp::Term> cap;
  for (int i = 0; i < 18; ++i) {
    const auto x = m.add_variable(0, 1, rng.uniform(1.0, 2.0));
    cap.push_back({x, rng.uniform(1.0, 2.0)});
  }
  m.add_constraint(std::move(cap), lp::Relation::kLessEqual, 9.0);
  IlpOptions opt;
  opt.max_nodes = 2;
  opt.rounding_period = 0;
  const auto s = BranchAndBoundSolver(opt).solve_pure(m);
  if (s.status == IlpStatus::kFeasible) {
    EXPECT_GE(s.best_bound, s.objective - 1e-9);  // maximize: bound above
  } else {
    EXPECT_TRUE(s.status == IlpStatus::kLimit ||
                s.status == IlpStatus::kOptimal);
  }
}

TEST(BranchAndBound, GapIsZeroWhenOptimal) {
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, 3, 1);
  m.add_constraint({{x, 1.0}}, lp::Relation::kLessEqual, 2.0);
  const auto s = solve_all_integer(m);
  EXPECT_EQ(s.gap(), 0.0);
}

// ------------------------------------------ brute-force cross-validation

struct BruteParams {
  std::uint64_t seed;
  std::size_t vars;
  std::size_t rows;
};

class IlpVsBruteForce : public ::testing::TestWithParam<BruteParams> {};

TEST_P(IlpVsBruteForce, MatchesExhaustiveEnumeration) {
  const auto [seed, nv, nr] = GetParam();
  util::Rng rng(seed);

  lp::Model m(rng.bernoulli(0.5) ? lp::Sense::kMaximize
                                 : lp::Sense::kMinimize);
  for (std::size_t v = 0; v < nv; ++v) {
    (void)m.add_variable(0, 1, rng.uniform(-3.0, 3.0));
  }
  // All rows are anchored at ONE random binary point, which therefore stays
  // feasible — the enumeration below is guaranteed to find something.
  std::vector<double> anchor(nv);
  for (std::size_t v = 0; v < nv; ++v) anchor[v] = rng.bernoulli(0.5);
  for (std::size_t r = 0; r < nr; ++r) {
    std::vector<lp::Term> terms;
    for (std::size_t v = 0; v < nv; ++v) {
      if (rng.bernoulli(0.8)) {
        terms.push_back({static_cast<lp::VarId>(v), rng.uniform(-1.0, 2.0)});
      }
    }
    if (terms.empty()) continue;
    double lhs = 0.0;
    for (const auto& t : terms) lhs += t.coeff * anchor[t.var];
    if (rng.bernoulli(0.5)) {
      m.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                       lhs + rng.uniform(0.0, 1.0));
    } else {
      m.add_constraint(std::move(terms), lp::Relation::kGreaterEqual,
                       lhs - rng.uniform(0.0, 1.0));
    }
  }

  // Exhaustive enumeration over all binary points.
  double best = m.sense() == lp::Sense::kMaximize ? -1e18 : 1e18;
  bool any = false;
  std::vector<double> x(nv);
  for (std::size_t mask = 0; mask < (1ull << nv); ++mask) {
    for (std::size_t v = 0; v < nv; ++v) {
      x[v] = (mask >> v) & 1 ? 1.0 : 0.0;
    }
    if (m.max_violation(x) > 1e-9) continue;
    any = true;
    const double obj = m.objective_value(x);
    best = m.sense() == lp::Sense::kMaximize ? std::max(best, obj)
                                             : std::min(best, obj);
  }

  const auto s = solve_all_integer(m);
  ASSERT_TRUE(any);  // anchored rows guarantee at least one feasible point
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-6);
  EXPECT_LE(m.max_violation(s.x), 1e-6);
}

std::vector<BruteParams> brute_cases() {
  std::vector<BruteParams> cases;
  std::uint64_t seed = 7000;
  for (std::size_t nv : {2u, 4u, 6u, 9u, 12u}) {
    for (std::size_t nr : {1u, 2u, 4u, 7u}) {
      for (int rep = 0; rep < 2; ++rep) {
        cases.push_back({seed++, nv, nr});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomBinaryPrograms, IlpVsBruteForce, ::testing::ValuesIn(brute_cases()),
    [](const ::testing::TestParamInfo<BruteParams>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_v" +
             std::to_string(tpi.param.vars) + "_r" +
             std::to_string(tpi.param.rows);
    });

// ---------------------------------------------------- reliability branching

// Random multi-row knapsacks over x in {0..3}^8: their trees run past the
// strong-branching gate, so children are queued at strong-branching LP
// values and pruned on them. With both gaps at zero the search must still
// reach the enumerated optimum exactly, on the warm and on the cold LP
// path.
TEST(ReliabilityBranching, MatchesEnumerationPastTheStrongBranchingGate) {
  constexpr std::size_t kVars = 8;
  constexpr int kUpper = 3;
  for (const bool warm_lp : {true, false}) {
    std::size_t strong_cases = 0;
    for (std::uint64_t seed = 9100; seed < 9124; ++seed) {
      util::Rng rng(seed);
      lp::Model m(lp::Sense::kMaximize);
      for (std::size_t v = 0; v < kVars; ++v) {
        (void)m.add_variable(0, kUpper, rng.uniform(1.0, 10.0));
      }
      for (int r = 0; r < 3; ++r) {
        std::vector<lp::Term> terms;
        double total = 0.0;
        for (std::size_t v = 0; v < kVars; ++v) {
          terms.push_back({static_cast<lp::VarId>(v), rng.uniform(1.0, 10.0)});
          total += terms.back().coeff;
        }
        m.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                         total * rng.uniform(0.5, 1.0));
      }

      double best = -1.0;
      std::vector<double> x(kVars);
      for (std::size_t code = 0; code < 65536; ++code) {  // 4^8 points
        for (std::size_t v = 0; v < kVars; ++v) {
          x[v] = static_cast<double>((code >> (2 * v)) & 3u);
        }
        if (m.max_violation(x) <= 1e-9) {
          best = std::max(best, m.objective_value(x));
        }
      }

      IlpOptions opt;
      opt.relative_gap = 0.0;
      opt.absolute_gap = 1e-9;
      opt.warm_lp = warm_lp;
      const auto s = solve_all_integer(m, opt);
      ASSERT_EQ(s.status, IlpStatus::kOptimal) << "seed " << seed;
      EXPECT_NEAR(s.objective, best, 1e-6) << "seed " << seed;
      EXPECT_LE(m.max_violation(s.x), 1e-6) << "seed " << seed;
      if (!warm_lp) {
        EXPECT_EQ(s.warm_attempts, 0u) << "seed " << seed;
      }
      if (s.strong_branch_lps > 0) ++strong_cases;
    }
    EXPECT_GE(strong_cases, 12u) << "warm_lp " << warm_lp;
  }
}

// perfbench's paper_solve instance set: Sec. 7.1 defaults with chains of
// 3-10 functions, instance i drawn from derive_seed(20200817, i).
core::BmcgapInstance paper_solve_instance(std::size_t i) {
  sim::ScenarioParams params;
  params.request.chain_length_high = 10;
  util::Rng rng(util::derive_seed(20200817, i));
  std::optional<sim::Scenario> s = sim::make_scenario(params, rng);
  MECRA_CHECK(s.has_value());
  return std::move(s->instance);
}

// The set's two largest trees under most-fractional branching took 52,039
// (instance 314) and 18,449 (instance 17) nodes. Reliability branching must
// solve each within 5,000, to an objective within twice the MIP gap of the
// one most-fractional branching proved.
TEST(ReliabilityBranching, PaperSolvesLargestTreesStaySmall) {
  struct Case {
    std::size_t index;
    double objective;  // augment_ilp's, under most-fractional branching
  };
  for (const Case& c : {Case{314, 1.47391505248}, Case{17, 1.53685749287}}) {
    const core::BmcgapInstance instance = paper_solve_instance(c.index);
    core::AugmentOptions opt;
    opt.trim_to_expectation = false;
    opt.ilp.time_limit_seconds = 0.0;
    const core::AugmentationResult r = core::augment_ilp(instance, opt);
    EXPECT_LE(r.solver_nodes, 5000u) << "instance " << c.index;
    EXPECT_NEAR(r.objective_gain, c.objective,
                2.0 * (1e-4 * std::abs(c.objective) + 1e-6))
        << "instance " << c.index;

    const core::AggregatedModel agg = core::build_aggregated_model(instance);
    const IlpSolution s = BranchAndBoundSolver().solve(agg.model, agg.is_integer);
    ASSERT_EQ(s.status, IlpStatus::kOptimal) << "instance " << c.index;
    EXPECT_GT(s.strong_branch_lps, 0u) << "instance " << c.index;
  }
}

// A solve that ends at the root never strong-branches.
TEST(ReliabilityBranching, RootSolveRunsNoStrongBranching) {
  const core::BmcgapInstance instance = paper_solve_instance(2);
  const core::AggregatedModel agg = core::build_aggregated_model(instance);
  const IlpSolution s = BranchAndBoundSolver().solve(agg.model, agg.is_integer);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.nodes_explored, 1u);
  EXPECT_EQ(s.strong_branch_lps, 0u);
}

}  // namespace
}  // namespace mecra::ilp
