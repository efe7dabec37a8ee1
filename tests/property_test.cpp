// Parameterized cross-algorithm property sweeps over random paper-shaped
// instances. These encode the paper's structural claims:
//
//   * every algorithm's output passes the independent validator (hop
//     locality; capacity for ILP/Heuristic/Greedy);
//   * achieved reliability never drops below the admission reliability and
//     never exceeds the exact optimum (modulo the randomized algorithm's
//     capacity violations, which may push it past capacity-feasible optima
//     but never past the item-universe ceiling);
//   * Lemma 4.2: an optimal per-item ILP solution uses per-function
//     prefixes of items;
//   * the ILP models themselves (aggregated and paper-literal per-item)
//     reach the optimum found by exhaustive enumeration of secondary
//     counts on tiny instances;
//   * monotonicity: more residual capacity or a larger hop radius never
//     hurts the exactly-solved objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/greedy_baseline.h"
#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "core/validator.h"
#include "ilp/branch_and_bound.h"
#include "test_fixtures.h"

namespace mecra::core {
namespace {

struct SweepCase {
  std::uint64_t seed;
  std::size_t chain_len;
  double residual;
};

class AlgorithmSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AlgorithmSweep, CrossAlgorithmInvariants) {
  const auto [seed, chain_len, residual] = GetParam();
  const auto scenario = test::random_scenario(seed, chain_len, residual);
  ASSERT_TRUE(scenario.has_value());
  const auto& inst = scenario->instance;

  AugmentOptions opt;
  opt.trim_to_expectation = false;  // compare raw maxima
  opt.ilp.time_limit_seconds = 5.0;
  opt.seed = seed;

  const auto ilp = augment_ilp(inst, opt);
  const auto rnd = augment_randomized(inst, opt);
  const auto heu = augment_heuristic(inst, opt);
  const auto grd = augment_greedy(inst, opt);

  // Validator: hop locality for everyone; capacity for the feasible three.
  EXPECT_TRUE(validate(inst, ilp).feasible);
  EXPECT_TRUE(validate(inst, heu).feasible);
  EXPECT_TRUE(validate(inst, grd).feasible);
  EXPECT_TRUE(validate(inst, rnd).hop_constraint_ok);

  // Reliability ordering.
  const double u0 = inst.initial_reliability;
  for (const auto* r : {&ilp, &rnd, &heu, &grd}) {
    EXPECT_GE(r->achieved_reliability, u0 - 1e-12) << r->algorithm;
  }
  EXPECT_LE(heu.achieved_reliability, ilp.achieved_reliability + 1e-9);
  EXPECT_LE(grd.achieved_reliability, ilp.achieved_reliability + 1e-9);

  // The randomized algorithm is capped by the item universe: at most K_i
  // secondaries per function.
  for (std::size_t i = 0; i < inst.functions.size(); ++i) {
    EXPECT_LE(rnd.secondaries[i], inst.functions[i].max_secondaries);
  }

  // Reported metrics are self-consistent (recomputed in finalize).
  for (const auto* r : {&ilp, &rnd, &heu, &grd}) {
    EXPECT_NEAR(r->achieved_reliability,
                inst.reliability_for_counts(r->secondaries), 1e-12);
    EXPECT_EQ(r->placements.size(),
              static_cast<std::size_t>(
                  std::accumulate(r->secondaries.begin(),
                                  r->secondaries.end(), 0u)));
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  std::uint64_t seed = 31000;
  for (std::size_t len : {2u, 5u, 9u}) {
    for (double residual : {0.125, 0.25, 0.5}) {
      cases.push_back({seed++, len, residual});
      cases.push_back({seed++, len, residual});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapedInstances, AlgorithmSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_len" +
             std::to_string(tpi.param.chain_len) + "_res" +
             std::to_string(static_cast<int>(tpi.param.residual * 1000));
    });

// ------------------------------------------------------------- Lemma 4.2

class PrefixLemma : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixLemma, OptimalPerItemSolutionUsesPrefixes) {
  const auto scenario = test::random_scenario(GetParam(), 4, 0.25);
  ASSERT_TRUE(scenario.has_value());
  const auto& inst = scenario->instance;
  if (inst.num_items() == 0) GTEST_SKIP() << "no items at this seed";

  // Solve the paper-literal per-item ILP WITHOUT the dominance cuts, then
  // verify that an optimal solution of equal value exists on prefixes: the
  // per-function placed counts, re-costed as prefixes, give the same
  // objective (Lemma 4.2 argument).
  auto model = build_per_item_model(inst, /*with_prefix_cuts=*/false);
  ilp::BranchAndBoundSolver solver;
  const auto sol = solver.solve(model.model, model.is_integer);
  ASSERT_TRUE(sol.has_solution());

  std::vector<std::uint32_t> counts(inst.functions.size(), 0);
  double placed_gain = 0.0;
  for (std::size_t idx = 0; idx < inst.num_items(); ++idx) {
    for (lp::VarId v : model.var_of[idx]) {
      if (sol.x[v] > 0.5) {
        ++counts[inst.items[idx].chain_pos];
        placed_gain += inst.item_gain(inst.items[idx]);
      }
    }
  }
  double prefix_gain = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (std::uint32_t k = 1; k <= counts[i]; ++k) {
      prefix_gain += mec::marginal_gain(inst.functions[i].reliability, k);
    }
  }
  // Gains decrease in k, so prefix >= any other selection of equal counts;
  // optimality forces equality (within the solver's gap).
  EXPECT_GE(prefix_gain, placed_gain - 1e-9);
  EXPECT_NEAR(prefix_gain, placed_gain,
              2e-4 * std::max(1.0, prefix_gain));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixLemma,
                         ::testing::Values(41001, 41002, 41003, 41004,
                                           41005, 41006));

// ----------------------------------- ILP models vs exhaustive enumeration

/// A tiny BMCGAP instance drawn directly, without a network: 1-3 functions
/// over 1-3 cloudlets, K_i in [1, 3], each candidate set holding the
/// primary's cloudlet plus random others, residuals of 0-4 demands (some
/// with a leftover below one demand), and an expectation above what the
/// primaries alone reach.
BmcgapInstance tiny_instance(util::Rng& rng) {
  constexpr double kDemands[] = {200.0, 300.0, 400.0};
  const std::size_t num_nodes = 1 + rng.index(3);
  BmcgapInstance inst;
  inst.initial_reliability = 1.0;
  const std::size_t num_fns = 1 + rng.index(3);
  for (std::size_t i = 0; i < num_fns; ++i) {
    BmcgapFunction fn;
    fn.function = static_cast<mec::FunctionId>(i);
    fn.primary = static_cast<graph::NodeId>(rng.index(num_nodes));
    fn.reliability = rng.uniform(0.6, 0.95);
    fn.demand = kDemands[rng.index(3)];
    for (graph::NodeId u = 0; u < num_nodes; ++u) {
      if (u == fn.primary || rng.bernoulli(0.6)) fn.allowed.push_back(u);
    }
    fn.max_secondaries = static_cast<std::uint32_t>(1 + rng.index(3));
    inst.initial_reliability *= fn.reliability;
    for (graph::NodeId u : fn.allowed) inst.cloudlets.push_back(u);
    inst.functions.push_back(std::move(fn));
  }
  for (std::uint32_t i = 0; i < inst.functions.size(); ++i) {
    for (std::uint32_t k = 1; k <= inst.functions[i].max_secondaries; ++k) {
      inst.items.push_back(ItemRef{i, k});
    }
  }
  std::sort(inst.cloudlets.begin(), inst.cloudlets.end());
  inst.cloudlets.erase(
      std::unique(inst.cloudlets.begin(), inst.cloudlets.end()),
      inst.cloudlets.end());
  for (std::size_t c = 0; c < inst.cloudlets.size(); ++c) {
    const double demand = inst.functions[rng.index(num_fns)].demand;
    const double residual = static_cast<double>(rng.index(5)) * demand +
                            (rng.bernoulli(0.3) ? 100.0 : 0.0);
    inst.residual.push_back(residual);
    inst.capacity.push_back(residual + 1000.0);
  }
  inst.expectation = inst.initial_reliability +
                     (1.0 - inst.initial_reliability) * rng.uniform(0.1, 0.99);
  inst.budget = -std::log(inst.expectation);
  return inst;
}

/// The optimum by brute force: every integer count vector y_{i,u} over
/// u in allowed_i with sum_u y_{i,u} <= K_i and sum_i c(f_i) y_{i,u} <= C'_u,
/// scored as the marginal gains of each function's first n_i items.
double enumerated_optimum(const BmcgapInstance& inst) {
  struct Slot {
    std::size_t fn;
    std::size_t cloudlet;  // index into inst.cloudlets
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < inst.functions.size(); ++i) {
    for (graph::NodeId u : inst.functions[i].allowed) {
      slots.push_back(Slot{i, inst.cloudlet_index(u)});
    }
  }
  std::vector<double> load(inst.cloudlets.size(), 0.0);
  std::vector<std::uint32_t> count(inst.functions.size(), 0);
  double best = 0.0;
  const auto visit = [&](const auto& self, std::size_t s) -> void {
    if (s == slots.size()) {
      double gain = 0.0;
      for (std::size_t i = 0; i < count.size(); ++i) {
        for (std::uint32_t k = 1; k <= count[i]; ++k) {
          gain += mec::marginal_gain(inst.functions[i].reliability, k);
        }
      }
      best = std::max(best, gain);
      return;
    }
    const auto& fn = inst.functions[slots[s].fn];
    const std::size_t c = slots[s].cloudlet;
    const std::uint32_t before = count[slots[s].fn];
    const double load_before = load[c];
    for (std::uint32_t y = 0; before + y <= fn.max_secondaries &&
                              load_before + y * fn.demand <= inst.residual[c];
         ++y) {
      count[slots[s].fn] = before + y;
      load[c] = load_before + y * fn.demand;
      self(self, s + 1);
    }
    count[slots[s].fn] = before;
    load[c] = load_before;
  };
  visit(visit, 0);
  return best;
}

TEST(IlpModelVsEnumeration, TinyInstancesReachTheEnumeratedOptimum) {
  AugmentOptions exact;
  exact.trim_to_expectation = false;
  exact.ilp.relative_gap = 0.0;
  const double tol = exact.ilp.absolute_gap;
  const ilp::BranchAndBoundSolver per_item_solver(exact.ilp);
  util::Rng rng(81001);
  for (int trial = 0; trial < 200; ++trial) {
    const BmcgapInstance inst = tiny_instance(rng);
    ASSERT_LT(inst.initial_reliability, inst.expectation);
    const double best = enumerated_optimum(inst);

    const auto ilp = augment_ilp(inst, exact);
    EXPECT_TRUE(validate(inst, ilp).feasible) << "trial " << trial;
    EXPECT_NEAR(ilp.objective_gain, best, tol) << "trial " << trial;

    // The paper-literal Eqs. (5)-(13), with and without the Lemma 4.2
    // prefix cuts: the model, not only the solver, must be exact.
    for (const bool cuts : {false, true}) {
      const auto per_item = build_per_item_model(inst, cuts);
      const auto sol =
          per_item_solver.solve(per_item.model, per_item.is_integer);
      ASSERT_TRUE(sol.has_solution()) << "trial " << trial;
      EXPECT_NEAR(sol.objective, best, tol)
          << "trial " << trial << " cuts " << cuts;
    }

    const auto heuristic = augment_heuristic(inst, exact);
    EXPECT_TRUE(validate(inst, heuristic).feasible) << "trial " << trial;
    EXPECT_LE(heuristic.objective_gain, best + 1e-12) << "trial " << trial;
  }
}

// ----------------------------------------------------------- monotonicity

TEST(Monotonicity, MoreResidualNeverHurtsTheOptimum) {
  // One fixed scenario (network, catalog, request, primaries); the residual
  // is then re-scaled on copies so the instances are strictly nested.
  for (std::uint64_t seed : {51001u, 51002u, 51003u}) {
    const auto scenario = test::random_scenario(seed, 5, 0.5);
    ASSERT_TRUE(scenario.has_value());
    AugmentOptions opt;
    opt.trim_to_expectation = false;
    double prev = -1.0;
    for (double fraction : {0.1, 0.3, 0.8}) {
      auto net = scenario->network;
      net.set_residual_fraction(fraction);
      const auto inst = build_bmcgap(net, scenario->catalog,
                                     scenario->request, scenario->primaries,
                                     {});
      const auto r = augment_ilp(inst, opt);
      // Tolerance reflects the 1e-4 relative MIP gap (see the hop test).
      EXPECT_GE(r.achieved_reliability, prev - 1e-3)
          << "seed " << seed << " fraction " << fraction;
      prev = r.achieved_reliability;
    }
  }
}

TEST(Monotonicity, WiderHopRadiusNeverHurtsTheOptimum) {
  for (std::uint64_t seed : {52001u, 52002u, 52003u}) {
    const auto scenario = test::random_scenario(seed, 5, 0.25);
    ASSERT_TRUE(scenario.has_value());
    AugmentOptions opt;
    opt.trim_to_expectation = false;
    double prev = -1.0;
    for (std::uint32_t l : {1u, 2u, 4u}) {
      BmcgapOptions bo;
      bo.l_hops = l;
      const auto inst =
          build_bmcgap(scenario->network, scenario->catalog,
                       scenario->request, scenario->primaries, bo);
      const auto r = augment_ilp(inst, opt);
      // Tolerance reflects the solver's 1e-4 relative MIP gap: both solves
      // are within that gap of their true optima, which ARE monotone.
      EXPECT_GE(r.achieved_reliability, prev - 1e-3)
          << "seed " << seed << " l " << l;
      prev = r.achieved_reliability;
    }
  }
}

// ---------------------------------------------- randomized concentration

TEST(RandomizedConcentration, MeanTracksLpOptimumAcrossRoundingSeeds) {
  const auto scenario = test::random_scenario(61001, 8, 0.5);
  ASSERT_TRUE(scenario.has_value());
  const auto& inst = scenario->instance;
  AugmentOptions opt;
  opt.trim_to_expectation = false;
  const auto exact = augment_ilp(inst, opt);

  double sum = 0.0;
  const int rounds = 20;
  for (int i = 0; i < rounds; ++i) {
    AugmentOptions ro = opt;
    ro.seed = 7000u + static_cast<std::uint64_t>(i);
    sum += augment_randomized(inst, ro).achieved_reliability;
  }
  const double mean = sum / rounds;
  // The paper reports Randomized within a couple percent of the ILP.
  EXPECT_GE(mean, 0.8 * exact.achieved_reliability);
}

}  // namespace
}  // namespace mecra::core
