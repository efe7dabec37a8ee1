// Tests for min-cost maximum bipartite matching: hand cases, structural
// properties, and two independent cross-validations (exhaustive search and
// the min-cost-flow reduction) over random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>

#include "matching/hungarian.h"
#include "matching/min_cost_flow.h"
#include "util/rng.h"

namespace mecra::matching {
namespace {

// ------------------------------------------------------------- hand cases

TEST(Matching, EmptyGraph) {
  const auto r = min_cost_max_matching(3, 3, {});
  EXPECT_EQ(r.cardinality, 0u);
  EXPECT_EQ(r.total_cost, 0.0);
}

TEST(Matching, SingleEdge) {
  const auto r = min_cost_max_matching(1, 1, {{0, 0, 5.0}});
  EXPECT_EQ(r.cardinality, 1u);
  EXPECT_DOUBLE_EQ(r.total_cost, 5.0);
  EXPECT_EQ(r.match_left[0], 0u);
  EXPECT_EQ(r.match_right[0], 0u);
}

TEST(Matching, PrefersCheaperPerfectMatching) {
  // 2x2 complete: diagonal costs 1+1, anti-diagonal 10+10.
  const std::vector<BipartiteEdge> edges{
      {0, 0, 1.0}, {0, 1, 10.0}, {1, 0, 10.0}, {1, 1, 1.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
  EXPECT_EQ(r.match_left[0], 0u);
  EXPECT_EQ(r.match_left[1], 1u);
}

TEST(Matching, CardinalityBeatsCost) {
  // Taking the expensive pair of edges yields cardinality 2; the cheap
  // single edge blocks both. Maximum matching must pick the pair.
  const std::vector<BipartiteEdge> edges{
      {0, 0, 0.1}, {0, 1, 100.0}, {1, 0, 100.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 200.0);
}

TEST(Matching, AugmentingPathReassignment) {
  // Classic chain: l0-r0 cheap, l1 only reaches r0 -> l0 must move to r1.
  const std::vector<BipartiteEdge> edges{
      {0, 0, 1.0}, {0, 1, 5.0}, {1, 0, 2.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 7.0);
  EXPECT_EQ(r.match_left[0], 1u);
  EXPECT_EQ(r.match_left[1], 0u);
}

TEST(Matching, NegativeCostsAreHandled) {
  const std::vector<BipartiteEdge> edges{
      {0, 0, -5.0}, {0, 1, -1.0}, {1, 0, -2.0}, {1, 1, -4.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, -9.0);
}

TEST(Matching, UnbalancedSides) {
  const std::vector<BipartiteEdge> edges{
      {0, 0, 3.0}, {0, 1, 1.0}, {0, 2, 2.0}};
  const auto r = min_cost_max_matching(1, 3, edges);
  EXPECT_EQ(r.cardinality, 1u);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
  EXPECT_EQ(r.match_left[0], 1u);
}

TEST(Matching, IsolatedNodesStayUnmatched) {
  const std::vector<BipartiteEdge> edges{{0, 1, 1.0}};
  const auto r = min_cost_max_matching(3, 2, edges);
  EXPECT_EQ(r.cardinality, 1u);
  EXPECT_FALSE(r.match_left[1].has_value());
  EXPECT_FALSE(r.match_left[2].has_value());
  EXPECT_FALSE(r.match_right[0].has_value());
}

TEST(Matching, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW((void)min_cost_max_matching(1, 1, {{1, 0, 1.0}}),
               util::CheckFailure);
}

// ---------------------------------------------------- exhaustive reference

/// Brute force: try all ways to match lefts to distinct rights.
struct Brute {
  std::size_t best_card = 0;
  double best_cost = std::numeric_limits<double>::infinity();
};

void brute_recurse(const std::vector<std::vector<std::pair<std::uint32_t, double>>>& adj,
                   std::size_t l, std::vector<bool>& used, std::size_t card,
                   double cost, Brute& out) {
  if (l == adj.size()) {
    if (card > out.best_card ||
        (card == out.best_card && cost < out.best_cost)) {
      out.best_card = card;
      out.best_cost = cost;
    }
    return;
  }
  brute_recurse(adj, l + 1, used, card, cost, out);  // leave l unmatched
  for (const auto& [r, c] : adj[l]) {
    if (used[r]) continue;
    used[r] = true;
    brute_recurse(adj, l + 1, used, card + 1, cost + c, out);
    used[r] = false;
  }
}

Brute brute_force(std::size_t nl, std::size_t nr,
                  const std::vector<BipartiteEdge>& edges) {
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adj(nl);
  for (const auto& e : edges) adj[e.left].emplace_back(e.right, e.cost);
  std::vector<bool> used(nr, false);
  Brute out;
  out.best_cost = 0.0;
  Brute result;
  brute_recurse(adj, 0, used, 0, 0.0, result);
  return result;
}

struct SweepParams {
  std::uint64_t seed;
  std::size_t nl;
  std::size_t nr;
  double density;
  bool negative;
  /// When non-zero, every left node l with l % edgeless == 0 has no edge.
  std::uint32_t edgeless = 0;
};

std::vector<SweepParams> sweep_cases() {
  std::vector<SweepParams> cases;
  std::uint64_t seed = 4000;
  for (std::size_t nl : {1u, 3u, 5u, 7u}) {
    for (std::size_t nr : {1u, 4u, 6u}) {
      for (double density : {0.3, 0.7, 1.0}) {
        cases.push_back({seed++, nl, nr, density, false});
        cases.push_back({seed++, nl, nr, density, true});
      }
    }
  }
  // Edge-less left nodes beside complete rows, so the matching is perfect
  // on the nodes that have edges (the solver stops at that size).
  cases.push_back({seed++, 7, 3, 1.0, false, 2});
  cases.push_back({seed++, 8, 4, 1.0, true, 2});
  cases.push_back({seed++, 6, 6, 1.0, true, 3});
  cases.push_back({seed++, 9, 2, 0.7, false, 3});
  return cases;
}

std::vector<BipartiteEdge> sweep_edges(const SweepParams& p) {
  util::Rng rng(p.seed);
  std::vector<BipartiteEdge> edges;
  for (std::uint32_t l = 0; l < p.nl; ++l) {
    if (p.edgeless != 0 && l % p.edgeless == 0) continue;
    for (std::uint32_t r = 0; r < p.nr; ++r) {
      if (rng.bernoulli(p.density)) {
        const double lo = p.negative ? -5.0 : 0.0;
        edges.push_back({l, r, rng.uniform(lo, 10.0)});
      }
    }
  }
  return edges;
}

class MatchingSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(MatchingSweep, MatchesBruteForceAndFlowReduction) {
  const auto [seed, nl, nr, density, negative, edgeless] = GetParam();
  const std::vector<BipartiteEdge> edges = sweep_edges(GetParam());

  const auto got = min_cost_max_matching(nl, nr, edges);
  if (edgeless != 0 && density == 1.0) {
    const std::size_t with_edges = nl - (nl + edgeless - 1) / edgeless;
    EXPECT_EQ(got.cardinality, std::min(with_edges, nr));
    for (std::uint32_t l = 0; l < nl; l += edgeless) {
      EXPECT_FALSE(got.match_left[l].has_value()) << "left " << l;
    }
  }

  // One workspace reused across the whole sweep: it solves every case up
  // to this one in sweep order, each leaving buffers of another size and
  // content behind, and must match the allocating overload bit for bit.
  static MatchingWorkspace ws;
  for (const SweepParams& p : sweep_cases()) {
    if (p.seed > seed) break;
    const std::vector<BipartiteEdge> p_edges = sweep_edges(p);
    const std::size_t card = min_cost_max_matching(p.nl, p.nr, p_edges, ws);
    const auto fresh = min_cost_max_matching(p.nl, p.nr, p_edges);
    ASSERT_EQ(card, fresh.cardinality) << "seed " << p.seed;
    ASSERT_EQ(ws.match_edge_l.size(), p.nl);
    double cost = 0.0;
    for (std::uint32_t l = 0; l < p.nl; ++l) {
      const std::uint32_t ei = ws.match_edge_l[l];
      ASSERT_EQ(ei == kUnmatched ? std::nullopt
                                 : std::optional<std::uint32_t>(
                                       p_edges[ei].right),
                fresh.match_left[l])
          << "seed " << p.seed << " left " << l;
      if (ei != kUnmatched) cost += p_edges[ei].cost;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cost),
              std::bit_cast<std::uint64_t>(fresh.total_cost))
        << "seed " << p.seed;
  }

  // Internal consistency: symmetric match arrays, costs add up.
  double cost_check = 0.0;
  std::size_t card_check = 0;
  for (std::uint32_t l = 0; l < nl; ++l) {
    if (!got.match_left[l].has_value()) continue;
    const auto r = *got.match_left[l];
    ASSERT_TRUE(got.match_right[r].has_value());
    EXPECT_EQ(*got.match_right[r], l);
    ++card_check;
    // Edge must exist; take the cheapest matching edge for the bound.
    double cheapest = std::numeric_limits<double>::infinity();
    for (const auto& e : edges) {
      if (e.left == l && e.right == r) cheapest = std::min(cheapest, e.cost);
    }
    ASSERT_TRUE(std::isfinite(cheapest));
    cost_check += cheapest;
  }
  EXPECT_EQ(card_check, got.cardinality);
  EXPECT_NEAR(got.total_cost, cost_check, 1e-9);

  // Cross-validation 1: exhaustive search.
  const Brute ref = brute_force(nl, nr, edges);
  EXPECT_EQ(got.cardinality, ref.best_card);
  if (ref.best_card > 0) {
    EXPECT_NEAR(got.total_cost, ref.best_cost, 1e-9);
  }

  // Cross-validation 2: min-cost-flow reduction. Shift costs to be
  // non-negative first so max-flow == max cardinality at min cost.
  double min_c = 0.0;
  for (const auto& e : edges) min_c = std::min(min_c, e.cost);
  MinCostFlow flow(nl + nr + 2);
  const auto s = static_cast<std::uint32_t>(nl + nr);
  const auto t = static_cast<std::uint32_t>(nl + nr + 1);
  for (std::uint32_t l = 0; l < nl; ++l) flow.add_arc(s, l, 1.0, 0.0);
  for (std::uint32_t r = 0; r < nr; ++r) {
    flow.add_arc(static_cast<std::uint32_t>(nl + r), t, 1.0, 0.0);
  }
  for (const auto& e : edges) {
    flow.add_arc(e.left, static_cast<std::uint32_t>(nl + e.right), 1.0,
                 e.cost - min_c);
  }
  const auto f = flow.solve(s, t);
  EXPECT_NEAR(f.max_flow, static_cast<double>(got.cardinality), 1e-9);
  EXPECT_NEAR(f.total_cost + min_c * f.max_flow, got.total_cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomBipartite, MatchingSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepParams>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_l" +
             std::to_string(tpi.param.nl) + "_r" +
             std::to_string(tpi.param.nr) +
             (tpi.param.negative ? "_neg" : "_pos") +
             (tpi.param.edgeless != 0 ? "_edgeless" : "");
    });

}  // namespace
}  // namespace mecra::matching

// Appended: degenerate side sizes.
namespace mecra::matching {
namespace {

TEST(Matching, ZeroSizedSides) {
  EXPECT_EQ(min_cost_max_matching(0, 5, {}).cardinality, 0u);
  EXPECT_EQ(min_cost_max_matching(5, 0, {}).cardinality, 0u);
  EXPECT_EQ(min_cost_max_matching(0, 0, {}).cardinality, 0u);
}

}  // namespace
}  // namespace mecra::matching
