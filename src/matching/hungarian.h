// Minimum-cost maximum bipartite matching.
//
// Algorithm 2 of the paper repeatedly finds a min-cost maximum matching in
// an auxiliary bipartite graph (cloudlets x candidate secondary instances).
// We implement the Hungarian method in its successive-shortest-augmenting-
// path form with node potentials (Jonker–Volgenant flavour): each
// augmentation runs one Dijkstra over reduced costs, so the total cost is
// O(min(nL,nR) * E log E) and forbidden pairs are simply absent edges.
//
// "Maximum" is cardinality-maximum: the matching has as many edges as any
// matching in the graph, and among those it has minimum total cost (the
// classic result that augmenting along shortest paths preserves extreme
// optimality holds for every intermediate cardinality).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace mecra::matching {

struct BipartiteEdge {
  std::uint32_t left;
  std::uint32_t right;
  double cost;
};

struct MatchingResult {
  /// match_left[l] = matched right node, or nullopt.
  std::vector<std::optional<std::uint32_t>> match_left;
  /// match_right[r] = matched left node, or nullopt.
  std::vector<std::optional<std::uint32_t>> match_right;
  std::size_t cardinality = 0;
  double total_cost = 0.0;
};

inline constexpr std::uint32_t kUnmatched =
    std::numeric_limits<std::uint32_t>::max();

/// The solver's buffers: a CSR adjacency of edge indices grouped by left
/// node, the Dijkstra heap and the per-node arrays. A solve overwrites all
/// of them, so one workspace serves any sequence of graphs of any sizes.
/// Not thread-safe: one workspace per thread.
struct MatchingWorkspace {
  /// After a solve: per left node, the index of its matched edge in the
  /// solve's `edges`, or kUnmatched.
  std::vector<std::uint32_t> match_edge_l;
  std::vector<std::uint32_t> adj_start, adj_edge, cursor;
  std::vector<std::uint32_t> match_edge_r, prev_edge_r;
  std::vector<double> pot_l, pot_r, dist_l, dist_r;
  std::vector<std::pair<double, std::uint32_t>> heap;
};

/// Computes a min-cost maximum matching of the bipartite graph with
/// `num_left` and `num_right` nodes and the given (non-duplicated) edges on
/// `ws`'s buffers, leaving it in ws.match_edge_l; returns its cardinality.
/// Edge costs may be any finite values (negative allowed).
std::size_t min_cost_max_matching(std::size_t num_left, std::size_t num_right,
                                  std::span<const BipartiteEdge> edges,
                                  MatchingWorkspace& ws);

/// The same solve on a fresh workspace, as a MatchingResult.
[[nodiscard]] MatchingResult min_cost_max_matching(
    std::size_t num_left, std::size_t num_right,
    const std::vector<BipartiteEdge>& edges);

}  // namespace mecra::matching
