#include "matching/hungarian.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/check.h"

namespace mecra::matching {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone = kUnmatched;
}  // namespace

std::size_t min_cost_max_matching(std::size_t num_left, std::size_t num_right,
                                  std::span<const BipartiteEdge> edges,
                                  MatchingWorkspace& ws) {
  MECRA_CHECK(edges.size() < kNone);
  // Shift all costs to be non-negative. Adding a constant C to every edge
  // adds C * cardinality to every matching of a given cardinality, so the
  // set of min-cost MAXIMUM matchings is unchanged; Dijkstra with zero
  // initial potentials then stays valid.
  double min_cost = 0.0;
  ws.adj_start.assign(num_left + 1, 0);
  for (const auto& e : edges) {
    MECRA_CHECK(e.left < num_left && e.right < num_right);
    min_cost = std::min(min_cost, e.cost);
    ++ws.adj_start[e.left + 1];
  }
  const double shift = -min_cost;

  // CSR adjacency: per left node, indices into `edges` in input order.
  std::partial_sum(ws.adj_start.begin(), ws.adj_start.end(),
                   ws.adj_start.begin());
  ws.cursor.assign(ws.adj_start.begin(), ws.adj_start.end() - 1);
  ws.adj_edge.resize(edges.size());
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    ws.adj_edge[ws.cursor[edges[i].left]++] = i;
  }

  // Matching state is kept as edge indices so parallel edges and cost lookup
  // are unambiguous.
  auto& match_edge_l = ws.match_edge_l;
  auto& match_edge_r = ws.match_edge_r;
  auto& pot_l = ws.pot_l;
  auto& pot_r = ws.pot_r;
  auto& dist_l = ws.dist_l;
  auto& dist_r = ws.dist_r;
  auto& prev_edge_r = ws.prev_edge_r;  // edge used to reach r
  match_edge_l.assign(num_left, kNone);
  match_edge_r.assign(num_right, kNone);
  pot_l.assign(num_left, 0.0);
  pot_r.assign(num_right, 0.0);
  dist_l.resize(num_left);
  dist_r.resize(num_right);
  prev_edge_r.resize(num_right);

  // Heap items: (distance, encoded node); lefts are [0, num_left), rights
  // are num_left + r. push and pop are std::priority_queue's.
  auto& heap = ws.heap;
  const auto push = [&heap](double d, std::uint32_t node) {
    heap.emplace_back(d, node);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };

  // No matching is larger than the right side or than the left nodes that
  // have an edge; once it reaches that size no augmenting path exists, and
  // the Dijkstra that would prove it is skipped.
  std::size_t left_with_edges = 0;
  for (std::uint32_t l = 0; l < num_left; ++l) {
    if (ws.adj_start[l] != ws.adj_start[l + 1]) ++left_with_edges;
  }
  const std::size_t max_cardinality = std::min(left_with_edges, num_right);

  // Successive shortest augmenting paths: each round runs one multi-source
  // Dijkstra from every free left node over reduced costs, augments along
  // the cheapest path to a free right node, then re-tightens potentials.
  // A free left node without edges would pop and relax nothing (and its
  // potential is never read), so it is not a source.
  std::size_t cardinality = 0;
  while (cardinality < max_cardinality) {
    std::fill(dist_l.begin(), dist_l.end(), kInf);
    std::fill(dist_r.begin(), dist_r.end(), kInf);
    std::fill(prev_edge_r.begin(), prev_edge_r.end(), kNone);

    heap.clear();
    for (std::uint32_t l = 0; l < num_left; ++l) {
      if (match_edge_l[l] == kNone && ws.adj_start[l] != ws.adj_start[l + 1]) {
        dist_l[l] = 0.0;
        push(0.0, l);
      }
    }

    double best_free_dist = kInf;
    std::uint32_t best_free_right = kNone;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, node] = heap.back();
      heap.pop_back();
      if (d >= best_free_dist) break;  // cheapest augmenting path found
      if (node < num_left) {
        const std::uint32_t l = node;
        if (d > dist_l[l]) continue;
        for (std::uint32_t a = ws.adj_start[l]; a < ws.adj_start[l + 1]; ++a) {
          const std::uint32_t ei = ws.adj_edge[a];
          if (ei == match_edge_l[l]) continue;  // matched arcs go r -> l
          const auto& e = edges[ei];
          const double reduced =
              (e.cost + shift) + pot_l[l] - pot_r[e.right];
          MECRA_DCHECK(reduced > -1e-7);
          const double nd = d + std::max(reduced, 0.0);
          if (nd < dist_r[e.right]) {
            dist_r[e.right] = nd;
            prev_edge_r[e.right] = ei;
            push(nd, static_cast<std::uint32_t>(num_left + e.right));
          }
        }
      } else {
        const std::uint32_t r = node - static_cast<std::uint32_t>(num_left);
        if (d > dist_r[r]) continue;
        if (match_edge_r[r] == kNone) {
          if (d < best_free_dist) {
            best_free_dist = d;
            best_free_right = r;
          }
          continue;
        }
        // Traverse the matched arc r -> left with cost -(c + shift).
        const auto& me = edges[match_edge_r[r]];
        const std::uint32_t l2 = me.left;
        const double reduced = -(me.cost + shift) + pot_r[r] - pot_l[l2];
        MECRA_DCHECK(reduced > -1e-7);
        const double nd = d + std::max(reduced, 0.0);
        if (nd < dist_l[l2]) {
          dist_l[l2] = nd;
          push(nd, l2);
        }
      }
    }

    if (best_free_right == kNone) break;  // no augmenting path remains
    const double cap = best_free_dist;

    // Potential update keeps all reduced costs non-negative.
    for (std::uint32_t l = 0; l < num_left; ++l) {
      pot_l[l] += std::min(dist_l[l], cap);
    }
    for (std::uint32_t r = 0; r < num_right; ++r) {
      pot_r[r] += std::min(dist_r[r], cap);
    }

    // Augment: flip matched/unmatched status along the path.
    std::uint32_t r = best_free_right;
    for (;;) {
      const std::uint32_t ei = prev_edge_r[r];
      MECRA_CHECK(ei != kNone);
      const std::uint32_t l = edges[ei].left;
      const std::uint32_t displaced = match_edge_l[l];
      match_edge_l[l] = ei;
      match_edge_r[r] = ei;
      if (displaced == kNone) break;
      r = edges[displaced].right;
    }
    ++cardinality;
  }
  return cardinality;
}

MatchingResult min_cost_max_matching(std::size_t num_left,
                                     std::size_t num_right,
                                     const std::vector<BipartiteEdge>& edges) {
  MatchingWorkspace ws;
  MatchingResult result;
  result.cardinality = min_cost_max_matching(num_left, num_right, edges, ws);
  result.match_left.assign(num_left, std::nullopt);
  result.match_right.assign(num_right, std::nullopt);
  for (std::uint32_t l = 0; l < num_left; ++l) {
    const std::uint32_t ei = ws.match_edge_l[l];
    if (ei == kNone) continue;
    const auto& e = edges[ei];
    result.match_left[l] = e.right;
    result.match_right[e.right] = l;
    result.total_cost += e.cost;
  }
  return result;
}

}  // namespace mecra::matching
