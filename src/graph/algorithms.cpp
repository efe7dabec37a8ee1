#include "graph/algorithms.h"

#include <algorithm>

#include "graph/csr.h"

namespace mecra::graph {

namespace {

// The full traversals are representation-agnostic: both Graph and CsrGraph
// expose num_nodes()/neighbors() with identical (sorted) neighbor order, so
// one template serves both and the overloads are guaranteed to agree bit
// for bit.

template <typename G>
std::vector<std::uint32_t> bfs_hops_impl(const G& g, NodeId source) {
  MECRA_CHECK(source < g.num_nodes());
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier;
  frontier.reserve(g.num_nodes());
  frontier.push_back(source);
  dist[source] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    for (NodeId w : g.neighbors(u)) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

template <typename G>
bool is_connected_impl(const G& g) {
  if (g.num_nodes() <= 1) return true;
  auto dist = bfs_hops_impl(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

/// Per-thread scratch of the bounded queries: epoch stamps make clearing
/// O(1) per query, so a walk touches only the nodes it settles and never
/// pays an O(V) reset or allocation.
struct Scratch {
  std::vector<std::uint32_t> stamp;  // stamp[v] == epoch => dist[v] valid
  std::vector<std::uint32_t> dist;
  std::vector<std::uint32_t> mark;   // second stamp lane (target marking)
  std::vector<NodeId> queue;
  std::uint32_t epoch = 0;
};

/// The calling thread's scratch, sized for `n` nodes, with a fresh epoch.
Scratch& fresh_scratch(std::size_t n) {
  thread_local Scratch s;
  if (s.stamp.size() < n) {
    s.stamp.resize(n, 0);
    s.dist.resize(n);
    s.mark.resize(n, 0);
  }
  if (++s.epoch == 0) {  // wrapped after 2^32 queries: hard reset once
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  return s;
}

/// The one bounded BFS: settles nodes from `source` in hop order, stamping
/// each with s.epoch and its distance; nodes at `max_hops` are settled but
/// not expanded, and the walk ends as soon as `done(node)` returns true
/// for a newly settled node.
template <typename Done>
void bounded_bfs(const CsrGraph& g, Scratch& s, NodeId source,
                 std::uint32_t max_hops, Done done) {
  s.queue.clear();
  s.queue.push_back(source);
  s.stamp[source] = s.epoch;
  s.dist[source] = 0;
  if (done(source)) return;
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const NodeId x = s.queue[head];
    if (s.dist[x] >= max_hops) return;  // the queue is sorted by distance
    for (NodeId w : g.neighbors(x)) {
      if (s.stamp[w] == s.epoch) continue;
      s.stamp[w] = s.epoch;
      s.dist[w] = s.dist[x] + 1;
      s.queue.push_back(w);
      if (done(w)) return;
    }
  }
}

}  // namespace

std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source) {
  return bfs_hops_impl(g, source);
}

std::vector<std::uint32_t> bfs_hops(const CsrGraph& g, NodeId source) {
  return bfs_hops_impl(g, source);
}

std::vector<NodeId> members_within(const CsrGraph& g, NodeId v,
                                   std::uint32_t l) {
  const std::span<const NodeId> ball = walk_within(g, v, l);
  std::vector<NodeId> out(ball.begin(), ball.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const NodeId> walk_within(const CsrGraph& g, NodeId v,
                                    std::uint32_t l) {
  MECRA_CHECK(v < g.num_nodes());
  Scratch& s = fresh_scratch(g.num_nodes());
  bounded_bfs(g, s, v, l, [](NodeId) { return false; });
  return s.queue;
}

std::vector<std::uint32_t> hops_to_targets(const CsrGraph& g, NodeId source,
                                           std::span<const NodeId> targets) {
  MECRA_CHECK(source < g.num_nodes());
  std::vector<std::uint32_t> out(targets.size(), kUnreachable);
  if (targets.empty()) return out;

  Scratch& s = fresh_scratch(g.num_nodes());
  std::size_t remaining = 0;  // distinct targets not yet settled
  for (const NodeId t : targets) {
    MECRA_CHECK(t < g.num_nodes());
    if (s.mark[t] != s.epoch) {
      s.mark[t] = s.epoch;
      ++remaining;
    }
  }
  bounded_bfs(g, s, source, kUnreachable, [&](NodeId w) {
    return s.mark[w] == s.epoch && --remaining == 0;
  });
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (s.stamp[targets[i]] == s.epoch) out[i] = s.dist[targets[i]];
  }
  return out;
}

bool is_connected(const Graph& g) { return is_connected_impl(g); }

bool is_connected(const CsrGraph& g) { return is_connected_impl(g); }

DisjointSets::DisjointSets(std::size_t n)
    : parent_(n), size_(n, 1), num_sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t DisjointSets::find(std::size_t x) {
  MECRA_CHECK(x < parent_.size());
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool DisjointSets::unite(std::size_t x, std::size_t y) {
  std::size_t rx = find(x);
  std::size_t ry = find(y);
  if (rx == ry) return false;
  if (size_[rx] < size_[ry]) std::swap(rx, ry);
  parent_[ry] = rx;
  size_[rx] += size_[ry];
  --num_sets_;
  return true;
}

}  // namespace mecra::graph
