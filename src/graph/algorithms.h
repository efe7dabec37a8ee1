// The graph algorithms the MEC model needs: BFS hop distances,
// connectivity, union-find (for connectivity repair in the topology
// generators), and the two bounded hop queries the paper's placement rules
// ask of a CsrGraph: the ball N_l^+(v) (every backup of a primary at v sits
// in it, Section 4.2) and the hop counts from a failed primary to its
// standbys (promotion picks the nearest, latency reports count hops).
//
// The bounded queries share one breadth-first loop over the packed CSR
// arrays with epoch-stamped scratch, so a query costs O(|ball|) — the
// nodes it settles — with no O(V) reset or steady-state allocation.
//
// Thread safety: the free functions' results depend only on their
// arguments, and they are safe from any thread against one shared graph.
//
// Lock discipline: the bounded queries' only mutable state is their
// thread_local scratch, never shared, so concurrent queries need no mutex.
// Keep it that way: any state a query could write must either stay
// thread_local or become MECRA_GUARDED_BY a util::Mutex
// (util/thread_annotations.h) so the clang -Wthread-safety build proves
// the new protocol instead of TSan sampling it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace mecra::graph {

class CsrGraph;  // graph/csr.h

/// Sentinel for "unreachable" in hop-distance vectors.
inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS hop distances from `source` to every node (kUnreachable if none).
/// The CsrGraph overload returns bit-identical distances while streaming
/// the packed neighbor arrays (no per-row pointer chase).
[[nodiscard]] std::vector<std::uint32_t> bfs_hops(const Graph& g,
                                                  NodeId source);
[[nodiscard]] std::vector<std::uint32_t> bfs_hops(const CsrGraph& g,
                                                  NodeId source);

/// N_l^+(v): nodes within `l` hops of `v` INCLUDING v, ascending. Equal to
/// filtering bfs_hops(g, v) by `<= l`; l == 0 yields {v}.
[[nodiscard]] std::vector<NodeId> members_within(const CsrGraph& g, NodeId v,
                                                 std::uint32_t l);

/// The same nodes in walk order (by hop count, not by id), as a view of
/// the calling thread's walk scratch: it holds until the thread's next
/// bounded query (members_within, walk_within or hops_to_targets). For
/// callers that keep a subset in storage of their own.
[[nodiscard]] std::span<const NodeId> walk_within(const CsrGraph& g, NodeId v,
                                                  std::uint32_t l);

/// Hop distances from `source` to each of `targets` (kUnreachable when
/// disconnected), parallel to `targets`; duplicates and `source` itself are
/// allowed. The walk stops as soon as every target is settled, so near
/// targets cost O(ball) not O(V).
[[nodiscard]] std::vector<std::uint32_t> hops_to_targets(
    const CsrGraph& g, NodeId source, std::span<const NodeId> targets);

[[nodiscard]] bool is_connected(const Graph& g);
[[nodiscard]] bool is_connected(const CsrGraph& g);

/// Union–find with path compression + union by size (used by the topology
/// generators' connectivity repair).
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n);
  [[nodiscard]] std::size_t find(std::size_t x);
  /// Returns true when x and y were in different sets (and merges them).
  bool unite(std::size_t x, std::size_t y);
  [[nodiscard]] std::size_t num_sets() const noexcept { return num_sets_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t num_sets_;
};

}  // namespace mecra::graph
