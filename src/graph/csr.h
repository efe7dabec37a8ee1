// Immutable compressed-sparse-row (CSR) view of a Graph.
//
// The mutable Graph keeps one heap-allocated vector per adjacency row —
// convenient while a topology is being generated, but every BFS then chases
// a pointer per visited node. CsrGraph packs all rows into two flat arrays
// (offsets / neighbors) built once after the topology is final, so
// traversals stream through contiguous memory. It keeps no edge weights:
// every query over it counts hops. Neighbor order is copied verbatim from
// the Graph (sorted ascending), which keeps every algorithm that iterates
// neighbors bit-identical between the two representations.
//
// Thread safety: immutable after build(); all accessors are const and safe
// from any thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace mecra::graph {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Packs `g`'s adjacency into CSR form. Deterministic: neighbor order is
  /// exactly Graph's sorted order.
  [[nodiscard]] static CsrGraph build(const Graph& g);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Undirected edge count (each edge is stored twice internally).
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return neighbors_.size() / 2;
  }

  /// Neighbor ids of `v`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    MECRA_DCHECK(v < num_nodes());
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    return neighbors(v).size();
  }

  /// Bytes held by the two packed arrays (bench / capacity planning).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return offsets_.size() * sizeof(std::uint64_t) +
           neighbors_.size() * sizeof(NodeId);
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size num_nodes + 1
  std::vector<NodeId> neighbors_;       // size 2 * num_edges
};

}  // namespace mecra::graph
