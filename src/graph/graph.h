// Undirected simple graph used to model the MEC network of access points.
// Adjacency lists are kept sorted so neighbor iteration is deterministic,
// and per-neighbor weights are stored in a parallel array so weight
// lookups never scan the global edge list.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace mecra::graph {

/// Node identifier; nodes are dense indices [0, num_nodes).
using NodeId = std::uint32_t;

struct Edge {
  NodeId u;
  NodeId v;
  double weight = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t num_nodes)
      : adjacency_(num_nodes), adj_weights_(num_nodes) {}

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Adds an undirected edge. Self-loops and duplicate edges are rejected.
  void add_edge(NodeId u, NodeId v, double weight = 1.0);

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Neighbor ids of `v`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    MECRA_CHECK(v < num_nodes());
    return adjacency_[v];
  }

  /// Weights parallel to neighbors(v).
  [[nodiscard]] std::span<const double> neighbor_weights(NodeId v) const {
    MECRA_CHECK(v < num_nodes());
    return adj_weights_[v];
  }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    return neighbors(v).size();
  }

  /// All edges, in insertion order (u < v normalized).
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Weight of edge (u, v). Requires the edge to exist. O(log deg(u)).
  [[nodiscard]] double edge_weight(NodeId u, NodeId v) const;

  [[nodiscard]] double average_degree() const noexcept {
    if (num_nodes() == 0) return 0.0;
    return 2.0 * static_cast<double>(num_edges()) /
           static_cast<double>(num_nodes());
  }

 private:
  /// Position of `v` in u's sorted adjacency row, or npos when the edge is
  /// absent — the single binary search has_edge and edge_weight share.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t neighbor_index(NodeId u, NodeId v) const;

  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::vector<double>> adj_weights_;
  std::vector<Edge> edges_;
};

}  // namespace mecra::graph
