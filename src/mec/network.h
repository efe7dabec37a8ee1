// The MEC network: an AP graph where a subset of nodes host cloudlets with
// finite computing capacity (Section 3). Tracks residual capacity as VNF
// instances are placed and answers the paper's N_l(v) neighborhood queries
// restricted to cloudlet nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace mecra::mec {

class MecNetwork {
 public:
  MecNetwork() = default;

  /// `capacity[v]` == 0 means node v is a plain AP without a cloudlet.
  MecNetwork(graph::Graph topology, std::vector<double> capacity);

  [[nodiscard]] const graph::Graph& topology() const noexcept {
    return topology_;
  }

  /// Packed CSR view of the topology, built once at construction (the
  /// topology is immutable afterwards). Copies of the network share it.
  [[nodiscard]] const graph::CsrGraph& csr() const {
    MECRA_CHECK_MSG(csr_ != nullptr, "network has no topology");
    return *csr_;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return topology_.num_nodes();
  }

  [[nodiscard]] bool is_cloudlet(graph::NodeId v) const {
    MECRA_CHECK(v < num_nodes());
    return capacity_[v] > 0.0;
  }
  /// Node ids of all cloudlets, ascending.
  [[nodiscard]] const std::vector<graph::NodeId>& cloudlets() const noexcept {
    return cloudlets_;
  }

  [[nodiscard]] double capacity(graph::NodeId v) const {
    MECRA_CHECK(v < num_nodes());
    return capacity_[v];
  }
  [[nodiscard]] double residual(graph::NodeId v) const {
    MECRA_CHECK(v < num_nodes());
    return residual_[v];
  }
  [[nodiscard]] double used(graph::NodeId v) const {
    return capacity(v) - residual(v);
  }
  /// used(v) / capacity(v); requires a cloudlet node.
  [[nodiscard]] double usage_ratio(graph::NodeId v) const;

  /// Consumes `amount` of residual capacity at v. When `allow_violation` is
  /// false the consumption must fit; when true residual may go negative
  /// (the randomized algorithm's bounded violations).
  void consume(graph::NodeId v, double amount, bool allow_violation = false);
  /// Returns capacity (inverse of consume).
  void release(graph::NodeId v, double amount);
  /// Overwrites v's residual with a previously captured value — the EXACT
  /// rollback/restore primitive. `release(v, x)` after `consume(v, x)` is
  /// not bit-exact in floating point ((r - x) + x may differ from r by an
  /// ulp), and crash recovery (orchestrator/journal.h) must reproduce a
  /// run's residual history bit for bit, so failed placement attempts and
  /// journal replay install captured values instead of re-doing arithmetic.
  void set_residual(graph::NodeId v, double value);

  /// Scales every cloudlet's residual to `fraction` of its capacity — the
  /// paper's "residual computing capacity" experiment knob (Fig. 3).
  void set_residual_fraction(double fraction);

  [[nodiscard]] double total_capacity() const;
  [[nodiscard]] double total_residual() const;

  /// Cloudlets in N_l^+(v): at most `l` hops from v (including v itself when
  /// it is a cloudlet), ascending node id, written into `out` (its storage
  /// is reused). The one source of N_l^+ for placement: a bounded BFS over
  /// csr() (graph::walk_within) of which only the cloudlets are kept and
  /// sorted.
  void cloudlets_within(graph::NodeId v, std::uint32_t l,
                        std::vector<graph::NodeId>& out) const;
  /// The same set as a new vector.
  [[nodiscard]] std::vector<graph::NodeId> cloudlets_within(
      graph::NodeId v, std::uint32_t l) const;

  struct RandomParams {
    /// Fraction of APs co-located with a cloudlet (paper: 10%).
    double cloudlet_fraction = 0.1;
    double capacity_low = 4000.0;   // MHz (paper Sec. 7.1)
    double capacity_high = 8000.0;  // MHz
    /// Ensure at least this many cloudlets regardless of fraction.
    std::size_t min_cloudlets = 1;
  };

  /// Attaches random cloudlets to an existing AP topology.
  [[nodiscard]] static MecNetwork random(graph::Graph topology,
                                         const RandomParams& params,
                                         util::Rng& rng);

 private:
  graph::Graph topology_;
  // Immutable packed topology, shared (not deep-copied) between copies of
  // the network: the topology never changes after construction, so every
  // copy may serve distance queries from the same arrays.
  std::shared_ptr<const graph::CsrGraph> csr_;
  std::vector<double> capacity_;
  std::vector<double> residual_;
  std::vector<graph::NodeId> cloudlets_;
};

}  // namespace mecra::mec
