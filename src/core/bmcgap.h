// Budgeted min-cost generalized assignment instance (Sections 4.2-4.3).
//
// Given an admitted request (primaries placed), the builder snapshots
// everything the three algorithms need: per-function candidate cloudlets
// (the cloudlets of N_l^+(v_i), where v_i hosts the primary of f_i), the
// item universe {(i, k) : 1 <= k <= K_i}, residual capacities, the Eq. (3)
// item costs, the equivalent marginal gains (DESIGN.md Sec. 4), the budget
// C = -ln(rho_j), and the paper's big-M for forbidden placements.
//
// K_i is min(sum_u floor(C'_u / c(f_i)), useful-secondary cap): the paper's
// capacity bound intersected with the index past which marginal gains drop
// below measurement noise (truncating items of zero value keeps the LP/ILP
// size proportional to useful work; see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "admission/admission.h"
#include "mec/network.h"
#include "mec/reliability.h"
#include "mec/request.h"
#include "mec/vnf.h"

namespace mecra::core {

/// One candidate secondary instance: the k-th backup of chain position i.
struct ItemRef {
  std::uint32_t chain_pos;
  std::uint32_t k;  // 1-based secondary index

  friend bool operator==(const ItemRef&, const ItemRef&) = default;
};

/// Per-chain-position data of a BMCGAP instance.
struct BmcgapFunction {
  mec::FunctionId function = 0;
  graph::NodeId primary = 0;
  double reliability = 0.0;  // r_i
  double demand = 0.0;       // c(f_i)
  /// Candidate cloudlets: N_l^+(primary) intersected with cloudlet nodes,
  /// ascending node id (capacity feasibility is checked at placement time).
  std::vector<graph::NodeId> allowed;
  std::uint32_t max_secondaries = 0;  // K_i
};

struct BmcgapInstance {
  std::vector<BmcgapFunction> functions;
  /// Flattened item universe, grouped by chain position, k ascending.
  std::vector<ItemRef> items;
  /// Union of all candidate cloudlets, ascending node id.
  std::vector<graph::NodeId> cloudlets;
  /// Residual capacity snapshot, parallel to `cloudlets`.
  std::vector<double> residual;
  /// Full capacity, parallel to `cloudlets` (for usage-ratio reporting).
  std::vector<double> capacity;

  double initial_reliability = 0.0;  // u_j with primaries only
  double expectation = 1.0;          // rho_j
  double budget = 0.0;               // C = -ln(rho_j)
  double big_m = 0.0;                // Sec. 4.2's M
  std::uint32_t l_hops = 1;

  [[nodiscard]] std::size_t num_items() const noexcept { return items.size(); }

  /// Index of `v` within `cloudlets`. Requires membership.
  [[nodiscard]] std::size_t cloudlet_index(graph::NodeId v) const;

  /// Eq. (3) cost of an item (independent of the target cloudlet within the
  /// allowed set; placements outside it are forbidden, big_m in the paper).
  [[nodiscard]] double item_cost(const ItemRef& item) const {
    return mec::item_cost(functions[item.chain_pos].reliability, item.k);
  }
  /// Marginal -log-reliability gain of an item (DESIGN.md Sec. 4).
  [[nodiscard]] double item_gain(const ItemRef& item) const {
    return mec::marginal_gain(functions[item.chain_pos].reliability, item.k);
  }
  [[nodiscard]] double item_demand(const ItemRef& item) const {
    return functions[item.chain_pos].demand;
  }

  /// Achieved chain reliability for a per-position secondary-count vector.
  [[nodiscard]] double reliability_for_counts(
      const std::vector<std::uint32_t>& secondaries) const;

  /// Gain still required to reach the expectation: max(0, ln rho - ln u_0).
  [[nodiscard]] double needed_gain() const;
};

struct BmcgapOptions {
  std::uint32_t l_hops = 1;
  /// Items whose marginal gain falls below this are not generated.
  double min_gain = 1e-12;
  /// Hard per-function cap on generated secondaries.
  std::uint32_t secondary_hard_cap = 64;
};

/// Builds the instance into `instance` against the network's CURRENT
/// residual capacities, overwriting every field and reusing the storage of
/// its vectors; each candidate set is MecNetwork::cloudlets_within(primary,
/// l_hops). `primaries.length()` must equal `request.length()`, and every
/// primary must sit on a cloudlet node.
void build_bmcgap_into(BmcgapInstance& instance,
                       const mec::MecNetwork& network,
                       const mec::VnfCatalog& catalog,
                       const mec::SfcRequest& request,
                       const admission::PrimaryPlacement& primaries,
                       const BmcgapOptions& options = {});

/// build_bmcgap_into on a fresh instance.
[[nodiscard]] BmcgapInstance build_bmcgap(
    const mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request,
    const admission::PrimaryPlacement& primaries,
    const BmcgapOptions& options = {});

}  // namespace mecra::core
