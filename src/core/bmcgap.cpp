#include "core/bmcgap.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace mecra::core {

std::size_t BmcgapInstance::cloudlet_index(graph::NodeId v) const {
  auto it = std::lower_bound(cloudlets.begin(), cloudlets.end(), v);
  MECRA_CHECK_MSG(it != cloudlets.end() && *it == v,
                  "node is not a candidate cloudlet of this instance");
  return static_cast<std::size_t>(it - cloudlets.begin());
}

double BmcgapInstance::reliability_for_counts(
    const std::vector<std::uint32_t>& secondaries) const {
  MECRA_CHECK(secondaries.size() == functions.size());
  double u = 1.0;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    u *= mec::reliability_with_secondaries(functions[i].reliability,
                                           secondaries[i]);
  }
  return u;
}

double BmcgapInstance::needed_gain() const {
  if (initial_reliability <= 0.0) return std::numeric_limits<double>::infinity();
  return std::max(0.0, std::log(expectation) - std::log(initial_reliability));
}

BmcgapInstance build_bmcgap(const mec::MecNetwork& network,
                            const mec::VnfCatalog& catalog,
                            const mec::SfcRequest& request,
                            const admission::PrimaryPlacement& primaries,
                            const BmcgapOptions& options) {
  MECRA_CHECK_MSG(primaries.length() == request.length(),
                  "primary placement must cover the whole chain");
  MECRA_CHECK(options.l_hops >= 1);
  MECRA_CHECK(request.expectation > 0.0 && request.expectation <= 1.0);

  BmcgapInstance inst;
  inst.l_hops = options.l_hops;
  inst.expectation = request.expectation;
  inst.budget = -std::log(request.expectation);

  // Per-function candidate sets and item counts.
  for (std::size_t i = 0; i < request.length(); ++i) {
    const auto& fn = catalog.function(request.chain[i]);
    const graph::NodeId primary = primaries.cloudlet_of[i];
    MECRA_CHECK_MSG(network.is_cloudlet(primary),
                    "a primary instance must sit on a cloudlet");
    BmcgapFunction bf;
    bf.function = fn.id;
    bf.primary = primary;
    bf.reliability = fn.reliability;
    bf.demand = fn.cpu_demand;
    bf.allowed = network.cloudlets_within(primary, options.l_hops);

    // K_i: capacity-supported count across the allowed cloudlets (the
    // paper's sum of floor(C'_u / c(f_i))) intersected with the
    // useful-gain horizon.
    double capacity_items = 0.0;
    for (graph::NodeId u : bf.allowed) {
      capacity_items += std::floor(network.residual(u) / bf.demand);
    }
    const std::uint32_t cap_by_capacity = static_cast<std::uint32_t>(
        std::min(capacity_items,
                 static_cast<double>(options.secondary_hard_cap)));
    const std::uint32_t cap_by_gain = mec::useful_secondary_cap(
        bf.reliability, options.min_gain, options.secondary_hard_cap);
    bf.max_secondaries = std::min(cap_by_capacity, cap_by_gain);
    inst.functions.push_back(std::move(bf));
  }

  // Item universe, grouped by chain position.
  for (std::uint32_t i = 0; i < inst.functions.size(); ++i) {
    for (std::uint32_t k = 1; k <= inst.functions[i].max_secondaries; ++k) {
      inst.items.push_back(ItemRef{i, k});
    }
  }

  // Union of candidate cloudlets with capacity snapshots.
  for (const auto& bf : inst.functions) {
    inst.cloudlets.insert(inst.cloudlets.end(), bf.allowed.begin(),
                          bf.allowed.end());
  }
  std::sort(inst.cloudlets.begin(), inst.cloudlets.end());
  inst.cloudlets.erase(
      std::unique(inst.cloudlets.begin(), inst.cloudlets.end()),
      inst.cloudlets.end());
  inst.residual.reserve(inst.cloudlets.size());
  inst.capacity.reserve(inst.cloudlets.size());
  for (graph::NodeId v : inst.cloudlets) {
    inst.residual.push_back(network.residual(v));
    inst.capacity.push_back(network.capacity(v));
  }

  inst.initial_reliability =
      admission::initial_reliability(catalog, request);

  // The paper's big-M: 100x the largest finite item cost (Sec. 4.2).
  double max_cost = 0.0;
  for (const ItemRef& item : inst.items) {
    max_cost = std::max(max_cost, inst.item_cost(item));
  }
  for (const auto& bf : inst.functions) {
    max_cost = std::max(max_cost, -std::log(bf.reliability));  // k = 0 items
  }
  inst.big_m = 100.0 * max_cost;
  return inst;
}

}  // namespace mecra::core
