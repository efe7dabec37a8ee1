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

namespace {

/// mec::useful_secondary_cap depends only on a function's reliability and
/// the options, so each thread computes it once per catalog function; an
/// entry is reused only for the exact inputs it was computed from.
std::uint32_t useful_cap(const mec::NetworkFunction& fn,
                         const BmcgapOptions& options) {
  struct Entry {
    double reliability, min_gain;
    std::uint32_t hard_cap, cap;
  };
  thread_local std::vector<Entry> cache;
  if (fn.id >= cache.size()) {
    cache.resize(fn.id + std::size_t{1},
                 Entry{std::numeric_limits<double>::quiet_NaN(), 0.0, 0, 0});
  }
  Entry& e = cache[fn.id];
  if (e.reliability != fn.reliability || e.min_gain != options.min_gain ||
      e.hard_cap != options.secondary_hard_cap) {
    e = Entry{fn.reliability, options.min_gain, options.secondary_hard_cap,
              mec::useful_secondary_cap(fn.reliability, options.min_gain,
                                        options.secondary_hard_cap)};
  }
  return e.cap;
}

}  // namespace

void build_bmcgap_into(BmcgapInstance& inst, const mec::MecNetwork& network,
                       const mec::VnfCatalog& catalog,
                       const mec::SfcRequest& request,
                       const admission::PrimaryPlacement& primaries,
                       const BmcgapOptions& options) {
  MECRA_CHECK_MSG(primaries.length() == request.length(),
                  "primary placement must cover the whole chain");
  MECRA_CHECK(options.l_hops >= 1);
  MECRA_CHECK(request.expectation > 0.0 && request.expectation <= 1.0);

  inst.l_hops = options.l_hops;
  inst.expectation = request.expectation;
  inst.budget = -std::log(request.expectation);
  inst.functions.resize(request.length());
  inst.items.clear();
  inst.cloudlets.clear();

  // Per-function candidate sets, item counts and the item universe,
  // grouped by chain position. The paper's big-M is 100x the largest
  // finite item cost (Sec. 4.2), counting the k = 0 items; Eq. (3) costs
  // rise with k, so a function's largest is its K_i-th.
  double max_cost = 0.0;
  for (std::uint32_t i = 0; i < request.length(); ++i) {
    const auto& fn = catalog.function(request.chain[i]);
    const graph::NodeId primary = primaries.cloudlet_of[i];
    MECRA_CHECK_MSG(network.is_cloudlet(primary),
                    "a primary instance must sit on a cloudlet");
    BmcgapFunction& bf = inst.functions[i];
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
    bf.max_secondaries = std::min(cap_by_capacity, useful_cap(fn, options));

    for (std::uint32_t k = 1; k <= bf.max_secondaries; ++k) {
      inst.items.push_back(ItemRef{i, k});
    }
    max_cost = std::max(max_cost, -std::log(bf.reliability));
    if (bf.max_secondaries > 0) {
      max_cost = std::max(
          max_cost, mec::item_cost(bf.reliability, bf.max_secondaries));
    }
    inst.cloudlets.insert(inst.cloudlets.end(), bf.allowed.begin(),
                          bf.allowed.end());
  }
  inst.big_m = 100.0 * max_cost;

  // Union of candidate cloudlets with capacity snapshots.
  std::sort(inst.cloudlets.begin(), inst.cloudlets.end());
  inst.cloudlets.erase(
      std::unique(inst.cloudlets.begin(), inst.cloudlets.end()),
      inst.cloudlets.end());
  inst.residual.resize(inst.cloudlets.size());
  inst.capacity.resize(inst.cloudlets.size());
  for (std::size_t c = 0; c < inst.cloudlets.size(); ++c) {
    inst.residual[c] = network.residual(inst.cloudlets[c]);
    inst.capacity[c] = network.capacity(inst.cloudlets[c]);
  }

  inst.initial_reliability =
      admission::initial_reliability(catalog, request);
}

BmcgapInstance build_bmcgap(const mec::MecNetwork& network,
                            const mec::VnfCatalog& catalog,
                            const mec::SfcRequest& request,
                            const admission::PrimaryPlacement& primaries,
                            const BmcgapOptions& options) {
  BmcgapInstance inst;
  build_bmcgap_into(inst, network, catalog, request, primaries, options);
  return inst;
}

}  // namespace mecra::core
