#include "core/bmcgap_arena.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace mecra::core {

BmcgapArena::BmcgapArena(BmcgapOptions options, std::size_t max_entries)
    : options_(options), max_entries_(max_entries) {
  MECRA_CHECK(max_entries_ > 0);
}

std::size_t BmcgapArena::KeyHash::operator()(const Key& key) const noexcept {
  // FNV-1a over the words; the key layout (length-prefixed runs) already
  // guarantees injectivity, the hash just has to spread it.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : key) {
    h ^= w;
    h *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h);
}

void BmcgapArena::clear() { cache_.clear(); }

void BmcgapArena::refresh(Skeleton& skel, const mec::MecNetwork& network) const {
  BmcgapInstance& inst = skel.inst;

  // K_i and the item universe: same arithmetic, same order as
  // build_bmcgap, over the cached allowed lists.
  inst.items.clear();
  for (std::size_t i = 0; i < inst.functions.size(); ++i) {
    BmcgapFunction& bf = inst.functions[i];
    double capacity_items = 0.0;
    for (const graph::NodeId u : bf.allowed) {
      capacity_items += std::floor(network.residual(u) / bf.demand);
    }
    const auto cap_by_capacity = static_cast<std::uint32_t>(
        std::min(capacity_items,
                 static_cast<double>(options_.secondary_hard_cap)));
    bf.max_secondaries = std::min(cap_by_capacity, skel.gain_caps[i]);
  }
  for (std::uint32_t i = 0; i < inst.functions.size(); ++i) {
    for (std::uint32_t k = 1; k <= inst.functions[i].max_secondaries; ++k) {
      inst.items.push_back(ItemRef{i, k});
    }
  }

  // Residual snapshot over the cached cloudlet union.
  for (std::size_t idx = 0; idx < inst.cloudlets.size(); ++idx) {
    inst.residual[idx] = network.residual(inst.cloudlets[idx]);
  }

  // big_m tracks the item universe (Sec. 4.2).
  double max_cost = 0.0;
  for (const ItemRef& item : inst.items) {
    max_cost = std::max(max_cost, inst.item_cost(item));
  }
  for (const auto& bf : inst.functions) {
    max_cost = std::max(max_cost, -std::log(bf.reliability));
  }
  inst.big_m = 100.0 * max_cost;
}

const BmcgapInstance& BmcgapArena::build(
    const mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request,
    const admission::PrimaryPlacement& primaries) {
  MECRA_CHECK_MSG(primaries.length() == request.length(),
                  "primary placement must cover the whole chain");
  MECRA_CHECK(request.expectation > 0.0 && request.expectation <= 1.0);

  key_scratch_.clear();
  key_scratch_.reserve(2 + request.length() + primaries.length());
  key_scratch_.push_back(request.length());
  for (const mec::FunctionId f : request.chain) {
    key_scratch_.push_back(static_cast<std::uint64_t>(f));
  }
  key_scratch_.push_back(primaries.length());
  for (const graph::NodeId v : primaries.cloudlet_of) {
    key_scratch_.push_back(static_cast<std::uint64_t>(v));
  }

  const std::uint64_t epoch = network.residual_epoch();
  auto it = cache_.find(key_scratch_);
  if (it == cache_.end()) {
    if (cache_.size() >= max_entries_) {
      // Wholesale clear: deterministic regardless of hash order, and the
      // hot keys repopulate within a window.
      cache_.clear();
      ++stats_.evictions;
    }
    Skeleton skel;
    skel.inst = build_bmcgap(network, catalog, request, primaries, options_);
    skel.gain_caps.reserve(skel.inst.functions.size());
    for (const BmcgapFunction& bf : skel.inst.functions) {
      skel.gain_caps.push_back(mec::useful_secondary_cap(
          bf.reliability, options_.min_gain, options_.secondary_hard_cap));
    }
    skel.residual_epoch = epoch;
    it = cache_.emplace(key_scratch_, std::move(skel)).first;
    ++stats_.misses;
  } else if (it->second.residual_epoch != epoch) {
    refresh(it->second, network);
    it->second.residual_epoch = epoch;
    ++stats_.refreshes;
  } else {
    ++stats_.hits;
  }

  // Per-request scalars (never feed the cached parts).
  BmcgapInstance& inst = it->second.inst;
  inst.expectation = request.expectation;
  inst.budget = -std::log(request.expectation);
  return inst;
}

}  // namespace mecra::core
