// Reusable BMCGAP model builder with skeleton memoization (the warm-start
// discipline PR 2 applied to the LP layer, lifted to model construction).
//
// Consecutive admissions inside a window frequently share a home cloudlet
// and chain signature — re-admits literally repeat both — yet every call to
// core::build_bmcgap redoes the N_l^+ candidate scans, the sorted cloudlet
// union, and the catalog lookups from scratch. The arena memoizes the
// request-independent SKELETON of an instance, keyed on the exact inputs it
// depends on: the chain's function ids plus the full primary-placement
// tuple (strictly finer than "home cloudlet + chain signature", so a cache
// hit can never alias two different models). l_hops / min_gain /
// secondary_hard_cap are fixed per arena.
//
// What a skeleton caches vs. refreshes, derived from build_bmcgap's data
// flow (core/bmcgap.cpp):
//
//   key-fixed (topology/catalog, never touched after the first build):
//     functions[].{function,primary,reliability,demand,allowed},
//     the sorted-unique cloudlet union, capacity[], initial_reliability,
//     the per-function useful-gain caps.
//   residual-dependent (refreshed when MecNetwork::residual_epoch moved):
//     functions[].max_secondaries, the item universe, residual[], big_m.
//   per-request scalars (always refreshed): expectation, budget.
//
// The residual epoch check is conservative: an unchanged epoch proves no
// residual anywhere changed, so full reuse is safe; a changed epoch merely
// forces a refresh that rereads residuals over the cached cloudlet union —
// still skipping the ball/union/catalog work. Either way the produced
// instance is BIT-IDENTICAL to a fresh build_bmcgap call (asserted in
// tests/batch_test.cpp).
//
// Thread safety: none — one arena per shard worker (workers already own
// disjoint request sets), plus one for the orchestrator's whole-network
// admissions (admit() and the batch border pass).
// The returned reference is valid until the next build()/clear() call on
// the same arena.
//
// Determinism: the cache is an unordered_map but is NEVER iterated
// (tools/lint_determinism.py); when full it is cleared wholesale, which is
// order-independent.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/bmcgap.h"

namespace mecra::core {

class BmcgapArena {
 public:
  explicit BmcgapArena(BmcgapOptions options, std::size_t max_entries = 4096);

  /// The instance core::build_bmcgap would return; a cache miss calls it.
  const BmcgapInstance& build(const mec::MecNetwork& network,
                              const mec::VnfCatalog& catalog,
                              const mec::SfcRequest& request,
                              const admission::PrimaryPlacement& primaries);

  struct Stats {
    std::uint64_t misses = 0;    // fresh skeleton builds
    std::uint64_t hits = 0;      // epoch unchanged: scalars only
    std::uint64_t refreshes = 0; // epoch moved: residual-dependent rebuild
    std::uint64_t evictions = 0; // wholesale clears on a full cache
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] const BmcgapOptions& options() const noexcept {
    return options_;
  }

  /// Drops every cached skeleton (invalidates outstanding references).
  void clear();

 private:
  /// Chain function ids + primary cloudlets, length-prefixed so the two
  /// variable-length runs can never collide.
  using Key = std::vector<std::uint64_t>;

  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  struct Skeleton {
    BmcgapInstance inst;
    /// Per-function useful-gain caps (deterministic in reliability +
    /// options), cached so refreshes skip mec::useful_secondary_cap.
    std::vector<std::uint32_t> gain_caps;
    std::uint64_t residual_epoch = 0;
  };

  /// Recomputes the residual-dependent parts of a cached skeleton in place,
  /// reusing its allocations.
  void refresh(Skeleton& skel, const mec::MecNetwork& network) const;

  BmcgapOptions options_;
  std::size_t max_entries_;
  std::unordered_map<Key, Skeleton, KeyHash> cache_;
  Key key_scratch_;
  Stats stats_;
};

}  // namespace mecra::core
