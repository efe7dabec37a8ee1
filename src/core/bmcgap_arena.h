// Reused BMCGAP model builder: one instance whose vectors every build
// overwrites in place (core::build_bmcgap_into), so a steady stream of
// admissions builds its models without allocating for the item list, the
// cloudlet union or the capacity snapshots. Nothing is memoized: on the
// measured admission streams no chain and primary placement recurs while
// the residuals stand still (perfbench's core.arena_reuse_ratio reads 0).
//
// Thread safety: none — one builder per shard worker (workers already own
// disjoint request sets), plus one for the orchestrator's whole-network
// admissions (admit() and the batch border pass).
#pragma once

#include <cstdint>

#include "core/bmcgap.h"

namespace mecra::core {

class BmcgapArena {
 public:
  explicit BmcgapArena(BmcgapOptions options) : options_(options) {}

  /// The instance core::build_bmcgap would return, built in place. The
  /// reference is valid until the next build() on the same arena.
  const BmcgapInstance& build(const mec::MecNetwork& network,
                              const mec::VnfCatalog& catalog,
                              const mec::SfcRequest& request,
                              const admission::PrimaryPlacement& primaries) {
    build_bmcgap_into(instance_, network, catalog, request, primaries,
                      options_);
    ++stats_.misses;
    return instance_;
  }

  /// Build counts; nothing is memoized, so hits and refreshes stay 0.
  struct Stats {
    std::uint64_t misses = 0;
    std::uint64_t hits = 0;
    std::uint64_t refreshes = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  BmcgapOptions options_;
  BmcgapInstance instance_;
  Stats stats_;
};

}  // namespace mecra::core
