// Region sharding of a MecNetwork for concurrent batched admission.
//
// The paper restricts every backup instance to cloudlets within `l` hops
// of its primary (N_l^+(v), Section 4.2), so a placement only ever touches
// a small neighbourhood of the network. A ShardMap exploits that locality:
// it partitions the cloudlet set into round(sqrt(C)) regions for C
// cloudlets (farthest-point seeds on BFS hop distance, every cloudlet
// assigned to its nearest seed) and classifies each cloudlet as INTERIOR
// (its whole l-hop cloudlet neighbourhood, MecNetwork::cloudlets_within,
// lies inside its own shard) or BORDER (some neighbour belongs to another
// shard). Shards of about sqrt(C) cloudlets each balance parallelism
// against the border fraction.
//
// The invariant concurrent admission relies on: a request whose primaries
// are all placed on interior cloudlets of shard s can only ever consume
// capacity inside shard s — every backup candidate N_l^+(primary) is a
// subset of the shard by the definition of "interior". Distinct shards
// therefore never contend, and per-shard workers may mutate residual
// capacities without synchronization. Requests that would need border
// cloudlets are handled by a serial fallback pass (see
// orchestrator::Orchestrator::admit_batch).
//
// The map keeps no copy of N_l^+(v): MecNetwork::cloudlets_within, a
// bounded BFS over the network's CSR, is its one source.
//
// Determinism: `build` is a pure function of (topology, cloudlet set,
// l_hops). Seeds, assignment, and every returned list use fixed ascending
// tie-breaks, so the same network always yields byte-identical shard maps
// regardless of thread count or platform.
//
// Thread safety: immutable after build; all accessors are const and safe
// from any thread.
#pragma once

#include <cstdint>
#include <vector>

#include "mec/network.h"

namespace mecra::mec {

class ShardMap {
 public:
  /// Partitions `network`'s cloudlets for the locality bound `l_hops` (the
  /// same l admission uses). Requires at least one cloudlet.
  [[nodiscard]] static ShardMap build(const MecNetwork& network,
                                      std::uint32_t l_hops);

  [[nodiscard]] std::size_t num_shards() const noexcept { return num_shards_; }

  /// Shard owning cloudlet `v`. Requires a cloudlet node.
  [[nodiscard]] std::size_t shard_of(graph::NodeId v) const;

  /// True when every cloudlet of N_l^+(v) lies in shard_of(v).
  [[nodiscard]] bool is_interior(graph::NodeId v) const;
  [[nodiscard]] bool is_border(graph::NodeId v) const {
    return !is_interior(v);
  }

  /// All cloudlets of shard `s`, ascending node id.
  [[nodiscard]] const std::vector<graph::NodeId>& shard_cloudlets(
      std::size_t s) const;
  /// Interior cloudlets of shard `s`, ascending node id.
  [[nodiscard]] const std::vector<graph::NodeId>& interior_cloudlets(
      std::size_t s) const;

  /// Home shard for ANY node (AP or cloudlet): the shard of the nearest
  /// cloudlet in hops (ties broken toward the lowest cloudlet id). Nodes
  /// unreachable from every cloudlet map to shard 0. This is how batched
  /// admission buckets a request by its source AP.
  [[nodiscard]] std::size_t home_shard(graph::NodeId v) const;

  /// Total border cloudlets across all shards.
  [[nodiscard]] std::size_t border_count() const noexcept {
    return border_count_;
  }

 private:
  std::size_t num_shards_ = 0;
  std::size_t border_count_ = 0;
  std::size_t num_nodes_ = 0;
  std::vector<std::size_t> shard_of_;        // per node; valid for cloudlets
  std::vector<std::size_t> home_shard_;      // per node; valid for all nodes
  std::vector<std::uint8_t> interior_;       // per node; valid for cloudlets
  std::vector<std::uint8_t> is_cloudlet_;    // per node
  std::vector<std::vector<graph::NodeId>> shard_cloudlets_;
  std::vector<std::vector<graph::NodeId>> interior_cloudlets_;
};

}  // namespace mecra::mec
