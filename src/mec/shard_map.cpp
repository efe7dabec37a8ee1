#include "mec/shard_map.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "util/check.h"

namespace mecra::mec {

namespace {

/// min(a + b, kUnreachable)-style saturating comparison helper: treats
/// kUnreachable as +infinity for the farthest-point / nearest-seed passes.
[[nodiscard]] bool closer(std::uint32_t a, std::uint32_t b) {
  return a < b;  // kUnreachable is the max value, so < already saturates
}

}  // namespace

ShardMap ShardMap::build(const MecNetwork& network, std::uint32_t l_hops) {
  MECRA_CHECK(l_hops >= 1);
  const auto& cloudlets = network.cloudlets();
  MECRA_CHECK_MSG(!cloudlets.empty(),
                  "cannot shard a network without cloudlets");
  const std::size_t num_nodes = network.num_nodes();
  const std::size_t c_count = cloudlets.size();

  ShardMap map;
  map.num_nodes_ = num_nodes;
  const auto want = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(c_count))));
  map.num_shards_ = std::max<std::size_t>(1, std::min(want, c_count));

  map.is_cloudlet_.assign(num_nodes, 0);
  for (graph::NodeId v : cloudlets) map.is_cloudlet_[v] = 1;

  // Farthest-point seed selection on BFS hop distance. The first seed is
  // the lowest-id cloudlet; each next seed is the cloudlet farthest from
  // every chosen seed (unreachable counts as infinitely far; ties go to
  // the lowest node id). Deterministic by construction.
  const graph::CsrGraph& csr = network.csr();
  std::vector<graph::NodeId> seeds;
  std::vector<std::vector<std::uint32_t>> seed_hops;
  seeds.reserve(map.num_shards_);
  std::vector<std::uint32_t> min_dist(num_nodes, graph::kUnreachable);
  seeds.push_back(cloudlets.front());
  seed_hops.push_back(graph::bfs_hops(csr, seeds.back()));
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    min_dist[v] = seed_hops.back()[v];
  }
  while (seeds.size() < map.num_shards_) {
    graph::NodeId farthest = cloudlets.front();
    std::uint32_t best = 0;
    bool found = false;
    for (graph::NodeId v : cloudlets) {
      const std::uint32_t d = min_dist[v];
      if (d == 0) continue;  // already a seed
      if (!found || closer(best, d)) {  // strictly farther wins; ties keep
        farthest = v;                    // the earlier (lower-id) cloudlet
        best = d;
        found = true;
      }
    }
    if (!found) break;  // fewer distinct positions than requested shards
    seeds.push_back(farthest);
    seed_hops.push_back(graph::bfs_hops(csr, farthest));
    const auto& hops = seed_hops.back();
    for (graph::NodeId v = 0; v < num_nodes; ++v) {
      min_dist[v] = std::min(min_dist[v], hops[v]);
    }
  }
  map.num_shards_ = seeds.size();

  // Nearest-seed assignment (ties: lower shard index).
  map.shard_of_.assign(num_nodes, 0);
  map.shard_cloudlets_.assign(map.num_shards_, {});
  for (graph::NodeId v : cloudlets) {
    std::size_t best_s = 0;
    std::uint32_t best_d = seed_hops[0][v];
    for (std::size_t s = 1; s < seeds.size(); ++s) {
      if (closer(seed_hops[s][v], best_d)) {
        best_s = s;
        best_d = seed_hops[s][v];
      }
    }
    map.shard_of_[v] = best_s;
    map.shard_cloudlets_[best_s].push_back(v);
  }

  // Interior/border classification + per-shard interior lists, over
  // N_l^+(v) from MecNetwork::cloudlets_within.
  map.interior_.assign(num_nodes, 0);
  map.interior_cloudlets_.assign(map.num_shards_, {});
  for (graph::NodeId v : cloudlets) {
    const std::size_t s = map.shard_of_[v];
    bool interior = true;
    for (graph::NodeId u : network.cloudlets_within(v, l_hops)) {
      if (map.shard_of_[u] != s) {
        interior = false;
        break;
      }
    }
    map.interior_[v] = interior ? 1 : 0;
    if (interior) {
      map.interior_cloudlets_[s].push_back(v);
    } else {
      ++map.border_count_;
    }
  }

  // Home shard for every node: multi-source BFS from all cloudlets at
  // once. Sources enter the queue in ascending node id, so the first
  // cloudlet to reach a node — the label it keeps — is the nearest one
  // with ties broken toward the lowest cloudlet id. Deterministic.
  map.home_shard_.assign(num_nodes, 0);
  std::vector<std::uint32_t> dist(num_nodes, graph::kUnreachable);
  std::vector<graph::NodeId> queue;
  queue.reserve(num_nodes);
  for (graph::NodeId v : cloudlets) {
    dist[v] = 0;
    map.home_shard_[v] = map.shard_of_[v];
    queue.push_back(v);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::NodeId v = queue[head];
    for (graph::NodeId u : csr.neighbors(v)) {
      if (dist[u] != graph::kUnreachable) continue;
      dist[u] = dist[v] + 1;
      map.home_shard_[u] = map.home_shard_[v];
      queue.push_back(u);
    }
  }
  return map;
}

std::size_t ShardMap::shard_of(graph::NodeId v) const {
  MECRA_CHECK(v < num_nodes_);
  MECRA_CHECK_MSG(is_cloudlet_[v] != 0, "shard_of requires a cloudlet node");
  return shard_of_[v];
}

bool ShardMap::is_interior(graph::NodeId v) const {
  MECRA_CHECK(v < num_nodes_);
  MECRA_CHECK_MSG(is_cloudlet_[v] != 0,
                  "is_interior requires a cloudlet node");
  return interior_[v] != 0;
}

const std::vector<graph::NodeId>& ShardMap::shard_cloudlets(
    std::size_t s) const {
  MECRA_CHECK(s < num_shards_);
  return shard_cloudlets_[s];
}

const std::vector<graph::NodeId>& ShardMap::interior_cloudlets(
    std::size_t s) const {
  MECRA_CHECK(s < num_shards_);
  return interior_cloudlets_[s];
}

std::size_t ShardMap::home_shard(graph::NodeId v) const {
  MECRA_CHECK(v < num_nodes_);
  return home_shard_[v];
}

}  // namespace mecra::mec
