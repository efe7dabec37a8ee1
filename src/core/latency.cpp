#include "core/latency.h"

#include <map>
#include <vector>

#include "graph/algorithms.h"

namespace mecra::core {

UpdateLatencyStats update_latency(const mec::MecNetwork& network,
                                  const BmcgapInstance& instance,
                                  const AugmentationResult& result) {
  UpdateLatencyStats stats;
  if (result.placements.empty()) return stats;

  // One early-terminating walk per distinct primary cloudlet: the
  // secondaries all sit within the paper's l bound of their primary, so the
  // walk settles them after O(|ball|) work instead of a full-network BFS.
  std::map<graph::NodeId, std::vector<graph::NodeId>> targets_of;
  for (const SecondaryPlacement& p : result.placements) {
    targets_of[instance.functions[p.chain_pos].primary].push_back(p.cloudlet);
  }
  std::map<graph::NodeId, std::vector<std::uint32_t>> hops_of;
  for (auto& [primary, targets] : targets_of) {
    hops_of.emplace(primary,
                    graph::hops_to_targets(network.csr(), primary, targets));
  }

  double total = 0.0;
  std::size_t colocated = 0;
  std::map<graph::NodeId, std::size_t> cursor;
  for (const SecondaryPlacement& p : result.placements) {
    const graph::NodeId primary = instance.functions[p.chain_pos].primary;
    const std::uint32_t h = hops_of.at(primary)[cursor[primary]++];
    MECRA_CHECK_MSG(h != graph::kUnreachable,
                    "secondary unreachable from its primary");
    total += static_cast<double>(h);
    stats.max_hops = std::max(stats.max_hops, h);
    if (h == 0) ++colocated;
  }
  stats.secondaries = result.placements.size();
  stats.avg_hops = total / static_cast<double>(stats.secondaries);
  stats.colocated_fraction =
      static_cast<double>(colocated) / static_cast<double>(stats.secondaries);
  return stats;
}

}  // namespace mecra::core
