#include "core/greedy_baseline.h"

#include "core/augment_obs.h"

#include <algorithm>
#include <numeric>

#include "util/timer.h"

namespace mecra::core {

AugmentationResult augment_greedy(const BmcgapInstance& instance,
                                  const AugmentOptions& options) {
  util::Timer timer;
  AugmentationResult result;
  result.algorithm = "Greedy";
  const detail::AugmentObs<detail::Algorithm::kGreedy> augment_obs(result);

  if (instance.initial_reliability >= instance.expectation) {
    finalize_result(instance, result);
    result.runtime_seconds = timer.elapsed_seconds();
    return result;
  }

  // Items by gain descending; ties broken by chain position then k so the
  // order is deterministic.
  std::vector<std::size_t> order(instance.num_items());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> gain(instance.num_items());
  for (std::size_t i = 0; i < instance.num_items(); ++i) {
    gain[i] = instance.item_gain(instance.items[i]);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return gain[a] > gain[b];
                   });

  std::vector<double> residual = instance.residual;
  std::vector<std::uint32_t> counts(instance.functions.size(), 0);
  double eq3_cost = 0.0;

  for (std::size_t idx : order) {
    const ItemRef& item = instance.items[idx];
    const auto& fn = instance.functions[item.chain_pos];
    // Largest-residual-fit among the allowed cloudlets.
    std::size_t best_c = instance.cloudlets.size();
    for (graph::NodeId u : fn.allowed) {
      const std::size_t c = instance.cloudlet_index(u);
      if (residual[c] < fn.demand) continue;
      if (best_c == instance.cloudlets.size() ||
          residual[c] > residual[best_c]) {
        best_c = c;
      }
    }
    if (best_c == instance.cloudlets.size()) continue;

    residual[best_c] -= fn.demand;
    ++counts[item.chain_pos];
    eq3_cost += instance.item_cost(item);
    result.placements.push_back(
        SecondaryPlacement{item.chain_pos, instance.cloudlets[best_c]});

    if (options.budget_mode == BudgetMode::kLiteralCostBudget) {
      if (eq3_cost >= instance.budget) break;
    } else if (instance.reliability_for_counts(counts) >=
               instance.expectation) {
      break;
    }
  }

  finalize_result(instance, result);
  result.runtime_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace mecra::core
