#include "core/randomized_rounding.h"

#include "core/augment_obs.h"

#include <algorithm>
#include <cmath>

#include "core/ilp_exact.h"
#include "lp/simplex.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mecra::core {

AugmentationResult augment_randomized(const BmcgapInstance& instance,
                                      const AugmentOptions& options) {
  util::Timer timer;
  AugmentationResult result;
  result.algorithm = "Randomized";
  const detail::AugmentObs<detail::Algorithm::kRandomized> augment_obs(result);

  // Algorithm 1, lines 2-3: the admission already meets the expectation.
  if (instance.initial_reliability >= instance.expectation) {
    finalize_result(instance, result);
    result.runtime_seconds = timer.elapsed_seconds();
    return result;
  }

  // Line 4: solve the LP relaxation. Prefix cuts are omitted — Algorithm 1
  // rounds the plain relaxation of (5)-(13).
  PerItemModel per_item = build_per_item_model(instance,
                                               /*with_prefix_cuts=*/false);
  lp::SimplexSolver solver(options.ilp.lp_options);
  const lp::Solution rel = solver.solve(per_item.model);
  result.solver_nodes = rel.iterations;

  if (rel.optimal()) {
    // Line 5: exclusive randomized rounding per item row.
    util::Rng rng(options.seed);
    std::vector<double> probs;
    for (std::size_t idx = 0; idx < instance.num_items(); ++idx) {
      const ItemRef& item = instance.items[idx];
      const auto& fn = instance.functions[item.chain_pos];
      const auto& vars = per_item.var_of[idx];
      probs.assign(vars.size() + 1, 0.0);
      double total = 0.0;
      for (std::size_t a = 0; a < vars.size(); ++a) {
        probs[a] = std::clamp(rel.x[vars[a]], 0.0, 1.0);
        total += probs[a];
      }
      if (total <= 0.0) continue;  // the LP left this item unplaced
      if (total > 1.0) {
        // Numerical slack: renormalize so the row is a distribution.
        for (std::size_t a = 0; a < vars.size(); ++a) probs[a] /= total;
        total = 1.0;
      }
      probs[vars.size()] = 1.0 - total;  // "not placed"
      const std::size_t pick = rng.categorical(probs);
      if (pick < vars.size()) {
        result.placements.push_back(
            SecondaryPlacement{item.chain_pos, fn.allowed[pick]});
      }
    }
  }

  if (options.trim_to_expectation) {
    trim_to_expectation(instance, result);
  }
  finalize_result(instance, result);
  result.runtime_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace mecra::core
