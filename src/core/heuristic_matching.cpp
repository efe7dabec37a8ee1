#include "core/heuristic_matching.h"

#include "core/augment_obs.h"

#include <algorithm>

#include "matching/hungarian.h"
#include "util/timer.h"

namespace mecra::core {

namespace {

constexpr std::uint32_t kNone = matching::kUnmatched;

/// Buffers of augment_heuristic, reused across rounds and calls. Per
/// function i: its items are items[first_item[i] ..] (k ascending), its
/// allowed cloudlets' indices are allowed[allowed_start[i] ..
/// allowed_start[i + 1]), and items 1..counts[i] are placed.
struct Workspace {
  std::vector<std::uint32_t> first_item, allowed_start, allowed;
  std::vector<std::uint32_t> counts, costed, round_max_k;
  std::vector<double> cost;  // Eq. (3) per item, valid for k <= costed[i]
  std::vector<double> residual;
  std::vector<std::uint32_t> usable;
  // The round's graph: left nodes are cloudlet indices; right node r is
  // item right_item[r].
  std::vector<std::uint32_t> right_item;
  std::vector<matching::BipartiteEdge> edges;
  matching::MatchingWorkspace matching;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

AugmentationResult augment_heuristic(const BmcgapInstance& instance,
                                     const AugmentOptions& options) {
  util::Timer timer;
  AugmentationResult result;
  result.algorithm = "Heuristic";
  const detail::AugmentObs<detail::Algorithm::kHeuristic> augment_obs(
      result);

  // Lines 2-4: the admission already meets the expectation.
  if (instance.initial_reliability >= instance.expectation) {
    finalize_result(instance, result);
    result.runtime_seconds = timer.elapsed_seconds();
    return result;
  }

  Workspace& ws = workspace();
  const std::size_t num_fns = instance.functions.size();
  ws.first_item.resize(num_fns);
  ws.allowed_start.resize(num_fns + 1);
  ws.allowed.clear();
  std::uint32_t next_item = 0;
  for (std::size_t i = 0; i < num_fns; ++i) {
    const BmcgapFunction& fn = instance.functions[i];
    ws.first_item[i] = next_item;
    next_item += fn.max_secondaries;
    ws.allowed_start[i] = static_cast<std::uint32_t>(ws.allowed.size());
    for (const graph::NodeId u : fn.allowed) {
      ws.allowed.push_back(
          static_cast<std::uint32_t>(instance.cloudlet_index(u)));
    }
  }
  ws.allowed_start[num_fns] = static_cast<std::uint32_t>(ws.allowed.size());
  MECRA_CHECK_MSG(next_item == instance.num_items(),
                  "items must list k = 1..K_i of each function in order");
  ws.counts.assign(num_fns, 0);
  ws.costed.assign(num_fns, 0);
  ws.round_max_k.resize(num_fns);
  ws.cost.resize(instance.num_items());
  ws.residual.assign(instance.residual.begin(), instance.residual.end());
  std::vector<std::uint32_t>& counts = ws.counts;
  double eq3_cost = 0.0;
  std::size_t rounds = 0;

  for (;;) {
    // Build G_l: left = candidate cloudlets, right = each function's
    // cheapest remaining items, as many as it has usable cloudlets.
    ws.edges.clear();
    ws.right_item.clear();
    for (std::uint32_t i = 0; i < num_fns; ++i) {
      const BmcgapFunction& fn = instance.functions[i];
      ws.usable.clear();
      for (std::uint32_t a = ws.allowed_start[i]; a < ws.allowed_start[i + 1];
           ++a) {
        if (ws.residual[ws.allowed[a]] >= fn.demand) {
          ws.usable.push_back(ws.allowed[a]);
        }
      }
      const std::uint32_t take = std::min<std::uint32_t>(
          fn.max_secondaries - counts[i],
          static_cast<std::uint32_t>(ws.usable.size()));
      for (std::uint32_t k = counts[i] + 1; k <= counts[i] + take; ++k) {
        const std::uint32_t idx = ws.first_item[i] + k - 1;
        if (k > ws.costed[i]) {
          ws.cost[idx] = instance.item_cost(instance.items[idx]);
          ws.costed[i] = k;
        }
        const auto right = static_cast<std::uint32_t>(ws.right_item.size());
        ws.right_item.push_back(idx);
        for (const std::uint32_t c : ws.usable) {
          ws.edges.push_back(matching::BipartiteEdge{c, right, ws.cost[idx]});
        }
      }
    }
    if (ws.edges.empty()) break;  // E_l == empty: no further placement possible

    if (matching::min_cost_max_matching(instance.cloudlets.size(),
                                        ws.right_item.size(), ws.edges,
                                        ws.matching) == 0) {
      break;
    }
    ++rounds;

    std::fill(ws.round_max_k.begin(), ws.round_max_k.end(), 0);
    for (std::uint32_t c = 0; c < instance.cloudlets.size(); ++c) {
      const std::uint32_t ei = ws.matching.match_edge_l[c];
      if (ei == kNone) continue;
      const std::uint32_t idx = ws.right_item[ws.edges[ei].right];
      const ItemRef& item = instance.items[idx];
      const auto& fn = instance.functions[item.chain_pos];
      MECRA_CHECK(ws.residual[c] >= fn.demand - 1e-9);
      ws.residual[c] -= fn.demand;
      ++counts[item.chain_pos];
      ws.round_max_k[item.chain_pos] =
          std::max(ws.round_max_k[item.chain_pos], item.k);
      eq3_cost += ws.cost[idx];
      result.placements.push_back(
          SecondaryPlacement{item.chain_pos, instance.cloudlets[c]});
    }
    // The matched items of each function are its next prefix (Lemma 4.2),
    // so counts[i] stays the length of f_i's placed prefix.
    for (std::size_t i = 0; i < num_fns; ++i) {
      MECRA_CHECK_MSG(ws.round_max_k[i] == 0 || ws.round_max_k[i] == counts[i],
                      "a round matched items off the function's prefix");
    }

    if (options.budget_mode == BudgetMode::kLiteralCostBudget) {
      // The printed Algorithm 2 rule: stop once c(S) reaches C = -ln rho.
      if (eq3_cost >= instance.budget) break;
    } else {
      if (instance.reliability_for_counts(counts) >= instance.expectation) {
        break;
      }
    }
  }
  result.solver_nodes = rounds;

  if (options.trim_to_expectation &&
      options.budget_mode == BudgetMode::kReliabilityTarget) {
    trim_to_expectation(instance, result);
  }
  finalize_result(instance, result);
  result.runtime_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace mecra::core
