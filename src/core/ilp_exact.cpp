#include "core/ilp_exact.h"

#include "core/augment_obs.h"

#include <algorithm>
#include <cmath>

#include "core/heuristic_matching.h"
#include "util/timer.h"

namespace mecra::core {

PerItemModel build_per_item_model(const BmcgapInstance& instance,
                                  bool with_prefix_cuts) {
  PerItemModel out;
  out.model.set_sense(lp::Sense::kMaximize);

  // x_{i,k,u} in [0,1] with objective = marginal gain of item (i,k).
  out.var_of.resize(instance.num_items());
  for (std::size_t idx = 0; idx < instance.num_items(); ++idx) {
    const ItemRef& item = instance.items[idx];
    const auto& fn = instance.functions[item.chain_pos];
    const double gain = instance.item_gain(item);
    out.var_of[idx].reserve(fn.allowed.size());
    for (std::size_t a = 0; a < fn.allowed.size(); ++a) {
      out.var_of[idx].push_back(out.model.add_unit_variable(gain));
    }
  }

  // Constraint (8): each item is placed at most once.
  for (std::size_t idx = 0; idx < instance.num_items(); ++idx) {
    std::vector<lp::Term> terms;
    for (lp::VarId v : out.var_of[idx]) terms.push_back({v, 1.0});
    out.model.add_constraint(std::move(terms), lp::Relation::kLessEqual, 1.0);
  }

  // Constraint (9): cloudlet capacities.
  for (std::size_t c = 0; c < instance.cloudlets.size(); ++c) {
    const graph::NodeId u = instance.cloudlets[c];
    std::vector<lp::Term> terms;
    for (std::size_t idx = 0; idx < instance.num_items(); ++idx) {
      const ItemRef& item = instance.items[idx];
      const auto& fn = instance.functions[item.chain_pos];
      for (std::size_t a = 0; a < fn.allowed.size(); ++a) {
        if (fn.allowed[a] == u) {
          terms.push_back({out.var_of[idx][a], fn.demand});
        }
      }
    }
    if (!terms.empty()) {
      out.model.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                               instance.residual[c]);
    }
  }

  // Lemma 4.2 dominance: item k+1 of a function is used only if item k is.
  // Valid for at least one optimum; breaks the item-index symmetry that
  // otherwise bloats branch-and-bound.
  if (with_prefix_cuts) {
    for (std::size_t idx = 0; idx + 1 < instance.num_items(); ++idx) {
      const ItemRef& cur = instance.items[idx];
      const ItemRef& nxt = instance.items[idx + 1];
      if (cur.chain_pos != nxt.chain_pos) continue;
      std::vector<lp::Term> terms;
      for (lp::VarId v : out.var_of[idx]) terms.push_back({v, 1.0});
      for (lp::VarId v : out.var_of[idx + 1]) terms.push_back({v, -1.0});
      out.model.add_constraint(std::move(terms),
                               lp::Relation::kGreaterEqual, 0.0);
    }
  }

  out.is_integer.assign(out.model.num_variables(), true);
  return out;
}

AggregatedModel build_aggregated_model(const BmcgapInstance& instance,
                                       bool with_mir_cuts) {
  AggregatedModel out;
  out.model.set_sense(lp::Sense::kMaximize);

  const std::size_t num_fns = instance.functions.size();
  out.y_of.resize(num_fns);
  out.t_of.resize(num_fns);

  for (std::size_t i = 0; i < num_fns; ++i) {
    const auto& fn = instance.functions[i];
    for (std::size_t a = 0; a < fn.allowed.size(); ++a) {
      const double residual =
          instance.residual[instance.cloudlet_index(fn.allowed[a])];
      const double count_cap =
          std::min(std::floor(residual / fn.demand),
                   static_cast<double>(fn.max_secondaries));
      out.y_of[i].push_back(
          out.model.add_variable(0.0, std::max(0.0, count_cap), 0.0));
    }
    for (std::uint32_t k = 1; k <= fn.max_secondaries; ++k) {
      out.t_of[i].push_back(out.model.add_unit_variable(
          mec::marginal_gain(fn.reliability, k)));
    }
  }

  // Linking: sum_k t_{i,k} == sum_u y_{i,u}.
  for (std::size_t i = 0; i < num_fns; ++i) {
    std::vector<lp::Term> terms;
    for (lp::VarId v : out.t_of[i]) terms.push_back({v, 1.0});
    for (lp::VarId v : out.y_of[i]) terms.push_back({v, -1.0});
    if (!terms.empty()) {
      out.model.add_constraint(std::move(terms), lp::Relation::kEqual, 0.0);
    }
  }

  // Capacity per candidate cloudlet, plus optional MIR strengthenings.
  for (std::size_t c = 0; c < instance.cloudlets.size(); ++c) {
    const graph::NodeId u = instance.cloudlets[c];
    std::vector<lp::Term> terms;
    for (std::size_t i = 0; i < num_fns; ++i) {
      const auto& fn = instance.functions[i];
      for (std::size_t a = 0; a < fn.allowed.size(); ++a) {
        if (fn.allowed[a] == u) {
          terms.push_back({out.y_of[i][a], fn.demand});
        }
      }
    }
    if (terms.empty()) continue;
    const double rhs = instance.residual[c];
    if (with_mir_cuts) {
      // MIR cut for divisor d on (sum a_j y_j <= b), y integer >= 0:
      //   sum (floor(a_j/d) + max(0, frac(a_j/d) - f) / (1 - f)) y_j
      //     <= floor(b/d),  where f = frac(b/d) > 0.
      std::vector<double> divisors;
      for (const lp::Term& t : terms) divisors.push_back(t.coeff);
      std::sort(divisors.begin(), divisors.end());
      divisors.erase(std::unique(divisors.begin(), divisors.end()),
                     divisors.end());
      for (double d : divisors) {
        const double bf = rhs / d;
        const double f = bf - std::floor(bf);
        if (f < 1e-9 || f > 1.0 - 1e-9) continue;
        std::vector<lp::Term> cut;
        cut.reserve(terms.size());
        for (const lp::Term& t : terms) {
          const double af = t.coeff / d;
          const double frac_a = af - std::floor(af);
          const double coeff =
              std::floor(af) + std::max(0.0, frac_a - f) / (1.0 - f);
          if (coeff > 1e-12) cut.push_back({t.var, coeff});
        }
        if (!cut.empty()) {
          out.model.add_constraint(std::move(cut), lp::Relation::kLessEqual,
                                   std::floor(bf));
        }
      }
    }
    out.model.add_constraint(std::move(terms), lp::Relation::kLessEqual, rhs);
  }

  // Only the counts need integrality; the prefix variables are integral at
  // any integral count because gains strictly decrease in k.
  out.is_integer.assign(out.model.num_variables(), false);
  for (std::size_t i = 0; i < num_fns; ++i) {
    for (lp::VarId v : out.y_of[i]) out.is_integer[v] = true;
  }
  return out;
}

AugmentationResult augment_ilp(const BmcgapInstance& instance,
                               const AugmentOptions& options) {
  util::Timer timer;
  AugmentationResult result;
  result.algorithm = "ILP";
  const detail::AugmentObs<detail::Algorithm::kIlp> augment_obs(result);

  // Line 2-3 of Algorithm 1 applies here too: nothing to do when the
  // primaries alone meet the expectation.
  if (instance.initial_reliability >= instance.expectation) {
    finalize_result(instance, result);
    result.runtime_seconds = timer.elapsed_seconds();
    return result;
  }

  AggregatedModel agg = build_aggregated_model(instance);

  // Warm start: the (untrimmed) matching heuristic is cheap and always
  // capacity-feasible, so its solution seeds the incumbent — branch-and-
  // bound can then only improve on it, and pruning bites immediately.
  std::vector<double> warm;
  {
    AugmentOptions h = options;
    h.trim_to_expectation = false;
    h.budget_mode = BudgetMode::kReliabilityTarget;
    const AugmentationResult heur = augment_heuristic(instance, h);
    warm.assign(agg.model.num_variables(), 0.0);
    for (const SecondaryPlacement& p : heur.placements) {
      const auto& fn = instance.functions[p.chain_pos];
      const auto it =
          std::lower_bound(fn.allowed.begin(), fn.allowed.end(), p.cloudlet);
      MECRA_CHECK(it != fn.allowed.end() && *it == p.cloudlet);
      const auto a = static_cast<std::size_t>(it - fn.allowed.begin());
      warm[agg.y_of[p.chain_pos][a]] += 1.0;
    }
    for (std::size_t i = 0; i < instance.functions.size(); ++i) {
      for (std::uint32_t k = 1; k <= heur.secondaries[i]; ++k) {
        warm[agg.t_of[i][k - 1]] = 1.0;
      }
    }
  }

  ilp::BranchAndBoundSolver solver(options.ilp);
  const ilp::IlpSolution sol = solver.solve(agg.model, agg.is_integer, warm);
  result.solver_nodes = sol.nodes_explored;
  result.solver_lp_iterations = sol.lp_iterations;
  result.solver_warm_attempts = sol.warm_attempts;
  result.solver_warm_hits = sol.warm_hits;

  if (sol.has_solution()) {
    for (std::size_t i = 0; i < instance.functions.size(); ++i) {
      const auto& fn = instance.functions[i];
      for (std::size_t a = 0; a < fn.allowed.size(); ++a) {
        const auto count = static_cast<std::uint32_t>(
            std::llround(sol.x[agg.y_of[i][a]]));
        for (std::uint32_t c = 0; c < count; ++c) {
          result.placements.push_back(SecondaryPlacement{
              static_cast<std::uint32_t>(i), fn.allowed[a]});
        }
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
