// Branch-and-bound (mixed-)integer linear programming over the in-repo
// simplex. This is the engine behind the paper's exact "ILP" algorithm
// (Section 4): LP-relaxation bounding, reliability branching, and a
// best-bound node queue that pops deeper nodes first on ties.
//
// Solver fast path (DESIGN.md "Solver fast path"):
//   * reliability branching (Achterberg, Koch & Martin 2005): candidates
//     are ranked by the product of their estimated objective losses down
//     and up. The estimates are per-solve pseudocosts learned from every
//     solved child; once a tree passes 16 nodes, candidates whose
//     pseudocosts are not yet reliable are strong-branched (both child LPs
//     re-solved from the node's basis), and children are queued at those
//     LP values, or not at all when strong branching proves them
//     infeasible or dominated. Trees that stay small pay nothing for it;
//   * node LPs are warm-started from the parent node's optimal basis via
//     SimplexSolver::resolve() — a child differs from its parent by one
//     variable bound, so the re-solve is typically a handful of dual
//     pivots instead of a cold two-phase run;
//   * nodes store bound DELTAS (branch variable + floor/ceil side) in an
//     arena and reconstruct their bound vectors by walking the parent
//     chain, instead of carrying two full per-node std::vector<double>
//     copies through the priority queue.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace mecra::ilp {

enum class IlpStatus {
  kOptimal,      // proven optimal integer solution
  kFeasible,     // limit hit; incumbent available with a bound gap
  kInfeasible,   // no integer-feasible point exists
  kUnbounded,    // LP relaxation unbounded
  kLimit,        // limit hit with no incumbent found
};

[[nodiscard]] std::string to_string(IlpStatus status);

struct IlpSolution {
  IlpStatus status = IlpStatus::kLimit;
  /// Objective of the incumbent, in the model's sense.
  double objective = 0.0;
  /// Incumbent point (size == num_variables) when status is
  /// kOptimal/kFeasible.
  std::vector<double> x;
  /// Best proven bound on the optimum (== objective when kOptimal).
  double best_bound = 0.0;
  std::size_t nodes_explored = 0;

  // --- Fast-path instrumentation (consumed by bench/perf_snapshot and
  // bench/ablation_solver). ---
  /// Simplex pivots summed over every LP solved (nodes + heuristic).
  std::size_t lp_iterations = 0;
  /// Node LPs attempted with a parent-basis warm start.
  std::size_t warm_attempts = 0;
  /// Warm attempts that succeeded without a cold two-phase fallback.
  std::size_t warm_hits = 0;
  /// Child LPs solved by strong branching (their pivots count in
  /// lp_iterations, not in warm_attempts).
  std::size_t strong_branch_lps = 0;
  /// Full per-node bound-vector copies made on the hot path. The delta-node
  /// representation keeps this at 0 (asserted in tests); any future code
  /// that reintroduces per-node vector copies must bump it.
  std::size_t full_bound_copies = 0;

  [[nodiscard]] bool has_solution() const noexcept {
    return status == IlpStatus::kOptimal || status == IlpStatus::kFeasible;
  }
  /// Absolute gap |objective - best_bound|; 0 when proven optimal.
  [[nodiscard]] double gap() const noexcept;
  /// warm_hits / warm_attempts; 0 when no warm start was attempted.
  [[nodiscard]] double warm_hit_rate() const noexcept {
    return warm_attempts == 0
               ? 0.0
               : static_cast<double>(warm_hits) /
                     static_cast<double>(warm_attempts);
  }
};

struct IlpOptions {
  /// A variable value within this distance of an integer counts as integral.
  double integrality_tol = 1e-6;
  /// Prune nodes whose bound cannot beat the incumbent by more than this.
  double absolute_gap = 1e-6;
  /// Prune when the bound is within this relative distance of the incumbent
  /// (1e-4 is the default relative MIP gap of CPLEX/Gurobi; proofs to
  /// tighter gaps on tightly capacitated instances cost orders of magnitude
  /// more nodes for objective differences far below measurement noise).
  double relative_gap = 1e-4;
  /// Node cap; 0 means the (generous) default of 200000.
  std::size_t max_nodes = 0;
  /// Wall-clock cap in seconds; 0 disables it.
  double time_limit_seconds = 0.0;
  /// Run the dive-and-fix rounding heuristic (round integer variables, fix
  /// them, re-solve the LP for the continuous rest) every this many nodes —
  /// and always while no incumbent exists. 0 disables it.
  std::size_t rounding_period = 16;
  /// Warm-start child-node LPs from the parent's optimal basis
  /// (SimplexSolver::resolve). Off = cold two-phase solve per node, the
  /// pre-fast-path behaviour (kept for the ablation/perf benches).
  bool warm_lp = true;
  lp::SimplexOptions lp_options;
};

class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(IlpOptions options = {}) : options_(options) {}

  /// Solves `model` with the variables flagged in `is_integer` (size ==
  /// num_variables) required to take integer values. The model itself is
  /// not modified. `warm_start`, when non-empty, must be an
  /// integer-feasible point; it seeds the incumbent (standard MIP warm
  /// start), so the result is never worse than it.
  [[nodiscard]] IlpSolution solve(const lp::Model& model,
                                  const std::vector<bool>& is_integer,
                                  const std::vector<double>& warm_start = {}) const;

  /// Convenience: all variables integer.
  [[nodiscard]] IlpSolution solve_pure(const lp::Model& model) const {
    return solve(model, std::vector<bool>(model.num_variables(), true), {});
  }

 private:
  IlpOptions options_;
};

}  // namespace mecra::ilp
