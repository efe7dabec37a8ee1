#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace mecra::ilp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One branching decision relative to the parent node. Nodes reconstruct
/// their full bound vectors by walking the parent chain; because every
/// branch strictly tightens the touched bound, the deltas along a chain can
/// be combined with min/max in any order.
struct BoundDelta {
  std::int32_t parent;  // arena index of the parent delta; -1 = root
  lp::VarId var;
  double value;
  bool is_upper;  // true: upper := value (floor side); false: lower (ceil)
};

/// Queue entry: O(1) words plus a shared parent-basis handle — no per-node
/// bound vectors (IlpSolution::full_bound_copies counts any regression).
struct Node {
  /// Bound in MINIMIZATION terms (lower is more promising): the parent's LP
  /// value, or this node's own LP value when strong branching solved it.
  double bound;
  /// Distance the branch moved the variable (x - floor(x) down, ceil(x) - x
  /// up). Solving the node then teaches the pseudocosts (bound - parent LP)
  /// / distance; 0 when there is nothing to learn (root, or strong
  /// branching already learned it).
  double distance;
  std::uint32_t depth;
  std::int32_t delta;  // arena index of this node's last BoundDelta; -1 root
  std::shared_ptr<const lp::Basis> basis;  // parent's optimal basis
};

struct NodeOrder {
  // priority_queue pops the LARGEST, so "a is worse than b" ordering pops
  // the best bound first; deeper nodes win ties so dives reach incumbents.
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.depth < b.depth;
  }
};

// Reliability branching (Achterberg, Koch & Martin, "Branching rules
// revisited", 2005): candidates are scored by the product of their
// estimated objective losses down and up; a variable's estimate is its
// pseudocost (loss per unit, averaged over the children observed) once it
// is reliable, and a strong-branching LP pair otherwise.

/// Strong branching starts once a tree has explored this many nodes, so
/// trees that stay small pay nothing for it.
constexpr std::size_t kStrongBranchAfterNodes = 16;
/// Observations per direction after which a pseudocost is reliable.
constexpr std::uint32_t kReliableObservations = 2;
/// Strong-branched candidates per node, at most...
constexpr std::size_t kMaxStrongCandidates = 8;
/// ...and strong branching stops after this many in a row that did not
/// raise the best score.
constexpr std::size_t kStrongLookahead = 4;
/// Losses are clamped to this before their product is taken, so a zero
/// loss on one side still ranks candidates by the other side.
constexpr double kMinLoss = 1e-6;

enum Direction : std::size_t { kDown = 0, kUp = 1 };

struct Pseudocost {
  std::array<double, 2> sum{};
  std::array<std::uint32_t, 2> count{};

  void observe(Direction dir, double loss_per_unit) {
    sum[dir] += loss_per_unit;
    ++count[dir];
  }
  [[nodiscard]] double mean(Direction dir, double unobserved) const {
    return count[dir] == 0 ? unobserved : sum[dir] / count[dir];
  }
  [[nodiscard]] bool reliable() const {
    return std::min(count[kDown], count[kUp]) >= kReliableObservations;
  }
};

struct Candidate {
  lp::VarId var;
  std::array<double, 2> distance;  // x - floor(x), ceil(x) - x
  double score;
};

double branching_score(double down_loss, double up_loss) {
  return std::max(down_loss, kMinLoss) * std::max(up_loss, kMinLoss);
}

}  // namespace

std::string to_string(IlpStatus status) {
  switch (status) {
    case IlpStatus::kOptimal: return "optimal";
    case IlpStatus::kFeasible: return "feasible";
    case IlpStatus::kInfeasible: return "infeasible";
    case IlpStatus::kUnbounded: return "unbounded";
    case IlpStatus::kLimit: return "limit";
  }
  return "unknown";
}

double IlpSolution::gap() const noexcept {
  if (status == IlpStatus::kOptimal) return 0.0;
  return std::abs(objective - best_bound);
}

IlpSolution BranchAndBoundSolver::solve(
    const lp::Model& model, const std::vector<bool>& is_integer,
    const std::vector<double>& warm_start) const {
  MECRA_CHECK(is_integer.size() == model.num_variables());

  const std::size_t n = model.num_variables();
  const double sense = (model.sense() == lp::Sense::kMaximize) ? -1.0 : 1.0;
  const util::Timer timer;
  const std::size_t max_nodes =
      options_.max_nodes != 0 ? options_.max_nodes : 200000;
  lp::SimplexSolver lp_solver(options_.lp_options);

  // Working model: bounds are overwritten per node; constraints/objective
  // stay shared, so no per-node copies of the big parts.
  lp::Model work = model;

  IlpSolution out;

  // The registry mirrors the IlpSolution counters (one batched add per
  // solve on every exit path), so run reports see solver totals without
  // callers forwarding them by hand.
  struct SolveObs {
    const IlpSolution& out;
    const util::Timer& timer;
    obs::TraceSpan span{"ilp.solve"};
    ~SolveObs() {
      if (!obs::enabled()) return;
      auto& reg = obs::MetricsRegistry::global();
      static obs::Counter& solves = reg.counter("ilp.solves");
      static obs::Counter& nodes = reg.counter("ilp.nodes");
      static obs::Counter& warm_attempts = reg.counter("ilp.warm_attempts");
      static obs::Counter& warm_hits = reg.counter("ilp.warm_hits");
      static obs::Counter& strong_lps = reg.counter("ilp.strong_branch_lps");
      static obs::Histogram& seconds = reg.histogram("ilp.solve_seconds");
      solves.add(1);
      nodes.add(out.nodes_explored);
      warm_attempts.add(out.warm_attempts);
      warm_hits.add(out.warm_hits);
      strong_lps.add(out.strong_branch_lps);
      seconds.observe(timer.elapsed_seconds());
      span.attr("nodes", static_cast<double>(out.nodes_explored));
      span.attr("lp_iterations", static_cast<double>(out.lp_iterations));
      span.attr("warm_hits", static_cast<double>(out.warm_hits));
      span.attr("strong_branch_lps",
                static_cast<double>(out.strong_branch_lps));
    }
  } solve_obs{out, timer};

  double incumbent = kInf;  // minimization view
  std::vector<double> incumbent_x;
  double worst_open_bound = kInf;  // best bound among abandoned nodes

  if (!warm_start.empty()) {
    MECRA_CHECK(warm_start.size() == n);
    MECRA_CHECK_MSG(model.max_violation(warm_start) <= 1e-6,
                    "warm start must be feasible");
    for (lp::VarId v = 0; v < n; ++v) {
      if (is_integer[v]) {
        MECRA_CHECK_MSG(
            std::abs(warm_start[v] - std::round(warm_start[v])) <= 1e-6,
            "warm start must be integral on integer variables");
      }
    }
    incumbent = sense * model.objective_value(warm_start);
    incumbent_x = warm_start;
  }

  // Root bounds: integer variables pre-rounded inward. These are the ONLY
  // full bound vectors of the solve; every node is a delta against them.
  std::vector<double> root_lo(n), root_hi(n);
  for (lp::VarId v = 0; v < n; ++v) {
    const auto& var = model.variable(v);
    root_lo[v] = is_integer[v] ? std::ceil(var.lower - 1e-9) : var.lower;
    root_hi[v] = is_integer[v] && var.upper != lp::kInfinity
                     ? std::floor(var.upper + 1e-9)
                     : var.upper;
    if (root_lo[v] > root_hi[v]) {
      out.status = IlpStatus::kInfeasible;
      return out;
    }
    work.set_bounds(v, root_lo[v], root_hi[v]);
  }

  // Per-node bound reconstruction state: cur_lo/cur_hi mirror `work` and
  // equal the root bounds except on `touched` variables.
  std::vector<double> cur_lo = root_lo;
  std::vector<double> cur_hi = root_hi;
  std::vector<lp::VarId> touched;
  std::vector<BoundDelta> arena;
  auto apply_node_bounds = [&](std::int32_t delta_idx) {
    for (lp::VarId v : touched) {
      cur_lo[v] = root_lo[v];
      cur_hi[v] = root_hi[v];
      work.set_bounds(v, root_lo[v], root_hi[v]);
    }
    touched.clear();
    for (std::int32_t i = delta_idx; i >= 0;
         i = arena[static_cast<std::size_t>(i)].parent) {
      const BoundDelta& d = arena[static_cast<std::size_t>(i)];
      if (d.is_upper) {
        cur_hi[d.var] = std::min(cur_hi[d.var], d.value);
      } else {
        cur_lo[d.var] = std::max(cur_lo[d.var], d.value);
      }
      touched.push_back(d.var);
    }
    for (lp::VarId v : touched) work.set_bounds(v, cur_lo[v], cur_hi[v]);
  };

  // A node whose bound cannot beat the incumbent by more than the gap
  // tolerances is pruned.
  auto dominated = [&](double bound) {
    if (bound >= incumbent - options_.absolute_gap) return true;
    const double rel = options_.relative_gap * std::max(1.0, std::abs(incumbent));
    return bound >= incumbent - rel;
  };

  // Integer-feasible point `x` (integer variables within the tolerance of
  // an integer): snapped, it replaces the incumbent when it is better.
  auto offer_incumbent = [&](std::vector<double> x) {
    for (lp::VarId v = 0; v < n; ++v) {
      if (is_integer[v]) x[v] = std::round(x[v]);
    }
    const double obj = sense * model.objective_value(x);
    if (obj < incumbent) {
      incumbent = obj;
      incumbent_x = std::move(x);
    }
  };

  // Dive-and-fix: round every integer variable of `relaxed` to the nearest
  // integer inside the node bounds, pin it, and re-solve the LP for the
  // continuous remainder. Any optimal re-solve is an integer-feasible
  // incumbent candidate. Falls back to flooring when rounding is
  // infeasible. Only integer-variable bounds are touched in `work` (the
  // continuous ones already carry the node bounds) and they are restored
  // before returning. The fixed LP warm-starts from the node's own optimal
  // basis when one is available (a pure bound change, so resolve applies);
  // these heuristic solves are not counted as warm_attempts, which track
  // node relaxations only.
  auto try_rounding = [&](const std::vector<double>& relaxed,
                          const lp::Basis* node_basis) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      for (lp::VarId v = 0; v < n; ++v) {
        if (!is_integer[v]) continue;
        double r = attempt == 0 ? std::round(relaxed[v])
                                : std::floor(relaxed[v] + 1e-9);
        // Clamp into the node box one side at a time: hi can be +inf, and
        // std::clamp(r, lo, hi) is UB whenever lo > hi substitutes (the
        // old `hi == inf ? r : hi` argument made exactly that possible).
        r = std::max(r, cur_lo[v]);
        if (cur_hi[v] != lp::kInfinity) r = std::min(r, cur_hi[v]);
        work.set_bounds(v, r, r);
      }
      const lp::Solution fixed = node_basis != nullptr
                                     ? lp_solver.resolve(work, *node_basis)
                                     : lp_solver.solve(work);
      out.lp_iterations += fixed.iterations;
      if (!fixed.optimal()) continue;
      offer_incumbent(fixed.x);
      break;  // nearest-rounding worked; no need for the floor pass
    }
    for (lp::VarId v = 0; v < n; ++v) {
      if (is_integer[v]) work.set_bounds(v, cur_lo[v], cur_hi[v]);
    }
  };

  // Pseudocosts, allocated at the first branch: a solve that never
  // branches pays nothing for them. `all_observed` pools every observation
  // and stands in for the directions a variable has not been seen in (1.0
  // before any observation, which ranks like most-fractional).
  std::vector<Pseudocost> pseudocosts;
  Pseudocost all_observed;
  auto observe = [&](lp::VarId v, Direction dir, double loss_per_unit) {
    pseudocosts[v].observe(dir, loss_per_unit);
    all_observed.observe(dir, loss_per_unit);
  };
  auto estimate = [&](lp::VarId v, Direction dir) {
    return pseudocosts[v].mean(dir, all_observed.mean(dir, 1.0));
  };
  std::vector<Candidate> candidates;

  // Strong branching: solve the child LP of the current node with
  // x_v <= fl (down) or x_v >= fl + 1 (up) from the node's basis, then
  // restore the node box. Returns the child's LP value in minimization
  // terms: +inf when infeasible, NaN when undecided (iteration limit).
  auto strong_child = [&](lp::VarId v, Direction dir, double fl,
                          const lp::Basis* node_basis) {
    if (dir == kDown) {
      work.set_bounds(v, cur_lo[v], fl);
    } else {
      work.set_bounds(v, fl + 1.0, cur_hi[v]);
    }
    const lp::Solution child = node_basis != nullptr
                                   ? lp_solver.resolve(work, *node_basis)
                                   : lp_solver.solve(work);
    work.set_bounds(v, cur_lo[v], cur_hi[v]);
    ++out.strong_branch_lps;
    out.lp_iterations += child.iterations;
    if (child.status == lp::SolveStatus::kInfeasible) return kInf;
    if (!child.optimal()) return std::numeric_limits<double>::quiet_NaN();
    return sense * child.objective;
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  open.push(Node{-kInf, 0.0, 0, -1, nullptr});

  bool hit_limit = false;
  bool root_unbounded = false;

  while (!open.empty()) {
    if (out.nodes_explored >= max_nodes ||
        (options_.time_limit_seconds > 0.0 &&
         timer.elapsed_seconds() > options_.time_limit_seconds)) {
      hit_limit = true;
      worst_open_bound = std::min(worst_open_bound, open.top().bound);
      break;
    }
    Node node = open.top();
    open.pop();
    if (incumbent < kInf && dominated(node.bound)) {
      break;  // best-bound order: every remaining node is at least as bad
    }
    ++out.nodes_explored;

    apply_node_bounds(node.delta);

    lp::Solution rel;
    if (options_.warm_lp && node.basis != nullptr) {
      ++out.warm_attempts;
      rel = lp_solver.resolve(work, *node.basis);
      if (rel.warm_started) ++out.warm_hits;
    } else {
      rel = lp_solver.solve(work);
    }
    out.lp_iterations += rel.iterations;
    if (rel.status == lp::SolveStatus::kInfeasible) continue;
    if (rel.status == lp::SolveStatus::kUnbounded) {
      if (node.depth == 0) root_unbounded = true;
      break;
    }
    if (rel.status == lp::SolveStatus::kIterationLimit) {
      // Cannot bound this subtree; treat conservatively as a limit.
      hit_limit = true;
      worst_open_bound = std::min(worst_open_bound, node.bound);
      continue;
    }
    const double bound = sense * rel.objective;
    if (node.distance > 0.0) {
      const BoundDelta& d = arena[static_cast<std::size_t>(node.delta)];
      observe(d.var, d.is_upper ? kDown : kUp,
              std::max(0.0, bound - node.bound) / node.distance);
    }
    if (incumbent < kInf && dominated(bound)) continue;

    candidates.clear();
    for (lp::VarId v = 0; v < n; ++v) {
      if (!is_integer[v]) continue;
      const double down = rel.x[v] - std::floor(rel.x[v]);
      if (std::min(down, 1.0 - down) <= options_.integrality_tol) continue;
      candidates.push_back(Candidate{v, {down, 1.0 - down}, 0.0});
    }

    if (candidates.empty()) {
      offer_incumbent(std::move(rel.x));  // integral
      continue;
    }

    // Primal heuristic: always while no incumbent exists, periodically
    // afterwards.
    if (options_.rounding_period != 0 &&
        (incumbent == kInf ||
         out.nodes_explored % options_.rounding_period == 0)) {
      try_rounding(rel.x, options_.warm_lp && rel.has_basis ? &rel.basis
                                                            : nullptr);
      if (dominated(bound)) continue;  // the heuristic closed this node
    }

    // Choose the branching variable. Candidates are scored from the
    // pseudocosts; once the tree is past kStrongBranchAfterNodes, the
    // best-scored unreliable ones are strong-branched instead (up to
    // kMaxStrongCandidates, stopping after kStrongLookahead that do not
    // raise the best score). A candidate with a child that strong
    // branching proves infeasible or dominated is taken at once. Ties go
    // to the lower variable index.
    if (pseudocosts.empty()) pseudocosts.resize(n);
    for (Candidate& c : candidates) {
      c.score = branching_score(c.distance[kDown] * estimate(c.var, kDown),
                                c.distance[kUp] * estimate(c.var, kUp));
    }
    const bool strong = out.nodes_explored > kStrongBranchAfterNodes;
    if (strong) {
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.score != b.score ? a.score > b.score
                                            : a.var < b.var;
                });
    }
    const lp::Basis* node_basis =
        options_.warm_lp && rel.has_basis ? &rel.basis : nullptr;
    const Candidate* chosen = nullptr;
    double chosen_score = -1.0;
    // Children's LP values from strong branching; NaN = not solved.
    std::array<double, 2> chosen_lp{};
    std::size_t strong_done = 0;
    std::size_t since_raised = 0;
    for (const Candidate& c : candidates) {
      double score = c.score;
      std::array<double, 2> child_lp = {
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::quiet_NaN()};
      const bool probe = strong && strong_done < kMaxStrongCandidates &&
                         since_raised < kStrongLookahead &&
                         !pseudocosts[c.var].reliable();
      if (probe) {
        ++strong_done;
        const double fl = std::floor(rel.x[c.var]);
        for (const Direction dir : {kDown, kUp}) {
          child_lp[dir] = strong_child(c.var, dir, fl, node_basis);
          if (std::isfinite(child_lp[dir])) {
            observe(c.var, dir,
                    std::max(0.0, child_lp[dir] - bound) / c.distance[dir]);
          }
        }
        if (dominated(child_lp[kDown]) || dominated(child_lp[kUp])) {
          chosen = &c;
          chosen_lp = child_lp;
          break;
        }
        if (!std::isnan(child_lp[kDown]) && !std::isnan(child_lp[kUp])) {
          score = branching_score(child_lp[kDown] - bound,
                                  child_lp[kUp] - bound);
        }
      }
      if (score > chosen_score) {
        chosen = &c;
        chosen_score = score;
        chosen_lp = child_lp;
        since_raised = 0;
      } else if (probe) {
        ++since_raised;
      }
    }

    // Branch: both children inherit this node's optimal basis for their
    // warm re-solve and record a one-bound delta in the arena. A child
    // that strong branching solved is queued at its own LP value, and not
    // at all when that value is infeasible or dominated.
    std::shared_ptr<const lp::Basis> child_basis;
    if (node_basis != nullptr) {
      child_basis = std::make_shared<lp::Basis>(std::move(rel.basis));
    }
    const lp::VarId branch_var = chosen->var;
    const double fl = std::floor(rel.x[branch_var]);
    const std::uint32_t child_depth = node.depth + 1;
    auto push_child = [&](Direction dir, double value) {
      if (dominated(chosen_lp[dir])) return;
      const bool solved = !std::isnan(chosen_lp[dir]);
      arena.push_back(BoundDelta{node.delta, branch_var, value, dir == kDown});
      open.push(Node{solved ? std::max(bound, chosen_lp[dir]) : bound,
                     solved ? 0.0 : chosen->distance[dir], child_depth,
                     static_cast<std::int32_t>(arena.size() - 1),
                     child_basis});
    };
    if (cur_lo[branch_var] <= fl) push_child(kDown, fl);  // x <= floor(xv)
    if (cur_hi[branch_var] == lp::kInfinity || fl + 1.0 <= cur_hi[branch_var]) {
      push_child(kUp, fl + 1.0);  // x >= floor(xv) + 1
    }
  }

  if (root_unbounded) {
    out.status = IlpStatus::kUnbounded;
    return out;
  }

  const bool have_incumbent = incumbent < kInf;
  if (have_incumbent) {
    out.objective = sense * incumbent;
    out.x = std::move(incumbent_x);
  }
  if (hit_limit) {
    out.status = have_incumbent ? IlpStatus::kFeasible : IlpStatus::kLimit;
    const double bound_min = std::min(worst_open_bound, incumbent);
    out.best_bound = sense * bound_min;
    return out;
  }
  if (!have_incumbent) {
    out.status = IlpStatus::kInfeasible;
    return out;
  }
  out.status = IlpStatus::kOptimal;
  out.best_bound = out.objective;
  return out;
}

}  // namespace mecra::ilp
