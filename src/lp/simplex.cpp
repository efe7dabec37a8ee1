#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/metrics.h"

namespace mecra::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

enum class VarStatus : std::uint8_t { kBasic, kAtLower, kAtUpper };

constexpr std::uint32_t kNoOwner = 0xffffffffu;

/// Internal working state: the model rewritten as
///   min c'x  s.t.  T x = b,  0 <= x <= U
/// with columns [structural | slack | artificial] and (cold path only) all
/// rhs >= 0.
struct Tableau {
  std::size_t num_rows = 0;
  std::size_t num_structural = 0;
  std::size_t num_cols = 0;          // structural + slack + artificial
  std::size_t first_artificial = 0;  // == num_cols when none
  util::Matrix t;                    // num_rows x num_cols, pivoted in place
  std::vector<double> upper;         // U_j (shifted); +inf allowed
  std::vector<double> cost;          // phase-2 cost (shifted space)
  std::vector<double> d;             // reduced-cost row, maintained by pivots
  std::vector<double> xval;          // current value per column (shifted)
  std::vector<VarStatus> status;
  std::vector<std::size_t> basic;    // basic column per row
  std::vector<std::size_t> row_cert; // slack-or-artificial column per row
  std::vector<double> row_cert_coef; // its coefficient in that row
  std::vector<double> row_sign;      // +-1 applied to normalize rhs >= 0
  std::vector<double> shift;         // lower bound per structural var
  std::vector<std::uint32_t> col_owner;  // owner row of slack/artificial cols
  /// Resolve path only: B^-1 * b in the ORIGINAL (unshifted) space, carried
  /// through every pivot. Bound changes never touch it, so basic values
  /// under new bounds are recomputable without rebuilding the tableau.
  std::vector<double> rhs0;
};

void init_structural(Tableau& tb, const Model& model, double sense_factor) {
  const std::size_t n = model.num_variables();
  tb.shift.resize(n);
  for (VarId v = 0; v < n; ++v) tb.shift[v] = model.variable(v).lower;
  for (VarId v = 0; v < n; ++v) {
    const Variable& var = model.variable(v);
    tb.upper[v] = var.upper - var.lower;  // may be +inf
    tb.cost[v] = sense_factor * var.objective;
  }
}

Tableau build_tableau(const Model& model, double sense_factor) {
  Tableau tb;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  tb.num_rows = m;
  tb.num_structural = n;

  tb.shift.resize(n);
  for (VarId v = 0; v < n; ++v) tb.shift[v] = model.variable(v).lower;

  // Pass 1: decide slack/artificial layout. Every row gets a slack except
  // equality rows; a row needs an artificial unless its slack enters the
  // initial basis with a +1 coefficient after sign normalization.
  std::vector<double> rhs(m);
  std::vector<int> slack_col(m, -1);
  std::vector<double> slack_coef(m, 0.0);
  tb.row_sign.assign(m, 1.0);
  std::size_t next_col = n;
  for (RowId r = 0; r < m; ++r) {
    const Constraint& c = model.constraint(r);
    double b = c.rhs;
    for (const Term& term : c.terms) b -= term.coeff * tb.shift[term.var];
    rhs[r] = b;
    if (c.relation != Relation::kEqual) {
      slack_col[r] = static_cast<int>(next_col++);
      slack_coef[r] = (c.relation == Relation::kLessEqual) ? 1.0 : -1.0;
    }
  }
  std::vector<int> art_col(m, -1);
  tb.first_artificial = next_col;
  for (RowId r = 0; r < m; ++r) {
    const double sign = (rhs[r] < 0.0) ? -1.0 : 1.0;
    tb.row_sign[r] = sign;
    // After normalization the slack coefficient is slack_coef * sign; it can
    // start basic only when that is +1 (value rhs*sign >= 0 within [0, inf)).
    const bool slack_basic = slack_col[r] >= 0 && slack_coef[r] * sign > 0.0;
    if (!slack_basic) art_col[r] = static_cast<int>(next_col++);
  }
  tb.num_cols = next_col;

  tb.t.reset(m, tb.num_cols, 0.0);
  tb.upper.assign(tb.num_cols, kInfinity);
  tb.cost.assign(tb.num_cols, 0.0);
  tb.xval.assign(tb.num_cols, 0.0);
  tb.status.assign(tb.num_cols, VarStatus::kAtLower);
  tb.basic.assign(m, 0);
  tb.row_cert.assign(m, 0);
  tb.row_cert_coef.assign(m, 1.0);
  tb.col_owner.assign(tb.num_cols, kNoOwner);

  init_structural(tb, model, sense_factor);

  for (RowId r = 0; r < m; ++r) {
    const Constraint& c = model.constraint(r);
    const double sign = tb.row_sign[r];
    for (const Term& term : c.terms) {
      tb.t(r, term.var) += sign * term.coeff;
    }
    rhs[r] *= sign;
    if (slack_col[r] >= 0) {
      const auto sc = static_cast<std::size_t>(slack_col[r]);
      tb.t(r, sc) = slack_coef[r] * sign;
      tb.row_cert[r] = sc;
      tb.row_cert_coef[r] = slack_coef[r] * sign;
      tb.col_owner[sc] = r;
    }
    if (art_col[r] >= 0) {
      const auto ac = static_cast<std::size_t>(art_col[r]);
      tb.t(r, ac) = 1.0;
      tb.basic[r] = ac;
      tb.status[ac] = VarStatus::kBasic;
      tb.xval[ac] = rhs[r];
      tb.col_owner[ac] = r;
      // Equality rows have no slack; their dual certificate is the
      // artificial column instead.
      if (slack_col[r] < 0) {
        tb.row_cert[r] = ac;
        tb.row_cert_coef[r] = 1.0;
      }
    } else {
      const auto sc = static_cast<std::size_t>(slack_col[r]);
      tb.basic[r] = sc;
      tb.status[sc] = VarStatus::kBasic;
      tb.xval[sc] = rhs[r];
    }
  }
  return tb;
}

/// Canonical (bounds-independent) layout for warm re-solves: no sign
/// normalization, slack per non-equality row in row order, and one
/// artificial per row pinned to [0, 0]. The artificials exist only as
/// stable placeholders for inherited degenerate-basic artificials and as
/// dual certificates of equality rows; they can never take a nonzero
/// value. `rhs0` holds the UNSHIFTED rhs (so it stays valid across bound
/// changes) and is carried through every subsequent pivot.
Tableau build_canonical_tableau(const Model& model, double sense_factor) {
  Tableau tb;
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  tb.num_rows = m;
  tb.num_structural = n;

  std::size_t num_slack = 0;
  for (RowId r = 0; r < m; ++r) {
    if (model.constraint(r).relation != Relation::kEqual) ++num_slack;
  }
  tb.first_artificial = n + num_slack;
  tb.num_cols = tb.first_artificial + m;

  tb.t.reset(m, tb.num_cols, 0.0);
  tb.upper.assign(tb.num_cols, kInfinity);
  tb.cost.assign(tb.num_cols, 0.0);
  tb.xval.assign(tb.num_cols, 0.0);
  tb.status.assign(tb.num_cols, VarStatus::kAtLower);
  tb.basic.assign(m, 0);
  tb.row_cert.assign(m, 0);
  tb.row_cert_coef.assign(m, 1.0);
  tb.row_sign.assign(m, 1.0);
  tb.col_owner.assign(tb.num_cols, kNoOwner);
  tb.shift.resize(n);
  tb.rhs0.assign(m, 0.0);

  init_structural(tb, model, sense_factor);

  std::size_t next_slack = n;
  for (RowId r = 0; r < m; ++r) {
    const Constraint& c = model.constraint(r);
    for (const Term& term : c.terms) {
      tb.t(r, term.var) += term.coeff;
    }
    tb.rhs0[r] = c.rhs;
    const std::size_t ac = tb.first_artificial + r;
    tb.t(r, ac) = 1.0;
    tb.upper[ac] = 0.0;
    tb.col_owner[ac] = r;
    if (c.relation != Relation::kEqual) {
      const std::size_t sc = next_slack++;
      const double coef = (c.relation == Relation::kLessEqual) ? 1.0 : -1.0;
      tb.t(r, sc) = coef;
      tb.row_cert[r] = sc;
      tb.row_cert_coef[r] = coef;
      tb.col_owner[sc] = r;
    } else {
      tb.row_cert[r] = ac;
      tb.row_cert_coef[r] = 1.0;
    }
  }
  return tb;
}

/// Recomputes the reduced-cost row d = cost - cost_B' * T from scratch.
void reset_reduced_costs(Tableau& tb) {
  tb.d = tb.cost;
  for (std::size_t r = 0; r < tb.num_rows; ++r) {
    const double cb = tb.cost[tb.basic[r]];
    if (cb == 0.0) continue;
    const auto row = tb.t.row(r);
    for (std::size_t j = 0; j < tb.num_cols; ++j) {
      tb.d[j] -= cb * row[j];
    }
  }
}

/// Row-reduces the tableau so column q becomes the unit vector of
/// `leave_row`, carrying the rhs0 column (when present) and optionally the
/// reduced-cost row through the elimination. The pivot must be nonzero.
void pivot_eliminate(Tableau& tb, std::size_t leave_row, std::size_t q,
                     bool update_d) {
  const bool carry_rhs0 = !tb.rhs0.empty();
  auto pivot_row = tb.t.row(leave_row);
  const double piv = pivot_row[q];
  MECRA_CHECK_MSG(std::abs(piv) > 1e-12, "numerically singular pivot");
  for (double& cell : pivot_row) cell /= piv;
  pivot_row[q] = 1.0;  // kill roundoff
  if (carry_rhs0) tb.rhs0[leave_row] /= piv;
  for (std::size_t r = 0; r < tb.num_rows; ++r) {
    if (r == leave_row) continue;
    const double factor = tb.t(r, q);
    if (factor == 0.0) continue;
    auto row = tb.t.row(r);
    for (std::size_t j = 0; j < tb.num_cols; ++j) {
      row[j] -= factor * pivot_row[j];
    }
    row[q] = 0.0;
    if (carry_rhs0) tb.rhs0[r] -= factor * tb.rhs0[leave_row];
  }
  if (update_d) {
    const double factor = tb.d[q];
    if (factor != 0.0) {
      for (std::size_t j = 0; j < tb.num_cols; ++j) {
        tb.d[j] -= factor * pivot_row[j];
      }
      tb.d[q] = 0.0;
    }
  }
}

struct PivotLimits {
  std::size_t max_iterations;
  double tol;
  std::size_t degenerate_switch;
  std::size_t pricing_window;
};

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

/// Runs primal simplex pivots until optimality for the current cost row.
/// `allow_entering(j)` filters candidate entering columns (used to ban
/// artificials in phase 2 and on the resolve path).
///
/// Pricing is partial: a rotating cursor scans columns until the first
/// eligible candidate, then at most `pricing_window` further columns, and
/// pivots on the best candidate seen. Optimality is declared only when a
/// full wrap over all columns finds nothing eligible, so the optimality
/// proof is identical to full Dantzig pricing.
template <typename Filter>
PhaseResult run_simplex(Tableau& tb, const PivotLimits& lim,
                        std::size_t& iterations, const Filter& allow_entering) {
  const double tol = lim.tol;
  std::size_t degenerate_run = 0;
  bool bland = false;
  std::size_t cursor = 0;

  for (;; ++iterations) {
    if (iterations >= lim.max_iterations) return PhaseResult::kIterationLimit;
    if (degenerate_run > lim.degenerate_switch) bland = true;

    // --- Pricing: pick the entering column q. ---
    std::size_t q = tb.num_cols;
    double best_score = tol;
    if (bland) {
      // Bland's rule needs a FIXED index order for its anti-cycling proof,
      // so it ignores the rotating cursor: smallest eligible index wins.
      for (std::size_t j = 0; j < tb.num_cols; ++j) {
        if (tb.status[j] == VarStatus::kBasic || !allow_entering(j)) continue;
        if ((tb.status[j] == VarStatus::kAtLower && tb.d[j] < -tol) ||
            (tb.status[j] == VarStatus::kAtUpper && tb.d[j] > tol)) {
          q = j;
          break;
        }
      }
    } else {
      const std::size_t window = std::min(lim.pricing_window, tb.num_cols);
      std::size_t scan_limit = tb.num_cols;
      for (std::size_t step = 0; step < scan_limit; ++step) {
        std::size_t j = cursor + step;
        if (j >= tb.num_cols) j -= tb.num_cols;
        if (tb.status[j] == VarStatus::kBasic || !allow_entering(j)) continue;
        double score = 0.0;
        if (tb.status[j] == VarStatus::kAtLower && tb.d[j] < -tol) {
          score = -tb.d[j];
        } else if (tb.status[j] == VarStatus::kAtUpper && tb.d[j] > tol) {
          score = tb.d[j];
        } else {
          continue;
        }
        if (q == tb.num_cols) {  // first candidate: bound the rest of the scan
          scan_limit = std::min(scan_limit, step + window);
        }
        if (score > best_score) {
          best_score = score;
          q = j;
        }
      }
    }
    if (q == tb.num_cols) return PhaseResult::kOptimal;
    cursor = q + 1 == tb.num_cols ? 0 : q + 1;

    const double sigma = (tb.status[q] == VarStatus::kAtLower) ? 1.0 : -1.0;

    // --- Ratio test (bounded-variable rule, incl. bound flip). ---
    double t_limit = tb.upper[q];  // bound-flip distance; may be +inf
    std::size_t leave_row = tb.num_rows;
    double leave_alpha = 0.0;  // sigma * T(r, q) of the limiting row
    for (std::size_t r = 0; r < tb.num_rows; ++r) {
      const double alpha = sigma * tb.t(r, q);
      if (std::abs(alpha) <= tol) continue;
      const std::size_t bvar = tb.basic[r];
      double ratio;
      if (alpha > 0.0) {  // basic value decreases toward 0
        ratio = tb.xval[bvar] / alpha;
      } else {  // basic value increases toward its upper bound
        if (tb.upper[bvar] == kInfinity) continue;
        ratio = (tb.upper[bvar] - tb.xval[bvar]) / (-alpha);
      }
      ratio = std::max(ratio, 0.0);
      bool better;
      if (ratio < t_limit - 1e-12) {
        better = true;
      } else if (ratio <= t_limit + 1e-12 && leave_row != tb.num_rows) {
        // Tie: Bland wants the smallest basic index; otherwise prefer the
        // numerically largest pivot element.
        better = bland ? (bvar < tb.basic[leave_row])
                       : (std::abs(alpha) > std::abs(leave_alpha));
      } else {
        better = false;
      }
      if (better) {
        t_limit = std::min(t_limit, ratio);
        leave_row = r;
        leave_alpha = alpha;
      }
    }

    if (t_limit == kInfinity) return PhaseResult::kUnbounded;

    if (leave_row == tb.num_rows) {
      // Pure bound flip: q travels to its opposite bound; basis unchanged.
      const double step = sigma * t_limit;
      for (std::size_t r = 0; r < tb.num_rows; ++r) {
        tb.xval[tb.basic[r]] -= step * tb.t(r, q);
      }
      if (sigma > 0.0) {
        tb.xval[q] = tb.upper[q];
        tb.status[q] = VarStatus::kAtUpper;
      } else {
        tb.xval[q] = 0.0;
        tb.status[q] = VarStatus::kAtLower;
      }
      degenerate_run = (t_limit <= tol) ? degenerate_run + 1 : 0;
      continue;
    }

    // --- Pivot: q enters, basic[leave_row] leaves. ---
    const double step = sigma * t_limit;
    for (std::size_t r = 0; r < tb.num_rows; ++r) {
      tb.xval[tb.basic[r]] -= step * tb.t(r, q);
    }
    tb.xval[q] += step;

    const std::size_t leaving = tb.basic[leave_row];
    if (leave_alpha > 0.0) {
      tb.status[leaving] = VarStatus::kAtLower;
      tb.xval[leaving] = 0.0;
    } else {
      tb.status[leaving] = VarStatus::kAtUpper;
      tb.xval[leaving] = tb.upper[leaving];
    }
    tb.basic[leave_row] = q;
    tb.status[q] = VarStatus::kBasic;

    pivot_eliminate(tb, leave_row, q, /*update_d=*/true);
    degenerate_run = (t_limit <= tol) ? degenerate_run + 1 : 0;
  }
}

enum class DualResult { kFeasible, kInfeasible, kIterationLimit };

/// Bounded-variable dual simplex: starting from a dual-feasible basis with
/// primal-infeasible basic values, drives every basic variable back inside
/// its bounds. Used by resolve() to repair an inherited parent basis after
/// bound tightenings. Columns >= first_artificial (and any other fixed
/// column, upper == 0) can never restore feasibility and are skipped; that
/// keeps the no-entering-column infeasibility certificate exact.
DualResult run_dual_simplex(Tableau& tb, const PivotLimits& lim,
                            std::size_t& iterations) {
  const double tol = lim.tol;
  std::size_t degenerate_run = 0;
  bool bland = false;

  for (;; ++iterations) {
    if (iterations >= lim.max_iterations) return DualResult::kIterationLimit;
    if (degenerate_run > lim.degenerate_switch) bland = true;

    // --- Leaving row: the most out-of-bounds basic variable. ---
    std::size_t leave_row = tb.num_rows;
    double worst = tol;
    bool above = false;
    for (std::size_t r = 0; r < tb.num_rows; ++r) {
      const std::size_t bvar = tb.basic[r];
      const double below_by = -tb.xval[bvar];
      const double above_by = tb.upper[bvar] == kInfinity
                                  ? -kInfinity
                                  : tb.xval[bvar] - tb.upper[bvar];
      if (below_by > worst) {
        worst = below_by;
        leave_row = r;
        above = false;
      }
      if (above_by > worst) {
        worst = above_by;
        leave_row = r;
        above = true;
      }
    }
    if (leave_row == tb.num_rows) return DualResult::kFeasible;

    const std::size_t leaving = tb.basic[leave_row];
    const auto row = tb.t.row(leave_row);

    // --- Entering column: dual ratio test min |d_j| / |alpha_j| over the
    // columns whose movement can push the leaving variable back toward the
    // violated bound without breaking dual feasibility. ---
    std::size_t q = tb.num_cols;
    double best_ratio = kInfinity;
    double best_alpha = 0.0;
    for (std::size_t j = 0; j < tb.num_cols; ++j) {
      if (tb.status[j] == VarStatus::kBasic) continue;
      if (tb.upper[j] <= 0.0) continue;  // fixed column: cannot move
      const double alpha = row[j];
      if (std::abs(alpha) <= tol) continue;
      bool eligible;
      if (!above) {  // leaving var below lower: its value must increase
        eligible = (tb.status[j] == VarStatus::kAtLower && alpha < 0.0) ||
                   (tb.status[j] == VarStatus::kAtUpper && alpha > 0.0);
      } else {  // above upper: its value must decrease
        eligible = (tb.status[j] == VarStatus::kAtLower && alpha > 0.0) ||
                   (tb.status[j] == VarStatus::kAtUpper && alpha < 0.0);
      }
      if (!eligible) continue;
      const double ratio = std::abs(tb.d[j]) / std::abs(alpha);
      bool better;
      if (q == tb.num_cols) {
        better = true;
      } else if (bland) {
        better = ratio < best_ratio - 1e-12 ||
                 (ratio <= best_ratio + 1e-12 && j < q);
      } else {
        better = ratio < best_ratio - 1e-12 ||
                 (ratio <= best_ratio + 1e-12 &&
                  std::abs(alpha) > std::abs(best_alpha));
      }
      if (better) {
        best_ratio = std::min(best_ratio, ratio);
        q = j;
        best_alpha = alpha;
      }
    }
    // No column can move the leaving variable toward feasibility: the row
    // proves the child LP infeasible (its basic value is already at the
    // extreme of the attainable range).
    if (q == tb.num_cols) return DualResult::kInfeasible;

    // --- Step: leaving goes exactly to its violated bound. ---
    const double target = above ? tb.upper[leaving] : 0.0;
    const double delta_b = target - tb.xval[leaving];
    const double step = -delta_b / best_alpha;  // signed change of x_q
    for (std::size_t r = 0; r < tb.num_rows; ++r) {
      tb.xval[tb.basic[r]] -= step * tb.t(r, q);
    }
    tb.xval[q] += step;
    tb.xval[leaving] = target;
    tb.status[leaving] = above ? VarStatus::kAtUpper : VarStatus::kAtLower;
    tb.basic[leave_row] = q;
    tb.status[q] = VarStatus::kBasic;

    const double theta = std::abs(tb.d[q]);
    pivot_eliminate(tb, leave_row, q, /*update_d=*/true);
    degenerate_run = (theta <= tol) ? degenerate_run + 1 : 0;
  }
}

void export_basis(const Tableau& tb, Solution& sol) {
  sol.basis.var_status.assign(tb.num_structural, 0);
  for (std::size_t v = 0; v < tb.num_structural; ++v) {
    switch (tb.status[v]) {
      case VarStatus::kBasic: sol.basis.var_status[v] = 2; break;
      case VarStatus::kAtUpper: sol.basis.var_status[v] = 1; break;
      case VarStatus::kAtLower: sol.basis.var_status[v] = 0; break;
    }
  }
  sol.basis.row_basic.resize(tb.num_rows);
  for (std::size_t r = 0; r < tb.num_rows; ++r) {
    const std::size_t c = tb.basic[r];
    Basis::RowBasic rb;
    if (c < tb.num_structural) {
      rb.kind = Basis::RowBasicKind::kStructural;
      rb.index = static_cast<std::uint32_t>(c);
    } else if (c < tb.first_artificial) {
      rb.kind = Basis::RowBasicKind::kSlack;
      rb.index = tb.col_owner[c];
    } else {
      rb.kind = Basis::RowBasicKind::kArtificial;
      rb.index = tb.col_owner[c];
    }
    sol.basis.row_basic[r] = rb;
  }
  sol.has_basis = true;
}

void extract_solution(const Tableau& tb, const Model& model,
                      double sense_factor, Solution& sol) {
  for (VarId v = 0; v < model.num_variables(); ++v) {
    sol.x[v] = tb.shift[v] + tb.xval[v];
    // Snap tiny noise onto the bounds for clean downstream consumption.
    const Variable& var = model.variable(v);
    if (std::abs(sol.x[v] - var.lower) < 1e-9) sol.x[v] = var.lower;
    if (var.upper != kInfinity && std::abs(sol.x[v] - var.upper) < 1e-9) {
      sol.x[v] = var.upper;
    }
  }
  sol.objective = model.objective_value(sol.x);
  for (RowId r = 0; r < model.num_constraints(); ++r) {
    // Reduced cost of the row's slack/artificial certificate column gives
    // the dual of the normalized row; undo normalization and sense flips.
    const std::size_t col = tb.row_cert[r];
    const double y_norm = -tb.d[col] / tb.row_cert_coef[r];
    sol.duals[r] = sense_factor * tb.row_sign[r] * y_norm;
  }
  sol.status = SolveStatus::kOptimal;
  export_basis(tb, sol);
}

PivotLimits make_limits(const SimplexOptions& options, const Tableau& tb) {
  // Auto window: full Dantzig below a few hundred columns — there the
  // pricing scan is cheap next to the elimination, and a narrow window only
  // buys extra pivots — partial pricing above, where scans dominate.
  const std::size_t window =
      options.pricing_window != 0
          ? options.pricing_window
          : std::max<std::size_t>(256, tb.num_cols / 8);
  return PivotLimits{options.max_iterations != 0
                         ? options.max_iterations
                         : 400 * (tb.num_rows + tb.num_cols + 1),
                     options.tolerance, options.degenerate_switch, window};
}

}  // namespace

namespace {

/// Batches the per-solve pivot count into the registry on scope exit (one
/// counter add per solve, regardless of the exit path — never per pivot).
struct LpObsRecord {
  const Solution& sol;
  bool warm;  // counts under lp.warm_resolves, else lp.cold_solves
  ~LpObsRecord() {
    if (!obs::enabled()) return;
    auto& reg = obs::MetricsRegistry::global();
    if (warm) {
      static obs::Counter& warm_resolves = reg.counter("lp.warm_resolves");
      warm_resolves.add(1);
    } else {
      static obs::Counter& cold_solves = reg.counter("lp.cold_solves");
      cold_solves.add(1);
    }
    static obs::Counter& pivots = reg.counter("lp.pivots");
    pivots.add(sol.iterations);
  }
};

}  // namespace

Solution SimplexSolver::solve(const Model& model) const {
  const double sense_factor =
      (model.sense() == Sense::kMaximize) ? -1.0 : 1.0;
  Tableau tb = build_tableau(model, sense_factor);

  Solution sol;
  const LpObsRecord obs_record{sol, /*warm=*/false};
  sol.x.assign(model.num_variables(), 0.0);
  sol.duals.assign(model.num_constraints(), 0.0);

  const PivotLimits lim = make_limits(options_, tb);

  // ---- Phase 1: minimize the sum of artificials. ----
  const bool has_artificials = tb.first_artificial < tb.num_cols;
  if (has_artificials) {
    std::vector<double> phase2_cost = tb.cost;
    for (std::size_t j = 0; j < tb.num_cols; ++j) {
      tb.cost[j] = (j >= tb.first_artificial) ? 1.0 : 0.0;
    }
    reset_reduced_costs(tb);
    const PhaseResult r1 = run_simplex(tb, lim, sol.iterations,
                                       [](std::size_t) { return true; });
    if (r1 == PhaseResult::kIterationLimit) {
      sol.status = SolveStatus::kIterationLimit;
      return sol;
    }
    double infeasibility = 0.0;
    for (std::size_t j = tb.first_artificial; j < tb.num_cols; ++j) {
      infeasibility += tb.xval[j];
    }
    if (infeasibility > 1e-7) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    // Clamp artificials so phase 2 can never move them off zero; the ratio
    // test keeps a basic variable inside [0, upper], so upper = 0 pins them.
    for (std::size_t j = tb.first_artificial; j < tb.num_cols; ++j) {
      tb.upper[j] = 0.0;
      tb.xval[j] = 0.0;
      if (tb.status[j] == VarStatus::kAtUpper) tb.status[j] = VarStatus::kAtLower;
    }
    tb.cost = std::move(phase2_cost);
  }

  // ---- Phase 2: original objective. ----
  reset_reduced_costs(tb);
  const std::size_t first_art = tb.first_artificial;
  const PhaseResult r2 =
      run_simplex(tb, lim, sol.iterations,
                  [first_art](std::size_t j) { return j < first_art; });
  switch (r2) {
    case PhaseResult::kIterationLimit:
      sol.status = SolveStatus::kIterationLimit;
      return sol;
    case PhaseResult::kUnbounded:
      sol.status = SolveStatus::kUnbounded;
      return sol;
    case PhaseResult::kOptimal:
      break;
  }

  extract_solution(tb, model, sense_factor, sol);
  return sol;
}

namespace {

/// Cross-resolve cache (one per thread): the canonical tableau stays
/// pivoted between resolve() calls. The tableau body (B^-1 A), the reduced
/// costs, and the carried rhs0 column are all independent of variable
/// bounds, so consecutive resolves of the same model — the branch-and-bound
/// node sequence — only have to (a) pivot in the columns where the
/// requested basis differs from the currently installed one (usually one or
/// two), (b) refresh xval/statuses from the new bounds, and (c) run the
/// dual-simplex repair. A fingerprint of everything except the bounds
/// detects model switches and falls back to a full rebuild; the tableau is
/// also rebuilt after a pivot budget to curb accumulated roundoff
/// (full-tableau simplex has no refactorization step).
struct ResolveCache {
  bool valid = false;
  std::uint64_t stamp = 0;  // Model::structure_stamp of the cached tableau
  std::size_t pivots_since_rebuild = 0;
  Tableau tb;
  // Scratch reused across resolves to keep the hot path allocation-free.
  std::vector<std::size_t> basis_cols;
  std::vector<bool> in_basis;
  std::vector<double> xb;
};

/// Maps the abstract basis onto canonical-tableau columns. Returns false
/// when the snapshot cannot belong to this model (wrong shape, slack of an
/// equality row, duplicate columns, status/set mismatch, at-upper without a
/// finite upper bound).
bool map_basis_columns(const Tableau& tb, const Model& model,
                       const Basis& basis,
                       std::vector<std::size_t>& basis_cols,
                       std::vector<bool>& in_basis) {
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  basis_cols.assign(m, 0);
  in_basis.assign(tb.num_cols, false);
  for (std::size_t r = 0; r < m; ++r) {
    const Basis::RowBasic& rb = basis.row_basic[r];
    std::size_t col;
    switch (rb.kind) {
      case Basis::RowBasicKind::kStructural:
        if (rb.index >= n || basis.var_status[rb.index] != 2) return false;
        col = rb.index;
        break;
      case Basis::RowBasicKind::kSlack:
        if (rb.index >= m || tb.row_cert[rb.index] >= tb.first_artificial) {
          return false;  // equality row has no slack
        }
        col = tb.row_cert[rb.index];
        break;
      case Basis::RowBasicKind::kArtificial:
        if (rb.index >= m) return false;
        col = tb.first_artificial + rb.index;
        break;
      default:
        return false;
    }
    if (in_basis[col]) return false;  // duplicate basic column
    in_basis[col] = true;
    basis_cols[r] = col;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if ((basis.var_status[v] == 2) != in_basis[v]) return false;
    if (basis.var_status[v] == 1 && tb.upper[v] == kInfinity) {
      return false;  // at-upper status needs a finite upper bound
    }
  }
  return true;
}

/// Installs the requested basis into a FRESH canonical tableau. Slack and
/// artificial basis columns are unit vectors of their owner rows, so they
/// install as O(cols) row scales; only structural basis columns pay a full
/// Gauss-Jordan elimination. The reduced-cost row starts at the raw costs
/// and is carried through the pivots, which leaves it exactly
/// c - c_B' B^-1 A with no separate reset pass.
bool install_basis_fresh(Tableau& tb,
                         const std::vector<std::size_t>& basis_cols) {
  const std::size_t m = tb.num_rows;
  tb.d = tb.cost;
  std::vector<bool> row_done(m, false);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t col = basis_cols[k];
    if (col < tb.num_structural) continue;
    const std::size_t owner = tb.col_owner[col];
    if (row_done[owner]) return false;  // dependent columns: not a basis
    pivot_eliminate(tb, owner, col, /*update_d=*/true);
    row_done[owner] = true;
    tb.basic[owner] = col;
  }
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t col = basis_cols[k];
    if (col >= tb.num_structural) continue;
    std::size_t pivot_row = m;
    double best = 1e-9;
    for (std::size_t r = 0; r < m; ++r) {
      if (row_done[r]) continue;
      const double a = std::abs(tb.t(r, col));
      if (a > best) {
        best = a;
        pivot_row = r;
      }
    }
    if (pivot_row == m) return false;  // numerically singular basis
    pivot_eliminate(tb, pivot_row, col, /*update_d=*/true);
    row_done[pivot_row] = true;
    tb.basic[pivot_row] = col;
  }
  return true;
}

/// Re-targets an already-pivoted cached tableau to the requested basis:
/// pivots in exactly the requested columns that are not currently basic,
/// each evicting a stale basic column. Between a parent and a child
/// branch-and-bound node this difference is tiny, so the whole install is
/// a handful of eliminations instead of m of them.
bool install_basis_diff(Tableau& tb, const std::vector<bool>& in_basis,
                        std::size_t& pivots) {
  const std::size_t m = tb.num_rows;
  for (std::size_t col = 0; col < tb.num_cols; ++col) {
    if (!in_basis[col] || tb.status[col] == VarStatus::kBasic) continue;
    std::size_t pivot_row = m;
    double best = 1e-9;
    for (std::size_t r = 0; r < m; ++r) {
      if (in_basis[tb.basic[r]]) continue;  // that column stays basic
      const double a = std::abs(tb.t(r, col));
      if (a > best) {
        best = a;
        pivot_row = r;
      }
    }
    if (pivot_row == m) return false;  // numerically singular basis
    pivot_eliminate(tb, pivot_row, col, /*update_d=*/true);
    tb.status[tb.basic[pivot_row]] = VarStatus::kAtLower;  // evicted
    tb.basic[pivot_row] = col;
    tb.status[col] = VarStatus::kBasic;
    ++pivots;
  }
  return true;
}

/// The warm path of resolve(); nullopt means "basis unusable, cold-solve".
std::optional<Solution> try_resolve(const Model& model, const Basis& basis,
                                    const SimplexOptions& options,
                                    ResolveCache& cache) {
  const std::size_t n = model.num_variables();
  const std::size_t m = model.num_constraints();
  if (basis.var_status.size() != n || basis.row_basic.size() != m) {
    return std::nullopt;
  }

  const double sense_factor =
      (model.sense() == Sense::kMaximize) ? -1.0 : 1.0;
  const std::uint64_t stamp = model.structure_stamp();

  // Roundoff guard: the cached tableau is never refactorized, so rebuild it
  // from the model once enough pivots have accumulated on it.
  constexpr std::size_t kRebuildPivotBudget = 512;
  const bool reuse = cache.valid && cache.stamp == stamp &&
                     cache.pivots_since_rebuild < kRebuildPivotBudget;

  std::vector<std::size_t>& basis_cols = cache.basis_cols;
  std::vector<bool>& in_basis = cache.in_basis;
  if (reuse) {
    Tableau& tb = cache.tb;
    // Bounds moved since the last resolve: refresh shift/upper (the tableau
    // body, d, and rhs0 do not depend on them).
    init_structural(tb, model, sense_factor);
    if (!map_basis_columns(tb, model, basis, basis_cols, in_basis) ||
        !install_basis_diff(tb, in_basis, cache.pivots_since_rebuild)) {
      cache.valid = false;  // retry below with a fresh tableau
    }
  }
  if (!cache.valid || cache.stamp != stamp ||
      cache.pivots_since_rebuild >= kRebuildPivotBudget) {
    cache.valid = false;
    cache.tb = build_canonical_tableau(model, sense_factor);
    cache.pivots_since_rebuild = 0;
    if (!map_basis_columns(cache.tb, model, basis, basis_cols, in_basis) ||
        !install_basis_fresh(cache.tb, basis_cols)) {
      return std::nullopt;
    }
    cache.stamp = stamp;
    cache.valid = true;
  }
  Tableau& tb = cache.tb;

  // ---- Statuses and values under the NEW bounds. Basic values come from
  // the carried rhs0 column: x_B (original space) = B^-1 b minus every
  // nonbasic column weighted by its original-space resting value. ----
  for (std::size_t j = 0; j < tb.num_cols; ++j) {
    if (in_basis[j]) {
      tb.status[j] = VarStatus::kBasic;
    } else if (j < n && basis.var_status[j] == 1) {
      tb.status[j] = VarStatus::kAtUpper;
      tb.xval[j] = tb.upper[j];
    } else {
      tb.status[j] = VarStatus::kAtLower;
      tb.xval[j] = 0.0;
    }
  }
  std::vector<double>& xb = cache.xb;
  xb = tb.rhs0;
  for (std::size_t j = 0; j < tb.first_artificial; ++j) {
    if (tb.status[j] == VarStatus::kBasic) continue;
    // Structural nonbasics rest at an original-space bound; slack nonbasics
    // rest at 0. Artificials are always 0.
    const double vorig = j < n ? tb.shift[j] + tb.xval[j] : 0.0;
    if (vorig == 0.0) continue;
    for (std::size_t r = 0; r < m; ++r) {
      xb[r] -= tb.t(r, j) * vorig;
    }
  }
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t bvar = tb.basic[r];
    tb.xval[bvar] = bvar < n ? xb[r] - tb.shift[bvar] : xb[r];
  }

  // ---- Repair bound: fall back when too many basics are out of bounds
  // (the dual-simplex repair would then cost more than a cold solve). ----
  const double tol = options.tolerance;
  std::size_t out_of_bounds = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t bvar = tb.basic[r];
    const double v = tb.xval[bvar];
    if (v < -tol || (tb.upper[bvar] != kInfinity && v > tb.upper[bvar] + tol)) {
      ++out_of_bounds;
    }
  }
  const std::size_t repair_limit =
      options.resolve_repair_limit != 0 ? options.resolve_repair_limit
                                        : std::max<std::size_t>(8, m / 4);
  if (out_of_bounds > repair_limit) return std::nullopt;

  Solution sol;
  sol.x.assign(n, 0.0);
  sol.duals.assign(m, 0.0);
  const PivotLimits lim = make_limits(options, tb);

  // ---- Dual-simplex repair: the inherited basis is dual-feasible (costs
  // are unchanged), so once primal feasibility is restored the point is
  // optimal up to numerical drift. ----
  if (out_of_bounds > 0) {
    switch (run_dual_simplex(tb, lim, sol.iterations)) {
      case DualResult::kIterationLimit:
        cache.pivots_since_rebuild += sol.iterations;
        return std::nullopt;  // pathological: let the cold path decide
      case DualResult::kInfeasible:
        cache.pivots_since_rebuild += sol.iterations;
        sol.status = SolveStatus::kInfeasible;
        sol.warm_started = true;
        return sol;
      case DualResult::kFeasible:
        break;
    }
  }

  // ---- Primal cleanup: a no-op scan when the dual repair already hit the
  // optimum; otherwise mops up any dual-feasibility drift. Artificials are
  // banned from entering, as in phase 2. ----
  const std::size_t first_art = tb.first_artificial;
  const PhaseResult rp =
      run_simplex(tb, lim, sol.iterations,
                  [first_art](std::size_t j) { return j < first_art; });
  cache.pivots_since_rebuild += sol.iterations;
  switch (rp) {
    case PhaseResult::kIterationLimit:
      return std::nullopt;
    case PhaseResult::kUnbounded:
      sol.status = SolveStatus::kUnbounded;
      sol.warm_started = true;
      return sol;
    case PhaseResult::kOptimal:
      break;
  }

  extract_solution(tb, model, sense_factor, sol);
  sol.warm_started = true;
  return sol;
}

ResolveCache& thread_resolve_cache() {
  thread_local ResolveCache cache;
  return cache;
}

}  // namespace

Solution SimplexSolver::resolve(const Model& model, const Basis& basis) const {
  if (std::optional<Solution> warm =
          try_resolve(model, basis, options_, thread_resolve_cache())) {
    const LpObsRecord obs_record{*warm, /*warm=*/true};
    return *std::move(warm);
  }
  if (obs::enabled()) {
    static obs::Counter& cold_falls =
        obs::MetricsRegistry::global().counter("lp.resolve_cold_fallbacks");
    cold_falls.add(1);
  }
  return solve(model);  // cold fallback; warm_started stays false
}

}  // namespace mecra::lp
