#include "milp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace diffserve::milp {

namespace {

// Dense standard-form tableau:
//   rows 0..m-1: constraints (A | rhs), rhs >= 0
//   basis[i]: column basic in row i
// Columns: 0..n_struct-1 structural (shifted originals), then slack /
// surplus, then artificial.
struct Tableau {
  std::size_t m = 0;                  // rows
  std::size_t n = 0;                  // columns excluding rhs
  std::vector<std::vector<double>> a; // m x (n + 1); last column is rhs
  std::vector<std::size_t> basis;     // size m
};

void pivot(Tableau& t, std::size_t row, std::size_t col) {
  auto& pr = t.a[row];
  const double pivot_val = pr[col];
  DS_CHECK(std::fabs(pivot_val) > 1e-12, "pivot on (near) zero element");
  const double inv = 1.0 / pivot_val;
  for (auto& v : pr) v *= inv;
  pr[col] = 1.0;  // exact
  for (std::size_t r = 0; r < t.m; ++r) {
    if (r == row) continue;
    auto& tr = t.a[r];
    const double factor = tr[col];
    if (factor == 0.0) continue;
    for (std::size_t c = 0; c <= t.n; ++c) tr[c] -= factor * pr[c];
    tr[col] = 0.0;  // exact
  }
  t.basis[row] = col;
}

// Reduced costs for objective `obj` (maximization) given the current basis:
// z_j - c_j computed via the basic objective coefficients.
// Returns (reduced costs, objective value).
std::pair<std::vector<double>, double> reduced_costs(
    const Tableau& t, const std::vector<double>& obj) {
  // rc holds z_j until the last loop. Row-major accumulation walks each
  // tableau row contiguously; every z_j still sums its terms in row order,
  // so the result is bit-identical to the column-by-column sum.
  std::vector<double> rc(t.n, 0.0);
  double z = 0.0;
  for (std::size_t i = 0; i < t.m; ++i) {
    // y_i = objective coefficient of the basic variable in row i.
    const double y = obj[t.basis[i]];
    z += y * t.a[i][t.n];
    if (y == 0.0) continue;
    const double* row = t.a[i].data();
    for (std::size_t j = 0; j < t.n; ++j) rc[j] += y * row[j];
  }
  for (std::size_t j = 0; j < t.n; ++j) rc[j] -= obj[j];
  return {std::move(rc), z};
}

enum class IterResult { kOptimal, kUnbounded, kLimit };

// Primal simplex iterations maximizing `obj` from the current basis.
IterResult iterate(Tableau& t, const std::vector<double>& obj,
                   const SimplexOptions& opts, int& iters_used) {
  for (;;) {
    if (iters_used >= opts.max_iterations) return IterResult::kLimit;
    auto [rc, z] = reduced_costs(t, obj);
    (void)z;

    // Entering column: for maximization, any rc_j < -tol improves.
    std::size_t enter = t.n;
    if (iters_used < opts.bland_after) {
      double best = -opts.tol;
      for (std::size_t j = 0; j < t.n; ++j) {
        if (rc[j] < best) {
          best = rc[j];
          enter = j;
        }
      }
    } else {
      // Bland's rule: smallest index with negative reduced cost.
      for (std::size_t j = 0; j < t.n; ++j) {
        if (rc[j] < -opts.tol) {
          enter = j;
          break;
        }
      }
    }
    if (enter == t.n) return IterResult::kOptimal;

    // Leaving row: minimum ratio rhs / a[r][enter] over positive entries.
    std::size_t leave = t.m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.m; ++r) {
      const double coef = t.a[r][enter];
      if (coef > opts.tol) {
        const double ratio = t.a[r][t.n] / coef;
        if (ratio < best_ratio - 1e-12 ||
            (std::fabs(ratio - best_ratio) <= 1e-12 && leave < t.m &&
             t.basis[r] < t.basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == t.m) return IterResult::kUnbounded;

    pivot(t, leave, enter);
    ++iters_used;
  }
}

}  // namespace

Solution solve_lp(const Problem& p, const SimplexOptions& opts) {
  const auto& vars = p.variables();
  const std::size_t n_struct = vars.size();
  DS_REQUIRE(n_struct > 0, "LP with no variables");

  // Standard-form conversion. Shift each variable by its lower bound so all
  // structural variables are >= 0. Finite upper bounds become extra rows.
  std::vector<double> shift(n_struct);
  for (std::size_t j = 0; j < n_struct; ++j) {
    DS_REQUIRE(vars[j].lower > -kInfinity,
               "free variables not supported: " + vars[j].name);
    shift[j] = vars[j].lower;
  }

  struct Row {
    std::vector<double> coeff;  // dense over structural vars
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (const auto& c : p.constraints()) {
    Row row{std::vector<double>(n_struct, 0.0), c.sense, c.rhs};
    for (const auto& [idx, coeff] : c.terms) {
      row.coeff[static_cast<std::size_t>(idx)] += coeff;
      row.rhs -= coeff * shift[static_cast<std::size_t>(idx)];
    }
    rows.push_back(std::move(row));
  }
  for (std::size_t j = 0; j < n_struct; ++j) {
    if (vars[j].upper < kInfinity) {
      Row row{std::vector<double>(n_struct, 0.0), Sense::kLe,
              vars[j].upper - shift[j]};
      row.coeff[j] = 1.0;
      rows.push_back(std::move(row));
    }
  }

  // Flip rows to get rhs >= 0.
  for (auto& row : rows) {
    if (row.rhs < 0.0) {
      for (auto& v : row.coeff) v = -v;
      row.rhs = -row.rhs;
      if (row.sense == Sense::kLe) row.sense = Sense::kGe;
      else if (row.sense == Sense::kGe) row.sense = Sense::kLe;
    }
  }

  const std::size_t m = rows.size();
  // Column layout: structural | slack/surplus (one per Le/Ge row) |
  // artificial (one per Ge/Eq row).
  std::size_t n_slack = 0, n_artificial = 0;
  for (const auto& row : rows) {
    if (row.sense != Sense::kEq) ++n_slack;
    if (row.sense != Sense::kLe) ++n_artificial;
  }
  const std::size_t n_total = n_struct + n_slack + n_artificial;

  Tableau t;
  t.m = m;
  t.n = n_total;
  t.a.assign(m, std::vector<double>(n_total + 1, 0.0));
  t.basis.assign(m, 0);

  std::size_t slack_col = n_struct;
  std::size_t art_col = n_struct + n_slack;
  std::vector<bool> is_artificial(n_total, false);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& row = rows[r];
    for (std::size_t j = 0; j < n_struct; ++j) t.a[r][j] = row.coeff[j];
    t.a[r][n_total] = row.rhs;
    switch (row.sense) {
      case Sense::kLe:
        t.a[r][slack_col] = 1.0;
        t.basis[r] = slack_col++;
        break;
      case Sense::kGe:
        t.a[r][slack_col] = -1.0;
        ++slack_col;
        t.a[r][art_col] = 1.0;
        is_artificial[art_col] = true;
        t.basis[r] = art_col++;
        break;
      case Sense::kEq:
        t.a[r][art_col] = 1.0;
        is_artificial[art_col] = true;
        t.basis[r] = art_col++;
        break;
    }
  }

  int iters = 0;

  // Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
  if (n_artificial > 0) {
    std::vector<double> phase1_obj(n_total, 0.0);
    for (std::size_t j = 0; j < n_total; ++j)
      if (is_artificial[j]) phase1_obj[j] = -1.0;
    const auto res = iterate(t, phase1_obj, opts, iters);
    if (res == IterResult::kLimit) return {SolveStatus::kLimit, 0.0, {}};
    DS_CHECK(res != IterResult::kUnbounded, "phase 1 cannot be unbounded");
    double art_sum = 0.0;
    for (std::size_t r = 0; r < m; ++r)
      if (is_artificial[t.basis[r]]) art_sum += t.a[r][n_total];
    if (art_sum > 1e-7) return {SolveStatus::kInfeasible, 0.0, {}};
    // Pivot any artificial still basic (at zero) out of the basis.
    for (std::size_t r = 0; r < m; ++r) {
      if (!is_artificial[t.basis[r]]) continue;
      std::size_t enter = n_total;
      for (std::size_t j = 0; j < n_struct + n_slack; ++j) {
        if (std::fabs(t.a[r][j]) > 1e-9) {
          enter = j;
          break;
        }
      }
      if (enter < n_total) pivot(t, r, enter);
      // else: the row is all zeros — redundant constraint; harmless.
    }
  }

  // Phase 2: maximize the true objective over the shifted variables.
  // (Artificial columns are forbidden by pricing them prohibitively.)
  std::vector<double> obj(n_total, 0.0);
  for (std::size_t j = 0; j < n_struct; ++j) obj[j] = vars[j].objective;
  for (std::size_t j = 0; j < n_total; ++j)
    if (is_artificial[j]) obj[j] = -1e12;
  const auto res = iterate(t, obj, opts, iters);
  if (res == IterResult::kLimit) return {SolveStatus::kLimit, 0.0, {}};
  if (res == IterResult::kUnbounded) return {SolveStatus::kUnbounded, 0.0, {}};

  Solution sol;
  sol.status = SolveStatus::kOptimal;
  sol.values.assign(n_struct, 0.0);
  for (std::size_t r = 0; r < m; ++r)
    if (t.basis[r] < n_struct) sol.values[t.basis[r]] = t.a[r][n_total];
  for (std::size_t j = 0; j < n_struct; ++j) {
    sol.values[j] += shift[j];
    // Clean tiny negatives from roundoff.
    if (std::fabs(sol.values[j] - vars[j].lower) < 1e-9)
      sol.values[j] = vars[j].lower;
  }
  sol.objective = p.objective_value(sol.values);
  return sol;
}

}  // namespace diffserve::milp
