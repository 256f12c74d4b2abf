#include "milp/simplex.hpp"

#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace diffserve::milp {

LpRelaxation::LpRelaxation(const Problem& p, const SimplexOptions& opts)
    : p_(p), opts_(opts), n_struct_(p.num_variables()) {
  DS_REQUIRE(n_struct_ > 0, "LP with no variables");
  coeff_.assign(p.num_constraints() * n_struct_, 0.0);
  for (std::size_t r = 0; r < p.num_constraints(); ++r)
    for (const auto& [idx, c] : p.constraints()[r].terms)
      coeff_[r * n_struct_ + static_cast<std::size_t>(idx)] += c;
}

// Scales the pivot row once and updates every other row only at the
// columns where the scaled pivot row is nonzero: elsewhere the update
// would subtract factor * 0, which changes at most the sign of a zero.
void LpRelaxation::pivot(std::size_t r, std::size_t col) {
  double* pr = row(r);
  const double pivot_val = pr[col];
  DS_CHECK(std::fabs(pivot_val) > 1e-12, "pivot on (near) zero element");
  const double inv = 1.0 / pivot_val;
  nonzero_.clear();
  for (std::size_t c = 0; c <= n_; ++c) {
    pr[c] *= inv;
    if (pr[c] != 0.0) nonzero_.push_back(c);
  }
  pr[col] = 1.0;  // exact
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == r) continue;
    double* tr = row(i);
    const double factor = tr[col];
    if (factor == 0.0) continue;
    for (const std::size_t c : nonzero_) tr[c] -= factor * pr[c];
    tr[col] = 0.0;  // exact
  }
  basis_[r] = col;
}

// Reduced costs z_j - c_j of `obj_` (maximization) under the current
// basis. rc_ holds z_j until the last loop. Row-major accumulation walks
// each tableau row contiguously; every z_j still sums its terms in row
// order, so the result is bit-identical to the column-by-column sum.
void LpRelaxation::reduced_costs() {
  rc_.assign(n_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    // y_i = objective coefficient of the basic variable in row i.
    const double y = obj_[basis_[i]];
    if (y == 0.0) continue;
    const double* r = row(i);
    for (std::size_t j = 0; j < n_; ++j) rc_[j] += y * r[j];
  }
  for (std::size_t j = 0; j < n_; ++j) rc_[j] -= obj_[j];
}

// Primal simplex iterations maximizing `obj_` from the current basis.
LpRelaxation::IterResult LpRelaxation::iterate(int& iters_used) {
  for (;;) {
    if (iters_used >= opts_.max_iterations) return IterResult::kLimit;
    reduced_costs();

    // Entering column: for maximization, any rc_j < -tol improves.
    std::size_t enter = n_;
    if (iters_used < opts_.bland_after) {
      double best = -opts_.tol;
      for (std::size_t j = 0; j < n_; ++j) {
        if (rc_[j] < best) {
          best = rc_[j];
          enter = j;
        }
      }
    } else {
      // Bland's rule: smallest index with negative reduced cost.
      for (std::size_t j = 0; j < n_; ++j) {
        if (rc_[j] < -opts_.tol) {
          enter = j;
          break;
        }
      }
    }
    if (enter == n_) return IterResult::kOptimal;

    // Leaving row: minimum ratio rhs / a[r][enter] over positive entries.
    std::size_t leave = m_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < m_; ++r) {
      const double* tr = row(r);
      const double coef = tr[enter];
      if (coef > opts_.tol) {
        const double ratio = tr[n_] / coef;
        if (ratio < best_ratio - 1e-12 ||
            (std::fabs(ratio - best_ratio) <= 1e-12 && leave < m_ &&
             basis_[r] < basis_[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == m_) return IterResult::kUnbounded;

    pivot(leave, enter);
    ++iters_used;
  }
}

const Solution& LpRelaxation::finish(SolveStatus status) {
  solution_.status = status;
  solution_.objective = 0.0;
  solution_.values.clear();
  return solution_;
}

const Solution& LpRelaxation::solve(const std::vector<double>& lo,
                                    const std::vector<double>& hi) {
  const auto& vars = p_.variables();
  const auto& cons = p_.constraints();
  DS_REQUIRE(lo.size() == n_struct_ && hi.size() == n_struct_,
             "bounds size mismatch");
  for (std::size_t j = 0; j < n_struct_; ++j) {
    DS_REQUIRE(lo[j] > -kInfinity,
               "free variables not supported: " + vars[j].name);
    if (lo[j] > hi[j]) return finish(SolveStatus::kInfeasible);
  }

  // Standard form. Each variable is shifted by its lower bound so all
  // structural variables are >= 0: the shift moves into every constraint's
  // rhs, and a finite upper bound becomes the row x_j <= hi_j - lo_j.
  rhs_.clear();
  sense_.clear();
  for (const auto& c : cons) {
    double rhs = c.rhs;
    for (const auto& [idx, coeff] : c.terms)
      rhs -= coeff * lo[static_cast<std::size_t>(idx)];
    rhs_.push_back(rhs);
    sense_.push_back(c.sense);
  }
  for (std::size_t j = 0; j < n_struct_; ++j) {
    if (hi[j] < kInfinity) {
      rhs_.push_back(hi[j] - lo[j]);
      sense_.push_back(Sense::kLe);
    }
  }
  m_ = rhs_.size();

  // Constraint rows with a negative rhs are negated. (Upper-bound rows
  // never are: lo <= hi.) Column layout: structural | slack/surplus (one
  // per Le/Ge row) | artificial (one per Ge/Eq row).
  std::size_t n_slack = 0, n_artificial = 0;
  for (std::size_t r = 0; r < m_; ++r) {
    if (rhs_[r] < 0.0) {
      if (sense_[r] == Sense::kLe) sense_[r] = Sense::kGe;
      else if (sense_[r] == Sense::kGe) sense_[r] = Sense::kLe;
    }
    if (sense_[r] != Sense::kEq) ++n_slack;
    if (sense_[r] != Sense::kLe) ++n_artificial;
  }
  n_ = n_struct_ + n_slack + n_artificial;

  a_.assign(m_ * (n_ + 1), 0.0);
  basis_.assign(m_, 0);
  is_artificial_.assign(n_, 0);
  std::size_t bound_row = cons.size();
  for (std::size_t j = 0; j < n_struct_; ++j)
    if (hi[j] < kInfinity) row(bound_row++)[j] = 1.0;
  std::size_t slack_col = n_struct_;
  std::size_t art_col = n_struct_ + n_slack;
  for (std::size_t r = 0; r < m_; ++r) {
    double* t = row(r);
    if (r < cons.size()) {
      const double* c = &coeff_[r * n_struct_];
      if (rhs_[r] < 0.0) {
        for (std::size_t j = 0; j < n_struct_; ++j) t[j] = -c[j];
      } else {
        for (std::size_t j = 0; j < n_struct_; ++j) t[j] = c[j];
      }
    }
    t[n_] = rhs_[r] < 0.0 ? -rhs_[r] : rhs_[r];
    switch (sense_[r]) {
      case Sense::kLe:
        t[slack_col] = 1.0;
        basis_[r] = slack_col++;
        break;
      case Sense::kGe:
        t[slack_col] = -1.0;
        ++slack_col;
        t[art_col] = 1.0;
        is_artificial_[art_col] = 1;
        basis_[r] = art_col++;
        break;
      case Sense::kEq:
        t[art_col] = 1.0;
        is_artificial_[art_col] = 1;
        basis_[r] = art_col++;
        break;
    }
  }

  int iters = 0;

  // Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
  if (n_artificial > 0) {
    obj_.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j)
      if (is_artificial_[j]) obj_[j] = -1.0;
    const auto res = iterate(iters);
    if (res == IterResult::kLimit) return finish(SolveStatus::kLimit);
    DS_CHECK(res != IterResult::kUnbounded, "phase 1 cannot be unbounded");
    double art_sum = 0.0;
    for (std::size_t r = 0; r < m_; ++r)
      if (is_artificial_[basis_[r]]) art_sum += row(r)[n_];
    if (art_sum > 1e-7) return finish(SolveStatus::kInfeasible);
    // Pivot any artificial still basic (at zero) out of the basis.
    for (std::size_t r = 0; r < m_; ++r) {
      if (!is_artificial_[basis_[r]]) continue;
      const double* t = row(r);
      std::size_t enter = n_;
      for (std::size_t j = 0; j < n_struct_ + n_slack; ++j) {
        if (std::fabs(t[j]) > 1e-9) {
          enter = j;
          break;
        }
      }
      if (enter < n_) pivot(r, enter);
      // else: the row is all zeros — redundant constraint; harmless.
    }
  }

  // Phase 2: maximize the true objective over the shifted variables.
  // (Artificial columns are forbidden by pricing them prohibitively.)
  obj_.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) obj_[j] = vars[j].objective;
  for (std::size_t j = 0; j < n_; ++j)
    if (is_artificial_[j]) obj_[j] = -1e12;
  const auto res = iterate(iters);
  if (res == IterResult::kLimit) return finish(SolveStatus::kLimit);
  if (res == IterResult::kUnbounded) return finish(SolveStatus::kUnbounded);

  auto& x = solution_.values;
  x.assign(n_struct_, 0.0);
  for (std::size_t r = 0; r < m_; ++r)
    if (basis_[r] < n_struct_) x[basis_[r]] = row(r)[n_];
  for (std::size_t j = 0; j < n_struct_; ++j) {
    x[j] += lo[j];
    // Clean tiny negatives from roundoff.
    if (std::fabs(x[j] - lo[j]) < 1e-9) x[j] = lo[j];
  }
  solution_.status = SolveStatus::kOptimal;
  solution_.objective = p_.objective_value(x);
  return solution_;
}

Solution solve_lp(const Problem& p, const SimplexOptions& opts) {
  std::vector<double> lo, hi;
  for (const auto& v : p.variables()) {
    lo.push_back(v.lower);
    hi.push_back(v.upper);
  }
  return LpRelaxation(p, opts).solve(lo, hi);
}

}  // namespace diffserve::milp
