// Two-phase primal simplex for linear programs, re-solvable under new
// variable bounds.
//
// Solves  max c^T x  s.t.  A x {<=,>=,=} b,  l <= x <= u.  `LpRelaxation`
// converts a problem's constraints to dense rows over the structural
// variables once. Each solve() then takes the bounds (l, u), shifts every
// variable by its lower bound, adds one row per finite upper bound, flips
// rows to a non-negative right-hand side and appends slack, surplus and
// artificial columns, all into one flat tableau that the next solve reuses.
// Branch-and-bound solves every node this way, with the node's bounds.
// Dantzig pricing with a Bland's-rule fallback guards against cycling; a
// pivot updates the other rows only at the pivot row's nonzero columns.
// Problem sizes in this system are tiny (tens of variables), so the dense
// tableau is the appropriate choice.
#pragma once

#include <cstddef>
#include <vector>

#include "milp/problem.hpp"

namespace diffserve::milp {

struct SimplexOptions {
  double tol = 1e-9;          ///< pivot / feasibility tolerance
  int max_iterations = 20000;
  /// Switch to Bland's rule after this many Dantzig iterations.
  int bland_after = 5000;
};

/// The LP relaxation of one problem (integrality markers ignored), solved
/// under any variable bounds. Holds a reference to the problem, which must
/// outlive it.
class LpRelaxation {
 public:
  explicit LpRelaxation(const Problem& p, const SimplexOptions& opts = {});

  /// Solve with lo <= x <= hi in place of the problem's own bounds. Bounds
  /// that cross (lo > hi) are infeasible. The result stays valid until the
  /// next solve.
  const Solution& solve(const std::vector<double>& lo,
                        const std::vector<double>& hi);

 private:
  enum class IterResult { kOptimal, kUnbounded, kLimit };

  double* row(std::size_t r) { return &a_[r * (n_ + 1)]; }
  void pivot(std::size_t r, std::size_t col);
  void reduced_costs();
  IterResult iterate(int& iters_used);
  const Solution& finish(SolveStatus status);

  const Problem& p_;
  SimplexOptions opts_;
  std::size_t n_struct_ = 0;
  /// Constraint rows over the structural variables, duplicates summed.
  std::vector<double> coeff_;

  // Workspace of the current solve: m_ x (n_ + 1) row-major tableau whose
  // last column is the rhs, the basic column of each row, the objective
  // being maximized and its reduced costs, the pivot row's nonzero columns.
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<double> a_;
  std::vector<std::size_t> basis_;
  std::vector<char> is_artificial_;
  std::vector<double> obj_;
  std::vector<double> rc_;
  std::vector<std::size_t> nonzero_;
  std::vector<double> rhs_;
  std::vector<Sense> sense_;
  Solution solution_;
};

/// Solve the LP relaxation of `p` under its own bounds.
Solution solve_lp(const Problem& p, const SimplexOptions& opts = {});

}  // namespace diffserve::milp
