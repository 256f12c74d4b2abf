// Branch-and-bound MILP solver over the two-phase simplex.
//
// Best-first search on the LP relaxation bound; branches on the integer
// variable whose relaxation value is most fractional. Every node is the
// root's LP relaxation under the node's own variable bounds, solved in one
// LpRelaxation workspace per solve. Among tied optima the result is the
// first integral solution the search reaches, so the node order (and every
// pivot that decides it) is part of what a caller gets. Suited to the small
// allocation MILPs DiffServe solves every control period (tens of binaries
// and integer counts — §3.3 reports ~10 ms with Gurobi; this solver is
// benchmarked against the same budget in bench/milp_overhead).
#pragma once

#include "milp/problem.hpp"
#include "milp/simplex.hpp"

namespace diffserve::milp {

struct MilpOptions {
  SimplexOptions lp;
  double integrality_tol = 1e-6;
  /// Stop when the best bound is within this absolute gap of the incumbent.
  double absolute_gap = 1e-9;
  int max_nodes = 200000;
};

struct MilpResult {
  Solution solution;
  int nodes_explored = 0;
};

MilpResult solve_milp(const Problem& p, const MilpOptions& opts = {});

}  // namespace diffserve::milp
