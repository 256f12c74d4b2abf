#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace diffserve::milp {

namespace {

// A node is the root problem under its own variable bounds: each branching
// tightens one bound of a copy of its parent's.
struct Node {
  std::vector<double> lo, hi;
  double bound = 0.0;  // parent LP objective (upper bound for maximization)
};

struct NodeCompare {
  bool operator()(const Node& a, const Node& b) const {
    return a.bound < b.bound;  // best-first: largest bound on top
  }
};

/// Index of the most fractional integer variable, or -1 if integral.
int most_fractional(const Problem& p, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_frac_dist = tol;
  for (std::size_t i = 0; i < p.num_variables(); ++i) {
    if (p.variables()[i].type == VarType::kContinuous) continue;
    const double frac = x[i] - std::floor(x[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

MilpResult solve_milp(const Problem& p, const MilpOptions& opts) {
  MilpResult result;
  result.solution.status = SolveStatus::kInfeasible;
  double incumbent = -kInfinity;

  // The open list is a binary heap run by the same push_heap/pop_heap calls
  // as std::priority_queue, so nodes come off it in the same order, but the
  // top node's bound arrays can be moved out instead of copied.
  std::vector<Node> open;
  const NodeCompare cmp{};
  Node root{{}, {}, kInfinity};
  for (const auto& v : p.variables()) {
    root.lo.push_back(v.lower);
    root.hi.push_back(v.upper);
  }
  open.push_back(std::move(root));

  LpRelaxation lp(p, opts.lp);
  bool any_lp_limit = false;

  while (!open.empty() && result.nodes_explored < opts.max_nodes) {
    std::pop_heap(open.begin(), open.end(), cmp);
    Node node = std::move(open.back());
    open.pop_back();
    if (node.bound <= incumbent + opts.absolute_gap && incumbent > -kInfinity)
      break;  // best-first: no remaining node can beat the incumbent
    ++result.nodes_explored;

    const Solution& relax = lp.solve(node.lo, node.hi);
    if (relax.status == SolveStatus::kInfeasible) continue;
    if (relax.status == SolveStatus::kLimit) {
      any_lp_limit = true;
      continue;
    }
    if (relax.status == SolveStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded
      // (for our problems all variables are bounded, so this is unexpected).
      result.solution.status = SolveStatus::kUnbounded;
      return result;
    }
    if (relax.objective <= incumbent + opts.absolute_gap) continue;  // pruned

    const int branch_var = most_fractional(p, relax.values,
                                           opts.integrality_tol);
    if (branch_var < 0) {
      // Integral: candidate incumbent.
      if (relax.objective > incumbent) {
        incumbent = relax.objective;
        result.solution = relax;
        result.solution.status = SolveStatus::kOptimal;
        // Snap integers exactly.
        for (std::size_t i = 0; i < p.num_variables(); ++i)
          if (p.variables()[i].type != VarType::kContinuous)
            result.solution.values[i] = std::round(result.solution.values[i]);
        result.solution.objective =
            p.objective_value(result.solution.values);
      }
      continue;
    }

    const auto b = static_cast<std::size_t>(branch_var);
    const double v = relax.values[b];
    Node down = node;
    down.bound = relax.objective;
    down.hi[b] = std::min(down.hi[b], std::floor(v));
    Node up = std::move(node);
    up.bound = relax.objective;
    up.lo[b] = std::max(up.lo[b], std::ceil(v));
    open.push_back(std::move(down));
    std::push_heap(open.begin(), open.end(), cmp);
    open.push_back(std::move(up));
    std::push_heap(open.begin(), open.end(), cmp);
  }

  if (result.solution.status != SolveStatus::kOptimal) {
    result.solution.status =
        any_lp_limit || result.nodes_explored >= opts.max_nodes
            ? SolveStatus::kLimit
            : SolveStatus::kInfeasible;
  } else if (result.nodes_explored >= opts.max_nodes && !open.empty()) {
    // Incumbent exists but optimality not proven.
    result.solution.status = SolveStatus::kLimit;
  }
  return result;
}

}  // namespace diffserve::milp
