#include "control/milp_allocator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "control/exhaustive_allocator.hpp"
#include "util/check.hpp"

namespace diffserve::control {

MilpAllocator::MilpAllocator(Formulation formulation,
                             milp::MilpOptions options)
    : formulation_(formulation), options_(options) {}

namespace {

/// The grid formulation only linearizes a single boundary; deeper chains
/// use the continuous formulation.
MilpAllocator::Formulation effective_formulation(
    const AllocationInput& in, MilpAllocator::Formulation requested) {
  if (in.boundary_count() != 1)
    return MilpAllocator::Formulation::kContinuousDeferral;
  return requested;
}

}  // namespace

// Variable layout (in order of creation), per stage s = 0..N-1:
//   y_s[b]  binary   one-hot batch choice for stage s   (|B_s| vars)
//   x_s[b]  integer  stage-s workers running batch b    (|B_s| vars)
// then, depending on the formulation:
//   z[k]    binary   one-hot threshold choice           (kThresholdGrid,
//                                                        single boundary)
//   phi_b   continuous cumulative deferral fraction     (kContinuousDeferral,
//            entering stage b+1, one per boundary)
milp::Problem MilpAllocator::build_problem(const AllocationInput& in,
                                           Formulation formulation,
                                           double worker_penalty) {
  const std::size_t n = in.stage_count();
  DS_REQUIRE(in.boundary_count() + 1 == n,
             "one threshold grid per cascade boundary");
  for (const auto& grid : in.boundary_grids)
    DS_REQUIRE(!grid.empty(), "empty threshold grid");
  formulation = effective_formulation(in, formulation);
  milp::Problem p;
  const double s_cap = in.total_workers;
  const double d = in.provisioned_demand();

  std::vector<std::vector<int>> y(n), x(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto& bs = in.stages[s].perf.batch_sizes();
    y[s].resize(bs.size());
    x[s].resize(bs.size());
    const std::string tag = std::to_string(s + 1);
    for (std::size_t i = 0; i < bs.size(); ++i) {
      y[s][i] = p.add_variable("y" + tag + "_b" + std::to_string(bs[i]),
                               milp::VarType::kBinary, 0, 1, 0.0);
      x[s][i] = p.add_variable("x" + tag + "_b" + std::to_string(bs[i]),
                               milp::VarType::kInteger, 0, s_cap,
                               -worker_penalty);
    }
  }

  std::vector<int> z;
  std::vector<int> phi;
  if (formulation == Formulation::kThresholdGrid) {
    const auto& grid = in.boundary_grids[0];
    z.resize(grid.size());
    for (std::size_t k = 0; k < grid.size(); ++k)
      z[k] = p.add_variable("z_" + std::to_string(k), milp::VarType::kBinary,
                            0, 1, grid[k].threshold);
  } else {
    // Maximizing each cumulative fraction is equivalent to maximizing the
    // boundary thresholds because every f_b is monotone non-decreasing in
    // t; thresholds are recovered from the grids after the solve.
    phi.resize(in.boundary_count());
    for (std::size_t b = 0; b < in.boundary_count(); ++b)
      phi[b] = p.add_variable("phi_" + std::to_string(b),
                              milp::VarType::kContinuous, 0.0,
                              in.boundary_grids[b].back().fraction, 1.0);
  }

  // One-hot batch choices.
  std::vector<std::pair<int, double>> terms;
  for (std::size_t s = 0; s < n; ++s) {
    terms.clear();
    for (const int v : y[s]) terms.push_back({v, 1.0});
    p.add_constraint("choose_b" + std::to_string(s + 1), terms,
                     milp::Sense::kEq, 1.0);
  }
  if (formulation == Formulation::kThresholdGrid) {
    terms.clear();
    for (const int v : z) terms.push_back({v, 1.0});
    p.add_constraint("choose_t", terms, milp::Sense::kEq, 1.0);
  }

  // Workers may only run the chosen batch size: x_{s,b} <= S y_{s,b}.
  for (std::size_t s = 0; s < n; ++s) {
    const auto& bs = in.stages[s].perf.batch_sizes();
    for (std::size_t i = 0; i < bs.size(); ++i)
      p.add_constraint("link_x" + std::to_string(s + 1) + "_b" +
                           std::to_string(bs[i]),
                       {{x[s][i], 1.0}, {y[s][i], -s_cap}}, milp::Sense::kLe,
                       0.0);
  }

  // Eq. 2: stage-0 throughput (with utilization headroom) covers all
  // demand.
  terms.clear();
  {
    const auto& bs = in.stages[0].perf.batch_sizes();
    for (std::size_t i = 0; i < bs.size(); ++i)
      terms.push_back({x[0][i], in.stages[0].perf.throughput(bs[i]) *
                                    in.stages[0].utilization_target});
  }
  p.add_constraint("stage1_throughput", terms, milp::Sense::kGe, d);

  // Eq. 3 per deeper stage: throughput covers the demand deferred into it.
  for (std::size_t s = 1; s < n; ++s) {
    terms.clear();
    const auto& bs = in.stages[s].perf.batch_sizes();
    for (std::size_t i = 0; i < bs.size(); ++i)
      terms.push_back({x[s][i], in.stages[s].perf.throughput(bs[i]) *
                                    in.stages[s].utilization_target});
    if (formulation == Formulation::kThresholdGrid) {
      const auto& grid = in.boundary_grids[0];
      for (std::size_t k = 0; k < grid.size(); ++k)
        terms.push_back({z[k], -d * grid[k].fraction});
    } else {
      terms.push_back({phi[s - 1], -d});
    }
    p.add_constraint("stage" + std::to_string(s + 1) + "_throughput", terms,
                     milp::Sense::kGe, 0.0);
  }

  // Chain consistency: the fraction entering stage b+1 cannot exceed the
  // boundary's maximal deferral of what entered stage b. (Boundary 0's
  // bound is the variable's upper bound.)
  if (formulation == Formulation::kContinuousDeferral) {
    for (std::size_t b = 1; b < in.boundary_count(); ++b)
      p.add_constraint(
          "chain_phi" + std::to_string(b),
          {{phi[b], 1.0},
           {phi[b - 1], -in.boundary_grids[b].back().fraction}},
          milp::Sense::kLe, 0.0);
  }

  // Eq. 4: device budget.
  terms.clear();
  for (std::size_t s = 0; s < n; ++s)
    for (const int v : x[s]) terms.push_back({v, 1.0});
  p.add_constraint("device_budget", terms, milp::Sense::kLe, s_cap);

  // Eq. 1: latency. Queuing delays are constants at solve time (Little's
  // law on live observations); stage latencies depend on the chosen batch.
  double latency_budget = in.slo_seconds;
  terms.clear();
  for (std::size_t s = 0; s < n; ++s) {
    latency_budget -= littles_law_delay(in.stages[s].queue_length,
                                        in.stages[s].arrival_rate);
    const auto& bs = in.stages[s].perf.batch_sizes();
    for (std::size_t i = 0; i < bs.size(); ++i)
      terms.push_back({y[s][i], in.stages[s].perf.stage_latency(bs[i])});
  }
  p.add_constraint("latency_slo", terms, milp::Sense::kLe, latency_budget);

  return p;
}

AllocationDecision MilpAllocator::allocate(const AllocationInput& in) {
  // ds-lint: allow(wall-clock): solve_time_ms is telemetry; the decision
  // itself is a pure function of `in`.
  const auto start = std::chrono::steady_clock::now();
  const Formulation formulation = effective_formulation(in, formulation_);
  milp::MilpOptions options = options_;
  if (in.boundary_count() > 1) {
    // Deep chains blow up the branch-and-bound tree: the recovered
    // thresholds are quantized on the profile grid (~0.01 f spacing) while
    // the per-worker tie-break penalty creates hordes of ~1e-6 near-ties,
    // so proving a 1e-9 gap enumerates thousands of equivalent nodes
    // (seconds per solve at depth 3). Coarsen the gap to the grid scale
    // and cap the tree; a node-capped run still carries its best integral
    // incumbent, which is an anytime near-optimal plan — exactly what a
    // periodic control loop wants.
    options.absolute_gap = std::max(options.absolute_gap, 2e-3);
    options.max_nodes = std::min(options.max_nodes, 1500);
  }
  // A kLimit termination with values is a usable incumbent (optimality
  // just was not proven within the node budget).
  const auto usable = [](const milp::MilpResult& r) {
    return r.solution.optimal() ||
           (r.solution.status == milp::SolveStatus::kLimit &&
            !r.solution.values.empty());
  };
  milp::Problem problem = build_problem(in, formulation);
  milp::MilpResult res = milp::solve_milp(problem, options);
  int nodes = res.nodes_explored;
  bool deep_capped = in.boundary_count() > 1 &&
                     res.nodes_explored >= options.max_nodes;
  if (!usable(res) && !deep_capped) {
    // Transient queue backlog can make Eq. 1 unsatisfiable; retry as pure
    // capacity planning (queues drain via the drop policy).
    problem = build_problem(relax_queue_estimates(in), formulation);
    res = milp::solve_milp(problem, options);
    nodes += res.nodes_explored;
    // The retry can itself blow the deep-chain node budget; route that to
    // the oracle below, not the overload fallback.
    deep_capped = in.boundary_count() > 1 &&
                  res.nodes_explored >= options.max_nodes;
  }

  const std::size_t n = in.stage_count();
  AllocationDecision out;
  out.resize_stages(n);
  if (usable(res)) {
    const auto& v = res.solution.values;
    std::size_t idx = 0;
    // Decode per the layout in build_problem.
    for (std::size_t s = 0; s < n; ++s) {
      const auto& bs = in.stages[s].perf.batch_sizes();
      for (std::size_t i = 0; i < bs.size(); ++i) {
        const double y = v[idx++];
        const double x = v[idx++];
        if (y > 0.5) {
          out.batches[s] = bs[i];
          out.workers[s] = static_cast<int>(std::lround(x));
        }
      }
    }
    if (formulation == Formulation::kThresholdGrid) {
      const auto& grid = in.boundary_grids[0];
      for (std::size_t k = 0; k < grid.size(); ++k) {
        if (v[idx++] > 0.5) {
          out.thresholds[0] = grid[k].threshold;
          out.deferral_fractions[0] = grid[k].fraction;
        }
      }
    } else {
      double prev = 1.0;
      for (std::size_t b = 0; b < in.boundary_count(); ++b) {
        const double achieved_phi = v[idx++];
        const auto& grid = in.boundary_grids[b];
        // Conditional deferral at this boundary; if (almost) nothing
        // reaches it, any threshold serves — take the most permissive.
        const double conditional =
            prev > 1e-9 ? achieved_phi / prev : grid.front().fraction;
        // Highest grid threshold whose deferral fits in the fraction.
        out.thresholds[b] = grid.front().threshold;
        out.deferral_fractions[b] = grid.front().fraction;
        for (const auto& g : grid) {
          if (g.fraction <= conditional + 1e-9) {
            out.thresholds[b] = g.threshold;
            out.deferral_fractions[b] = g.fraction;
          }
        }
        prev = achieved_phi;
      }
    }
    out.feasible = true;
  } else if (deep_capped) {
    // The deep-chain tree blew its node budget without an incumbent; hand
    // the instance to the exhaustive oracle rather than serving the
    // overload fallback for a feasible instance. Note the oracle optimizes
    // max sum(t_b) — a related but not identical criterion to this MILP's
    // max sum(phi_b) (see the header), so a budget-tripped tick may pick a
    // different, still-feasible threshold tuple.
    ExhaustiveAllocator oracle;
    out = oracle.allocate(in);
  } else {
    out = overload_fallback(in);
  }
  out.solver_nodes = nodes;
  out.solve_time_ms = std::chrono::duration<double, std::milli>(
                          // ds-lint: allow(wall-clock): telemetry end-stamp
                          std::chrono::steady_clock::now() - start)
                          .count();
  return out;
}

}  // namespace diffserve::control
