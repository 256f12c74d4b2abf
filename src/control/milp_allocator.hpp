// MILP resource allocator — the paper's formulation (§3.3, Eq. 1-5),
// generalized to N-stage chains.
//
//   max sum_i phi_i                       (phi_i = cumulative deferral
//   s.t. sum_s e_s(b_s) + q_s <= L         fraction entering stage i+1)
//        x_0 T_0(b_0) >= lambda D
//        x_i T_i(b_i) >= lambda D phi_{i-1}      i = 1..N-1
//        phi_i <= fmax_i * phi_{i-1}             (grid range per boundary)
//        sum_i x_i <= S
//
// Linearization: batch choices become one-hot binaries y_{s,b}; the product
// x_s * T_s(b_s) becomes per-batch integer counts x_{s,b} <= S * y_{s,b}.
// Each boundary's deferral profile f_b(t) is monotone in t, so each
// t_b = f_b^{-1}(phi_b / phi_{b-1}) is recovered from its grid after the
// solve. For a two-stage chain (a single phi) maximizing phi is *exactly*
// the paper's max-t objective. For deeper chains, max sum(phi_b) — push as
// much demand as deep as capacity allows — is a deliberately chosen linear
// surrogate: it is monotone-aligned with raising thresholds but is not
// identical to the exhaustive oracle's max sum(t_b); on profiles with very
// different slopes the two criteria can pick different (equally feasible)
// threshold tuples. A small per-worker penalty breaks ties toward smaller
// deployments without affecting the threshold optimum.
//
// Falls back to the exhaustive allocator's overload plan when infeasible.
#pragma once

#include "control/allocator.hpp"
#include "milp/branch_and_bound.hpp"

namespace diffserve::control {

class MilpAllocator : public Allocator {
 public:
  /// Two equivalent formulations of the threshold choice:
  ///   * kContinuousDeferral (default) — the continuous phi variables
  ///     described above. Far fewer binaries -> millisecond solves in the
  ///     control loop; the only formulation defined for chains deeper than
  ///     two stages.
  ///   * kThresholdGrid — the paper's literal one-hot z_k grid over the
  ///     single boundary of a two-stage cascade. Same optimum (asserted in
  ///     tests); kept for fidelity and benchmarking. Deeper chains would
  ///     need products of one-hot selections, so chains with more than one
  ///     boundary automatically use the continuous formulation.
  enum class Formulation { kContinuousDeferral, kThresholdGrid };

  explicit MilpAllocator(Formulation formulation = Formulation::kContinuousDeferral,
                         milp::MilpOptions options = {});

  AllocationDecision allocate(const AllocationInput& input) override;
  std::string name() const override { return "milp"; }

  /// Build the MILP for an input (exposed for tests and the overhead
  /// bench). Variable layout documented in the implementation.
  static milp::Problem build_problem(const AllocationInput& input,
                                     Formulation formulation,
                                     double worker_penalty = 1e-6);

 private:
  Formulation formulation_;
  milp::MilpOptions options_;
};

}  // namespace diffserve::control
