// Resource allocator interface (§3.3), generalized to N-stage chains.
//
// Every control period the controller snapshots runtime state into an
// AllocationInput and asks an Allocator for the configuration — per-stage
// worker counts and batch sizes plus one confidence threshold per cascade
// boundary (the paper's x1, x2, b1, b2, t is the two-stage instance).
// Implementations: the MILP allocator (the paper's approach), an
// exhaustive oracle (used for cross-checking and as a fallback), the §4.5
// ablation variants, and the baseline systems' allocation policies
// (src/baselines).
#pragma once

#include <string>
#include <vector>

#include "control/perf_model.hpp"
#include "discriminator/deferral_profile.hpp"
#include "util/check.hpp"

namespace diffserve::control {

/// Live observations and performance model of one chain stage.
struct StageObs {
  double queue_length = 0.0;
  double arrival_rate = 0.0;
  /// Utilization headroom: capacity constraints use x * T(b) * target
  /// rather than raw capacity, because a stage planned at rho -> 1 has
  /// unbounded queueing delay. Deeper stages get more headroom since a
  /// deferred query has already spent part of its budget.
  double utilization_target = 0.85;
  StagePerfModel perf;

  /// The single source of the headroom policy: the entry stage runs
  /// hotter (0.90), deeper stages keep more slack (0.85).
  static double default_utilization_target(std::size_t stage_index) {
    return stage_index == 0 ? 0.90 : 0.85;
  }
};

struct AllocationInput {
  /// EWMA-estimated demand D (QPS), before over-provisioning.
  double demand_qps = 0.0;
  /// Over-provisioning factor lambda (1.05 by default, §3.3).
  double over_provision = 1.05;
  double slo_seconds = 5.0;
  int total_workers = 1;

  /// Recent SLO violation ratio (consumed by AIMD batching).
  double recent_violation_ratio = 0.0;

  /// Chain stages, lightest first. Defaults to the classic two-stage
  /// cascade shape (stage 0 at 0.90 utilization, stage 1 at 0.85).
  std::vector<StageObs> stages;
  /// Per-boundary threshold grids: discretized confidence thresholds with
  /// their deferral fractions f_b(t), ascending in threshold. Size =
  /// stages.size() - 1.
  std::vector<std::vector<discriminator::DeferralProfile::GridPoint>>
      boundary_grids;

  AllocationInput() : stages(2), boundary_grids(1) {
    for (std::size_t s = 0; s < stages.size(); ++s)
      stages[s].utilization_target = StageObs::default_utilization_target(s);
  }

  std::size_t stage_count() const { return stages.size(); }
  std::size_t boundary_count() const { return boundary_grids.size(); }

  /// Demand after over-provisioning.
  double provisioned_demand() const { return demand_qps * over_provision; }
};

struct AllocationDecision {
  /// False when even the most permissive configuration cannot satisfy the
  /// constraints; the decision then holds the best-effort fallback.
  bool feasible = false;
  /// Per-stage worker counts and batch sizes (lightest first).
  std::vector<int> workers{0, 0};
  std::vector<int> batches{1, 1};
  /// Per-boundary confidence thresholds and the *conditional* deferral
  /// fraction f_b(t_b) each was sized for (fraction of the queries reaching
  /// stage b that defer onward).
  std::vector<double> thresholds{0.0};
  std::vector<double> deferral_fractions{0.0};
  /// Query-agnostic baselines (Clipper, Proteus) bypass the cascade: each
  /// query goes directly to one model, the last stage with probability
  /// p_heavy.
  bool direct_mode = false;
  double p_heavy = 0.0;
  double solve_time_ms = 0.0;
  /// Branch-and-bound nodes the MILP explored for this decision, its
  /// queue-relaxed retry included; 0 from allocators that solve no MILP.
  int solver_nodes = 0;

  std::size_t stage_count() const { return workers.size(); }
  /// Reshape for an n-stage chain (zeroed workers, unit batches).
  void resize_stages(std::size_t n) {
    DS_REQUIRE(n >= 1, "decision needs at least one stage");
    workers.assign(n, 0);
    batches.assign(n, 1);
    thresholds.assign(n - 1, 0.0);
    deferral_fractions.assign(n - 1, 0.0);
  }
};

class Allocator {
 public:
  virtual ~Allocator() = default;
  virtual AllocationDecision allocate(const AllocationInput& input) = 0;
  virtual std::string name() const = 0;
};

/// Non-owning adapter: controllers own their allocator, while the
/// threaded and cluster runners borrow one from their caller.
class BorrowedAllocator final : public Allocator {
 public:
  explicit BorrowedAllocator(Allocator& inner) : inner_(inner) {}
  AllocationDecision allocate(const AllocationInput& input) override {
    return inner_.allocate(input);
  }
  std::string name() const override { return inner_.name(); }

 private:
  Allocator& inner_;
};

/// Shared constraint check used by the exhaustive allocator and tests:
/// does (workers, batches, entry_fractions) satisfy the generalized
/// Eq. 1-4 for this input? `entry_fractions[s]` is the fraction of total
/// demand entering stage s (entry_fractions[0] == 1).
bool satisfies_constraints(const AllocationInput& in,
                           const std::vector<int>& workers,
                           const std::vector<int>& batches,
                           const std::vector<double>& entry_fractions);

/// End-to-end latency estimate: sum over stages of e_s + q_s for the
/// latency constraint (Eq. 1).
double estimated_latency(const AllocationInput& in,
                         const std::vector<int>& batches);

}  // namespace diffserve::control
