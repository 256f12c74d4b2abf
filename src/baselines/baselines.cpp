#include "baselines/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "control/exhaustive_allocator.hpp"
#include "util/check.hpp"

namespace diffserve::baselines {

using control::AllocationDecision;
using control::AllocationInput;

ClipperAllocator::ClipperAllocator(Variant variant) : variant_(variant) {}

std::string ClipperAllocator::name() const {
  return variant_ == Variant::kLight ? "clipper-light" : "clipper-heavy";
}

AllocationDecision ClipperAllocator::allocate(const AllocationInput& in) {
  const bool heavy = variant_ == Variant::kHeavy;
  const auto& stage = (heavy ? in.stages.back() : in.stages.front()).perf;
  const auto& sizes = stage.batch_sizes();

  // Clipper's AIMD batching: halve on SLO pressure, step up otherwise,
  // subject to the batch execution itself fitting in the SLO.
  if (in.recent_violation_ratio > violation_trigger_) {
    const int target = std::max(batch_ / 2, sizes.front());
    int best = sizes.front();
    for (const int s : sizes)
      if (s <= target) best = s;
    batch_ = best;
  } else {
    for (const int s : sizes)
      if (s > batch_) {
        // Additive increase only while execution latency stays in budget.
        if (stage.stage_latency(s) <= in.slo_seconds) batch_ = s;
        break;
      }
  }

  AllocationDecision d;
  d.resize_stages(in.stage_count());
  d.feasible = true;
  d.direct_mode = true;
  d.p_heavy = heavy ? 1.0 : 0.0;
  if (heavy) {
    d.workers.back() = in.total_workers;
    d.batches.back() = batch_;
  } else {
    d.workers.front() = in.total_workers;
    d.batches.front() = batch_;
  }
  return d;
}

AllocationDecision ProteusAllocator::allocate(const AllocationInput& in) {
  const double d = in.provisioned_demand();

  // Enumerate first/last pool splits and batch sizes; maximize the fraction
  // of demand served by the heaviest (highest-accuracy) model subject to
  // total capacity covering demand and per-path latency fitting the SLO.
  // This mirrors Proteus's accuracy-scaling objective without query
  // awareness. (Middle stages of deeper chains stay unused: Proteus routes
  // each query to exactly one of its two model pools.)
  AllocationDecision best;
  best.resize_stages(in.stage_count());
  double best_heavy_fraction = -1.0;
  int best_b1 = 0, best_b2 = 0;
  const auto& first = in.stages.front();
  const auto& last = in.stages.back();
  for (int x2 = 0; x2 <= in.total_workers; ++x2) {
    const int x1 = in.total_workers - x2;
    for (const int b1 : first.perf.batch_sizes()) {
      if (x1 > 0 &&
          first.perf.stage_latency(b1) +
                  control::littles_law_delay(first.queue_length,
                                             first.arrival_rate) >
              in.slo_seconds)
        continue;
      for (const int b2 : last.perf.batch_sizes()) {
        if (x2 > 0 &&
            last.perf.stage_latency(b2) +
                    control::littles_law_delay(last.queue_length,
                                               last.arrival_rate) >
                in.slo_seconds)
          continue;
        const double cap1 = x1 * first.perf.throughput(b1);
        const double cap2 = x2 * last.perf.throughput(b2);
        if (cap1 + cap2 < d - 1e-9) continue;
        const double heavy_fraction =
            d <= 1e-12 ? (x2 > 0 ? 1.0 : 0.0) : std::min(1.0, cap2 / d);
        const bool better =
            heavy_fraction > best_heavy_fraction + 1e-12 ||
            (std::fabs(heavy_fraction - best_heavy_fraction) <= 1e-12 &&
             b1 + b2 < best_b1 + best_b2);
        if (better) {
          best_heavy_fraction = heavy_fraction;
          best.feasible = true;
          best.workers.front() = x1;
          best.workers.back() = x2;
          best.batches.front() = b1;
          best.batches.back() = b2;
          best_b1 = b1;
          best_b2 = b2;
          best.direct_mode = true;
          best.p_heavy = heavy_fraction;
        }
      }
    }
  }

  if (best_heavy_fraction < 0.0) {
    // Overloaded even all-light: serve everything light at the
    // throughput-maximal batch and shed load at the workers.
    best.resize_stages(in.stage_count());
    best.feasible = false;
    best.direct_mode = true;
    best.p_heavy = 0.0;
    best.workers.front() = in.total_workers;
    double best_t = 0.0;
    best.batches.front() = first.perf.batch_sizes().front();
    for (const int b : first.perf.batch_sizes())
      if (first.perf.throughput(b) > best_t) {
        best_t = first.perf.throughput(b);
        best.batches.front() = b;
      }
  }
  return best;
}

DiffServeStaticAllocator::DiffServeStaticAllocator(double peak_demand_qps,
                                                   double fixed_threshold)
    : peak_demand_qps_(peak_demand_qps), fixed_threshold_(fixed_threshold) {
  DS_REQUIRE(peak_demand_qps > 0.0, "peak demand must be positive");
  DS_REQUIRE(fixed_threshold >= 0.0 && fixed_threshold <= 1.0,
             "threshold outside [0,1]");
}

AllocationDecision DiffServeStaticAllocator::allocate(
    const AllocationInput& in) {
  if (!solved_) {
    // Provision once for peak demand at the fixed threshold; ignore live
    // queue state (a static system cannot react to it anyway).
    AllocationInput peak = in;
    peak.demand_qps = peak_demand_qps_;
    for (auto& s : peak.stages) s.queue_length = 0.0;
    // Pin every boundary's grid to the fixed threshold.
    for (auto& grid : peak.boundary_grids) {
      DS_REQUIRE(!grid.empty(), "empty threshold grid");
      auto nearest = grid.front();
      for (const auto& g : grid)
        if (std::fabs(g.threshold - fixed_threshold_) <
            std::fabs(nearest.threshold - fixed_threshold_))
          nearest = g;
      grid = {nearest};
    }
    control::ExhaustiveAllocator solver;
    plan_ = solver.allocate(peak);
    // Note: if even the pinned threshold is infeasible at peak, the solver
    // returns its overload fallback with a *lower* deferral plan; the
    // served threshold must match what the plan was sized for.
    solved_ = true;
  }
  return plan_;
}

}  // namespace diffserve::baselines
