// Tests for the control plane: performance models, the MILP and
// exhaustive allocators (cross-checked against each other over a demand
// sweep), ablation variants, and the controller loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "control/allocator.hpp"
#include "control/allocator_variants.hpp"
#include "control/controller.hpp"
#include "control/exhaustive_allocator.hpp"
#include "control/milp_allocator.hpp"
#include "models/model_repository.hpp"

namespace diffserve::control {
namespace {

// A synthetic but realistic allocation input modeled on Cascade 1:
// light ~ SD-Turbo + EfficientNet, heavy ~ SDv1.5.
AllocationInput cascade1_input(double demand, int workers = 16,
                               double slo = 5.0) {
  AllocationInput in;
  in.demand_qps = demand;
  in.total_workers = workers;
  in.slo_seconds = slo;
  const auto repo = models::ModelRepository::with_paper_catalog();
  const auto disc = repo.model(models::catalog::kEfficientNet).latency;
  in.stages[0].perf = StagePerfModel(
      repo.model(models::catalog::kSdTurbo).latency, &disc);
  in.stages[1].perf =
      StagePerfModel(repo.model(models::catalog::kSdV15).latency, nullptr);
  // A smooth synthetic confidence CDF: thresholds t with f(t) = t^1.5,
  // capped at 0.65 like the controller's default grid.
  for (int k = 0; k <= 50; ++k) {
    const double f = 0.65 * k / 50.0;
    in.boundary_grids[0].push_back({std::pow(f, 1.0 / 1.5), f});
  }
  return in;
}

TEST(StagePerfModel, LatencyAndThroughput) {
  const auto repo = models::ModelRepository::with_paper_catalog();
  const auto disc = repo.model(models::catalog::kEfficientNet).latency;
  StagePerfModel light(repo.model(models::catalog::kSdTurbo).latency, &disc);
  EXPECT_NEAR(light.execution_latency(1), 0.11, 1e-9);  // 0.10 + 0.01
  EXPECT_NEAR(light.stage_latency(1), 1.5 * 0.11, 1e-9);
  EXPECT_GT(light.throughput(8), light.throughput(1));
}

TEST(LittlesLaw, BasicCases) {
  EXPECT_NEAR(littles_law_delay(10.0, 2.0), 5.0, 1e-12);
  EXPECT_EQ(littles_law_delay(10.0, 0.0), 0.0);  // idle: no estimate
  EXPECT_EQ(littles_law_delay(-1.0, 2.0), 0.0);  // clamped
}

TEST(Exhaustive, DecisionSatisfiesPaperConstraints) {
  ExhaustiveAllocator alloc;
  const auto in = cascade1_input(10.0);
  const auto d = alloc.allocate(in);
  ASSERT_TRUE(d.feasible);
  EXPECT_TRUE(satisfies_constraints(in, d.workers, d.batches,
                                    {1.0, d.deferral_fractions[0]}));
}

TEST(Exhaustive, LowDemandMaximizesThreshold) {
  ExhaustiveAllocator alloc;
  const auto in = cascade1_input(2.0);
  const auto d = alloc.allocate(in);
  ASSERT_TRUE(d.feasible);
  // With ample capacity the threshold should hit the top of the grid.
  EXPECT_NEAR(d.thresholds[0], in.boundary_grids[0].back().threshold, 1e-9);
}

TEST(Exhaustive, HighDemandLowersThreshold) {
  ExhaustiveAllocator alloc;
  const auto lo = alloc.allocate(cascade1_input(5.0));
  const auto hi = alloc.allocate(cascade1_input(25.0));
  ASSERT_TRUE(lo.feasible);
  ASSERT_TRUE(hi.feasible);
  EXPECT_LT(hi.thresholds[0], lo.thresholds[0]);
  EXPECT_LT(hi.deferral_fractions[0], lo.deferral_fractions[0]);
}

TEST(Exhaustive, OverloadFallsBackGracefully) {
  ExhaustiveAllocator alloc;
  const auto d = alloc.allocate(cascade1_input(500.0, /*workers=*/4));
  EXPECT_FALSE(d.feasible);
  EXPECT_LE(d.workers[0] + d.workers[1], 4);
  EXPECT_GE(d.workers[0], 1);
}

TEST(Exhaustive, OverloadFallbackBatchesFitTheSlo) {
  const auto in = cascade1_input(500.0, 4);
  const auto d = overload_fallback(in);
  EXPECT_LE(in.stages[1].perf.stage_latency(d.batches[1]) +
                in.stages[0].perf.stage_latency(d.batches[0]),
            in.slo_seconds + 1e-9);
}

class MilpMatchesExhaustive : public ::testing::TestWithParam<double> {};

TEST_P(MilpMatchesExhaustive, SameThresholdAcrossDemands) {
  const double demand = GetParam();
  const auto in = cascade1_input(demand);
  ExhaustiveAllocator oracle;
  MilpAllocator milp;  // continuous-deferral formulation
  const auto a = oracle.allocate(in);
  const auto b = milp.allocate(in);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    // Both maximize the threshold; they must agree on it (modulo grid
    // rounding of the continuous solution).
    EXPECT_NEAR(a.deferral_fractions[0], b.deferral_fractions[0], 0.015)
        << "demand " << demand;
    EXPECT_TRUE(satisfies_constraints(in, b.workers, b.batches,
                                      {1.0, b.deferral_fractions[0]}));
  }
}

INSTANTIATE_TEST_SUITE_P(DemandSweep, MilpMatchesExhaustive,
                         ::testing::Values(1.0, 3.0, 6.0, 9.0, 12.0, 15.0,
                                           18.0, 22.0, 26.0, 30.0));

TEST(Milp, GridFormulationMatchesContinuous) {
  const auto in = cascade1_input(12.0);
  MilpAllocator fast(MilpAllocator::Formulation::kContinuousDeferral);
  MilpAllocator grid(MilpAllocator::Formulation::kThresholdGrid);
  const auto a = fast.allocate(in);
  const auto b = grid.allocate(in);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_NEAR(a.deferral_fractions[0], b.deferral_fractions[0], 0.015);
}

TEST(Milp, BuildProblemHasPaperConstraints) {
  const auto in = cascade1_input(10.0);
  const auto p = MilpAllocator::build_problem(
      in, MilpAllocator::Formulation::kThresholdGrid);
  // 6 light batches*2 + 6 heavy*2 + 51 thresholds = 75 variables.
  EXPECT_EQ(p.num_variables(), 75u);
  EXPECT_TRUE(p.has_integer_variables());
}

TEST(Milp, QueueBacklogTriggersRelaxedResolve) {
  auto in = cascade1_input(10.0);
  // A transient backlog that makes Eq. 1 unsatisfiable as observed.
  in.stages[1].queue_length = 100.0;
  in.stages[1].arrival_rate = 5.0;  // q2 = 20 s >> SLO
  MilpAllocator milp;
  const auto d = milp.allocate(in);
  // Must still produce a capacity plan rather than the overload fallback.
  EXPECT_TRUE(d.feasible);
  EXPECT_GT(d.workers[1], 0);
}

TEST(StaticThreshold, PinsTheGrid) {
  const auto in = cascade1_input(6.0);
  const double target = in.boundary_grids[0][20].threshold;
  StaticThresholdAllocator alloc(std::make_unique<ExhaustiveAllocator>(),
                                 target);
  const auto d = alloc.allocate(in);
  EXPECT_NEAR(d.thresholds[0], target, 1e-9);
  // Even at low demand the threshold cannot rise above the pin.
  const auto d2 = alloc.allocate(cascade1_input(1.0));
  EXPECT_NEAR(d2.thresholds[0], target, 1e-9);
}

TEST(NoQueueModel, IgnoresRealQueueObservations) {
  auto in = cascade1_input(8.0);
  in.stages[1].queue_length = 1000.0;  // would dominate Little's law
  in.stages[1].arrival_rate = 1.0;
  NoQueueModelAllocator alloc(std::make_unique<ExhaustiveAllocator>());
  const auto d = alloc.allocate(in);
  // The heuristic replaces the backlog with 2x exec, so a feasible plan
  // still comes out.
  EXPECT_TRUE(d.feasible);
}

TEST(AimdBatching, IncreasesOnCalmDecreasesOnViolations) {
  AimdBatchAllocator alloc(std::make_unique<ExhaustiveAllocator>());
  auto in = cascade1_input(8.0);
  in.recent_violation_ratio = 0.0;
  alloc.allocate(in);
  const int after_calm = alloc.current_light_batch();
  EXPECT_GT(after_calm, 1);  // stepped up from 1
  in.recent_violation_ratio = 0.5;
  alloc.allocate(in);
  EXPECT_LT(alloc.current_light_batch(), after_calm);
}

TEST(AimdBatching, NeverStepsPastSloInfeasibleBatch) {
  AimdBatchAllocator alloc(std::make_unique<ExhaustiveAllocator>());
  auto in = cascade1_input(8.0);
  in.recent_violation_ratio = 0.0;
  for (int i = 0; i < 20; ++i) alloc.allocate(in);
  // Heavy batches above 2 blow the 5 s SLO (1.5 * e2(4) > 5 s).
  EXPECT_LE(in.stages[1].perf.stage_latency(alloc.current_heavy_batch()),
            in.slo_seconds);
}

TEST(AllocationInput, ProvisionedDemandAppliesLambda) {
  AllocationInput in;
  in.demand_qps = 10.0;
  in.over_provision = 1.05;
  EXPECT_NEAR(in.provisioned_demand(), 10.5, 1e-12);
}

TEST(Decision, SolveTimeIsMeasured) {
  ExhaustiveAllocator e;
  MilpAllocator m;
  const auto in = cascade1_input(10.0);
  EXPECT_GE(e.allocate(in).solve_time_ms, 0.0);
  EXPECT_GT(m.allocate(in).solve_time_ms, 0.0);
}

TEST(Milp, SolveTimeWithinControlBudget) {
  // §4.5 reports ~10 ms with Gurobi; the budget is deliberately loose — it
  // exists to catch a solver that regressed into seconds, not to benchmark.
  // ctest runs suites in parallel, so even the fastest of several solves
  // can be stalled by an oversubscribed CI machine. Sanitizer builds run
  // the solver several times slower — scale the budget rather than letting
  // a wall-clock assertion fail on instrumentation overhead.
  double budget_ms = 500.0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  budget_ms *= 8.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  budget_ms *= 8.0;
#endif
#endif
  MilpAllocator m;
  const auto in = cascade1_input(14.0);
  m.allocate(in);  // warm up
  // Best of several runs: a single sample is at the mercy of whatever else
  // the CI machine is doing (ctest runs suites in parallel); the *fastest*
  // solve reflects the solver's actual cost.
  double best_ms = 1e18;
  for (int i = 0; i < 5; ++i)
    best_ms = std::min(best_ms, m.allocate(in).solve_time_ms);
  EXPECT_LT(best_ms, budget_ms);
}

}  // namespace
}  // namespace diffserve::control
