// §4.5 "Overhead of MILP Solver": google-benchmark of the allocation
// solvers across demand levels. The paper measures ~10 ms per solve with
// Gurobi; the continuous-deferral formulation of our branch-and-bound
// solver must land in the same order of magnitude, and the exhaustive
// oracle far below it.
#include <benchmark/benchmark.h>

#include <cmath>

#include "control/exhaustive_allocator.hpp"
#include "control/milp_allocator.hpp"
#include "models/model_repository.hpp"

using namespace diffserve;

namespace {

control::AllocationInput cascade1_input(double demand) {
  control::AllocationInput in;
  in.demand_qps = demand;
  in.total_workers = 16;
  in.slo_seconds = 5.0;
  const auto repo = models::ModelRepository::with_paper_catalog();
  const auto disc = repo.model(models::catalog::kEfficientNet).latency;
  in.stages.front().perf = control::StagePerfModel(
      repo.model(models::catalog::kSdTurbo).latency, &disc);
  in.stages.back().perf = control::StagePerfModel(
      repo.model(models::catalog::kSdV15).latency, nullptr);
  for (int k = 0; k <= 50; ++k) {
    const double f = 0.65 * k / 50.0;
    in.boundary_grids[0].push_back({std::pow(f, 2.0 / 3.0), f});
  }
  return in;
}

void BM_MilpContinuousDeferral(benchmark::State& state) {
  control::MilpAllocator alloc(
      control::MilpAllocator::Formulation::kContinuousDeferral);
  const auto in = cascade1_input(static_cast<double>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(alloc.allocate(in));
}
BENCHMARK(BM_MilpContinuousDeferral)->Arg(4)->Arg(12)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_MilpThresholdGrid(benchmark::State& state) {
  control::MilpAllocator alloc(
      control::MilpAllocator::Formulation::kThresholdGrid);
  const auto in = cascade1_input(static_cast<double>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(alloc.allocate(in));
}
BENCHMARK(BM_MilpThresholdGrid)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveOracle(benchmark::State& state) {
  control::ExhaustiveAllocator alloc;
  const auto in = cascade1_input(static_cast<double>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(alloc.allocate(in));
}
BENCHMARK(BM_ExhaustiveOracle)->Arg(4)->Arg(12)->Arg(24)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
