// Microbenchmarks of the substrates on the serving critical path: event
// queue operations, discriminator inference (must be negligible next to
// diffusion execution, §3.2), FID evaluation, and feature generation.
#include <benchmark/benchmark.h>

#include "core/environment.hpp"
#include "linalg/gaussian.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

using namespace diffserve;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < state.range(0); ++i)
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    sim.run_all();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

const core::CascadeEnvironment& bench_env() {
  static const core::CascadeEnvironment env = [] {
    core::EnvironmentConfig cfg;
    cfg.workload_queries = 1000;
    cfg.discriminator.train_queries = 500;
    return core::CascadeEnvironment(cfg);
  }();
  return env;
}

void BM_DiscriminatorInference(benchmark::State& state) {
  const auto& env = bench_env();
  const auto feature = env.workload().generated_feature(0, env.stage_tier(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(env.disc().confidence(feature));
}
BENCHMARK(BM_DiscriminatorInference);

void BM_FeatureGeneration(benchmark::State& state) {
  const auto& env = bench_env();
  quality::QueryId q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.workload().generated_feature(q, env.stage_tier(0)));
    q = (q + 1) % static_cast<quality::QueryId>(env.workload().size());
  }
}
BENCHMARK(BM_FeatureGeneration);

void BM_FidEvaluation(benchmark::State& state) {
  const auto& env = bench_env();
  linalg::GaussianAccumulator acc(env.workload().config().feature_dim);
  const int heavy = env.stage_tier(env.stage_count() - 1);
  for (quality::QueryId q = 0; q < 500; ++q)
    acc.add(env.workload().generated_feature(q, heavy));
  const auto stats = acc.stats();
  for (auto _ : state)
    benchmark::DoNotOptimize(env.scorer().fid(stats));
  state.SetLabel("500 images, dim 16");
}
BENCHMARK(BM_FidEvaluation);

void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

}  // namespace

BENCHMARK_MAIN();
