// Quickstart: stand up DiffServe on the paper's Cascade 1 (SD-Turbo ->
// SDv1.5), replay a bursty demand trace through the discrete-event
// simulator, and print the serving metrics plus a few controller
// decisions.
//
//   $ ./quickstart
//
// Everything is seeded: you will see the same numbers on every run.
#include <cstdio>

#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "util/log.hpp"

using namespace diffserve;

int main() {
  util::set_log_level(util::LogLevel::kInfo);

  // 1. Build the cascade environment: evaluation workload, trained
  //    discriminator, offline deferral profile f(t). This is the
  //    expensive, shareable part — reuse it across experiments.
  core::EnvironmentConfig env_cfg;
  env_cfg.cascade = models::catalog::kCascade1;
  env_cfg.workload_queries = 2000;
  core::CascadeEnvironment env(env_cfg);

  std::printf("cascade:        %s\n", env.cascade().name.c_str());
  const auto& light = env.cascade().chain.front();
  const auto& heavy = env.cascade().chain.back();
  std::printf("light model:    %s (%.2f s/image)\n", light.c_str(),
              env.repository().model(light).latency.execution_latency(1));
  std::printf("heavy model:    %s (%.2f s/image)\n", heavy.c_str(),
              env.repository().model(heavy).latency.execution_latency(1));
  std::printf("discriminator:  %s (%zu parameters, %.0f ms/image)\n",
              env.disc().name().c_str(), env.disc().parameter_count(),
              1000.0 * env.disc().inference_latency());
  std::printf("SLO:            %.1f s\n\n", env.default_slo());

  // 2. Run DiffServe against an Azure-Functions-like demand trace.
  core::RunConfig run;
  run.approach = core::Approach::kDiffServe;
  run.total_workers = 16;
  run.trace = trace::RateTrace::azure_like(4.0, 24.0, 240.0, /*seed=*/3);
  const auto result = run_experiment(env, run);

  std::printf("--- results (%s) ---\n", core::to_string(run.approach));
  std::printf("queries submitted:   %zu\n", result.submitted);
  std::printf("completed / dropped: %zu / %zu\n", result.completed,
              result.dropped);
  std::printf("response quality:    FID %.2f\n", result.overall_fid);
  std::printf("SLO violations:      %.1f%%\n",
              100.0 * result.violation_ratio);
  std::printf("mean / p99 latency:  %.2f s / %.2f s\n", result.mean_latency,
              result.p99_latency);
  std::printf("served by light:     %.1f%%\n",
              100.0 * result.light_served_fraction);
  std::printf("MILP solve time:     %.2f ms/decision\n\n",
              result.mean_solve_ms());

  std::printf("--- controller decisions (every 25 s) ---\n");
  std::printf("%-8s %-10s %-6s %-6s %-6s %-6s %-10s\n", "time", "demand",
              "x1", "x2", "b1", "b2", "threshold");
  for (std::size_t i = 0; i < result.control_history.size(); i += 5) {
    const auto& h = result.control_history[i];
    const auto& d = h.decision;
    std::printf("%-8.0f %-10.1f %-6d %-6d %-6d %-6d %-10.3f\n", h.time,
                h.demand_estimate, d.workers[0], d.workers[1], d.batches[0],
                d.batches[1], d.thresholds[0]);
  }

  // 3. Same trace with the approximate prompt-reuse cache in front of the
  //    cascade. Production prompt traffic is Zipf-skewed, so switch the
  //    prompt stream off round-robin first — hit ratios are an emergent
  //    property of the repetition in the trace. The CacheConfig knobs:
  //      capacity            bounded entry count (popularity-aware LRU)
  //      exact/near/far      distance tiers over prompt style vectors
  //        _distance           (exact serves the cached image as-is)
  //      near/far_step_      fraction of diffusion steps an approx hit
  //        fraction            still runs (seeded by the donor's result)
  //      hit_latency         exact-hit serving latency (lookup + decode)
  //      popularity_weight   seconds of recency one e-fold of hits buys
  //    The controller notices the absorbed traffic and provisions for the
  //    effective demand lambda * (1 - h_exact).
  core::RunConfig cached = run;
  cached.system.prompt_mix.kind = trace::PromptMixConfig::Kind::kZipf;
  cached.system.prompt_mix.zipf_exponent = 1.1;
  cached.system.prompt_mix.locality = 0.3;
  cached.system.cache.enabled = true;
  cached.system.cache.capacity = 256;
  const auto reuse = run_experiment(env, cached);

  std::printf("\n--- with the prompt-reuse cache (Zipf prompts) ---\n");
  std::printf("cache hit ratio:     %.1f%% (%.1f%% exact)\n",
              100.0 * reuse.cache.hit_ratio(),
              100.0 * reuse.cache.exact_hit_ratio());
  std::printf("response quality:    FID %.2f\n", reuse.overall_fid);
  std::printf("SLO violations:      %.1f%%\n",
              100.0 * reuse.violation_ratio);
  std::printf("mean latency:        %.2f s\n", reuse.mean_latency);
  return 0;
}
