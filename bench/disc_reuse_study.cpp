// §5 "Reuse Opportunities" study: what happens to FID when the heavyweight
// model warm-starts from the lightweight model's intermediate output
// instead of fresh noise. The paper reports SD-Turbo reuse is FID-neutral
// while SDXS reuse degrades FID (18.55 -> 19.75 on MS-COCO) because the
// models are less compatible. We model reuse as the heavy output
// inheriting a fraction of the light model's artifact displacement —
// smaller for the architecturally-compatible SD-Turbo, larger for SDXS.
#include "bench_common.hpp"
#include "core/environment.hpp"
#include "linalg/gaussian.hpp"
#include "util/rng.hpp"

using namespace diffserve;

namespace {

double fid_with_reuse(const core::CascadeEnvironment& env,
                      double inheritance) {
  const auto& w = env.workload();
  util::Rng rng(1234);
  const int heavy_tier = env.stage_tier(env.stage_count() - 1);
  linalg::GaussianAccumulator acc(w.config().feature_dim);
  for (quality::QueryId q = 0; q < w.size(); ++q) {
    const auto heavy = w.generated_feature(q, heavy_tier);
    const auto light = w.generated_feature(q, env.stage_tier(0));
    const auto real = w.real_feature(q);
    // Warm-starting from the light latent perturbs the heavy trajectory by
    // a fraction of the light run's deviation — in a direction that depends
    // unpredictably on where the light run ended relative to the heavy
    // model's basin (random sign per query). Incompatible pairs inherit
    // more, which widens the served distribution and worsens FID.
    const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    std::vector<double> out(heavy.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = heavy[i] + sign * inheritance * (light[i] - real[i]);
    acc.add(out);
  }
  return env.scorer().fid(acc.stats());
}

void study(const char* label, const std::string& cascade,
           double inheritance) {
  core::EnvironmentConfig ec;
  ec.cascade = cascade;
  ec.workload_queries = 3000;
  core::CascadeEnvironment env(ec);
  const double baseline =
      env.scorer().fid_single_tier(env.stage_tier(env.stage_count() - 1));
  const double reused = fid_with_reuse(env, inheritance);
  std::printf("%-28s fresh-start FID %-8.2f reuse FID %-8.2f (%+.2f)\n",
              label, baseline, reused, reused - baseline);
}

}  // namespace

int main() {
  bench::banner("§5 study", "reusing light-model intermediates in the heavy pass");
  // SD-Turbo shares SDv1.5's backbone: high compatibility, tiny carryover.
  study("SD-Turbo -> SDv1.5 reuse", models::catalog::kCascade1, 0.03);
  // SDXS has a different architecture: noticeable artifact carryover.
  study("SDXS -> SDv1.5 reuse", models::catalog::kCascade2, 0.16);
  std::printf(
      "shape target: SD-Turbo reuse ~FID-neutral; SDXS reuse degrades FID "
      "(paper: 18.55 -> 19.75)\n");
  return 0;
}
