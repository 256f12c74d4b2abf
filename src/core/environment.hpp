// CascadeEnvironment: the shared, expensive-to-build assets of one cascade
// deployment — the evaluation workload, the model repository, the FID
// scorer, one *trained* discriminator per cascade boundary, and each
// boundary's offline deferral profile. Build it once; run many experiments
// against it (every approach then sees byte-identical prompts, images, and
// discriminators). Works for any chain depth: a two-stage cascade gets the
// classic single discriminator, a depth-1 "chain" gets none.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "discriminator/deferral_profile.hpp"
#include "discriminator/discriminator.hpp"
#include "models/model_repository.hpp"
#include "quality/fid.hpp"
#include "quality/workload.hpp"

namespace diffserve::core {

struct EnvironmentConfig {
  std::string cascade = models::catalog::kCascade1;
  std::size_t workload_queries = 5000;
  quality::QualityConfig quality;
  discriminator::DiscriminatorConfig discriminator;
  std::size_t profile_queries = 1500;  ///< offline f(t) profiling set
};

class CascadeEnvironment {
 public:
  explicit CascadeEnvironment(EnvironmentConfig cfg = {});

  const EnvironmentConfig& config() const { return cfg_; }
  const models::ModelRepository& repository() const { return repo_; }
  const models::CascadeSpec& cascade() const { return cascade_; }
  const quality::Workload& workload() const { return *workload_; }
  const quality::FidScorer& scorer() const { return *scorer_; }

  std::size_t stage_count() const { return stage_tiers_.size(); }
  std::size_t boundary_count() const { return discs_.size(); }
  /// Discriminator trained for boundary b (stage b -> b+1). The default
  /// boundary stays because the repository benchmark harness calls disc().
  const discriminator::Discriminator& disc(std::size_t b = 0) const {
    return *discs_.at(b);
  }
  /// Per-boundary discriminator pointers, in chain order (engine input).
  std::vector<const discriminator::Discriminator*> discs() const;
  const discriminator::DeferralProfile& offline_profile(
      std::size_t b = 0) const {
    return *offline_profiles_.at(b);
  }
  /// Copies of every boundary's offline profile (controller input).
  std::vector<discriminator::DeferralProfile> offline_profiles() const;

  const std::vector<int>& stage_tiers() const { return stage_tiers_; }
  int stage_tier(std::size_t s) const { return stage_tiers_.at(s); }
  /// Last-stage tier; kept because the repository benchmark harness calls it.
  int heavy_tier() const { return stage_tiers_.back(); }
  double default_slo() const { return cascade_.slo_seconds; }

 private:
  EnvironmentConfig cfg_;
  models::ModelRepository repo_;
  models::CascadeSpec cascade_;
  std::unique_ptr<quality::Workload> workload_;
  std::unique_ptr<quality::FidScorer> scorer_;
  std::vector<std::unique_ptr<discriminator::Discriminator>> discs_;
  std::vector<std::unique_ptr<discriminator::DeferralProfile>>
      offline_profiles_;
  std::vector<int> stage_tiers_;
};

}  // namespace diffserve::core
