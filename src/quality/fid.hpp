// FID scoring of served image sets.
//
// "To compute the FID score for a given system configuration, we process
// all text prompts in a dataset through the system and evaluate the quality
// of the generated images" (§4.1). The scorer holds the real-image
// reference statistics and computes the exact Gaussian Fréchet distance to
// whatever feature set the system served. The reference covariance's
// square root is taken once, at construction: every score after that is
// one eigenvalue solve (linalg::frechet_distance_sq's cached-root form),
// which keeps the per-window FIDs of the Figure 5/8 timelines
// (engine::MetricsSink::timeline) cheap.
#pragma once

#include <vector>

#include "linalg/gaussian.hpp"
#include "quality/workload.hpp"

namespace diffserve::quality {

class FidScorer {
 public:
  explicit FidScorer(const Workload& workload);

  /// FID of an explicit feature set against the reference distribution.
  double fid(const std::vector<std::vector<double>>& served_features) const;
  /// FID from pre-fitted Gaussian statistics.
  double fid(const linalg::GaussianStats& served) const;

  /// Convenience: FID if *every* query were served by `tier`.
  double fid_single_tier(int tier) const;

  const linalg::GaussianStats& reference() const { return reference_; }
  std::size_t feature_dim() const { return reference_.dim(); }

 private:
  const Workload& workload_;
  linalg::GaussianStats reference_;
  linalg::Matrix reference_root_;  ///< sqrtm_psd(reference_.covariance)
};

}  // namespace diffserve::quality
