#include "quality/fid.hpp"

#include "linalg/eigen.hpp"
#include "util/check.hpp"

namespace diffserve::quality {

FidScorer::FidScorer(const Workload& workload)
    : workload_(workload),
      reference_(workload.reference_stats()),
      reference_root_(linalg::sqrtm_psd(reference_.covariance)) {}

double FidScorer::fid(
    const std::vector<std::vector<double>>& served_features) const {
  DS_REQUIRE(served_features.size() >= 2,
             "need at least two served images for FID");
  return fid(linalg::fit_gaussian(served_features));
}

double FidScorer::fid(const linalg::GaussianStats& served) const {
  return linalg::frechet_distance_sq(served, reference_, reference_root_);
}

double FidScorer::fid_single_tier(int tier) const {
  std::vector<std::vector<double>> feats;
  feats.reserve(workload_.size());
  for (QueryId q = 0; q < workload_.size(); ++q)
    feats.push_back(workload_.generated_feature(q, tier));
  return fid(feats);
}

}  // namespace diffserve::quality
