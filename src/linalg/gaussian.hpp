// Gaussian statistics and the Fréchet distance between Gaussians — the
// mathematical core of the FID metric.
//
// FID between two feature sets is the Fréchet distance between Gaussians
// fitted to them:
//   d^2 = ||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})
// We use the symmetric-product form: tr((S2^{1/2} S1 S2^{1/2})^{1/2}) is the
// sum of the square roots of that symmetric PSD product's eigenvalues, so
// one root (of S2, reusable across calls) and one eigenvalue solve suffice.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace diffserve::linalg {

/// Mean vector and covariance matrix fitted to a sample of feature vectors.
struct GaussianStats {
  std::vector<double> mean;
  Matrix covariance;

  std::size_t dim() const { return mean.size(); }
};

/// Fit mean and (biased, 1/N) covariance to a set of feature vectors.
/// Requires at least two samples and consistent dimensionality.
GaussianStats fit_gaussian(const std::vector<std::vector<double>>& samples);

/// Squared Fréchet distance between two Gaussians.
double frechet_distance_sq(const GaussianStats& a, const GaussianStats& b);
/// The same with `b_root` = sqrtm_psd(b.covariance) supplied, so a caller
/// scoring many sets against one fixed `b` roots it once: each call then
/// costs one eigenvalue solve of b_root * a.covariance * b_root.
double frechet_distance_sq(const GaussianStats& a, const GaussianStats& b,
                           const Matrix& b_root);

/// Incremental accumulator for Gaussian statistics, used by the serving
/// sink to maintain windowed FID without storing all features. Only the
/// upper triangle of sum(x x^T) is accumulated; stats() mirrors it.
class GaussianAccumulator {
 public:
  explicit GaussianAccumulator(std::size_t dim);

  void add(const std::vector<double>& x);
  void merge(const GaussianAccumulator& other);
  void reset();

  std::size_t count() const { return count_; }
  std::size_t dim() const { return sum_.size(); }

  /// Finalize into GaussianStats; requires count() >= 2.
  GaussianStats stats() const;

 private:
  std::size_t count_ = 0;
  std::vector<double> sum_;
  Matrix sum_outer_;  // sum of x x^T
};

}  // namespace diffserve::linalg
