#include "linalg/gaussian.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "util/check.hpp"

namespace diffserve::linalg {

GaussianStats fit_gaussian(const std::vector<std::vector<double>>& samples) {
  DS_REQUIRE(samples.size() >= 2, "need at least two samples to fit");
  GaussianAccumulator acc(samples.front().size());
  for (const auto& s : samples) acc.add(s);
  return acc.stats();
}

double frechet_distance_sq(const GaussianStats& a, const GaussianStats& b) {
  DS_REQUIRE(a.dim() == b.dim(), "dimension mismatch in frechet distance");
  return frechet_distance_sq(a, b, sqrtm_psd(b.covariance));
}

double frechet_distance_sq(const GaussianStats& a, const GaussianStats& b,
                           const Matrix& b_root) {
  DS_REQUIRE(a.dim() == b.dim(), "dimension mismatch in frechet distance");
  DS_REQUIRE(b_root.rows() == b.dim() && b_root.cols() == b.dim(),
             "covariance root has the wrong shape");
  const std::size_t n = a.dim();

  double mean_term = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a.mean[i] - b.mean[i];
    mean_term += d * d;
  }

  // tr((Sb^{1/2} Sa Sb^{1/2})^{1/2}) is the sum of the square roots of the
  // eigenvalues of the symmetric PSD product, so no second root is built.
  const Matrix inner = b_root * a.covariance * b_root;
  // Symmetrize to wash out roundoff before the eigenvalue solve.
  const Matrix inner_sym = (inner + inner.transpose()) * 0.5;
  double cross_trace = 0.0;
  for (double lambda : eigenvalues_symmetric(inner_sym))
    cross_trace += std::sqrt(std::max(0.0, lambda));

  const double cov_term =
      a.covariance.trace() + b.covariance.trace() - 2.0 * cross_trace;
  // The exact value is non-negative; tiny negatives are numerical noise.
  return mean_term + std::max(0.0, cov_term);
}

GaussianAccumulator::GaussianAccumulator(std::size_t dim)
    : sum_(dim, 0.0), sum_outer_(dim, dim) {
  DS_REQUIRE(dim > 0, "zero-dimensional accumulator");
}

void GaussianAccumulator::add(const std::vector<double>& x) {
  DS_REQUIRE(x.size() == sum_.size(), "dimension mismatch in accumulator");
  ++count_;
  const std::size_t n = x.size();
  const double* xp = x.data();
  // Upper triangle only; stats() mirrors it (x_i x_j == x_j x_i exactly).
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = xp[i];
    sum_[i] += xi;
    double* outer = sum_outer_.row(i);
    for (std::size_t j = i; j < n; ++j) outer[j] += xi * xp[j];
  }
}

void GaussianAccumulator::merge(const GaussianAccumulator& other) {
  DS_REQUIRE(other.dim() == dim(), "dimension mismatch in merge");
  count_ += other.count_;
  for (std::size_t i = 0; i < sum_.size(); ++i) sum_[i] += other.sum_[i];
  sum_outer_ += other.sum_outer_;
}

void GaussianAccumulator::reset() {
  count_ = 0;
  std::fill(sum_.begin(), sum_.end(), 0.0);
  sum_outer_ = Matrix(sum_.size(), sum_.size());
}

GaussianStats GaussianAccumulator::stats() const {
  DS_REQUIRE(count_ >= 2, "need at least two samples for covariance");
  const std::size_t n = sum_.size();
  GaussianStats out;
  out.mean.resize(n);
  const double inv = 1.0 / static_cast<double>(count_);
  for (std::size_t i = 0; i < n; ++i) out.mean[i] = sum_[i] * inv;
  out.covariance = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* outer = sum_outer_.row(i);
    double* cov = out.covariance.row(i);
    for (std::size_t j = i; j < n; ++j) {
      const double v = outer[j] * inv - out.mean[i] * out.mean[j];
      cov[j] = v;
      out.covariance(j, i) = v;
    }
  }
  return out;
}

}  // namespace diffserve::linalg
