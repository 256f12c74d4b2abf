// Tests for linalg: matrix algebra, eigendecomposition, PSD square roots,
// and the Fréchet (FID) distance, including closed-form cross-checks and
// parameterized property sweeps on random matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/gaussian.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace diffserve::linalg {
namespace {

Matrix random_spd(std::size_t n, util::Rng& rng, double jitter = 0.5) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix spd = a * a.transpose();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += jitter;
  return spd;
}

TEST(Matrix, IdentityAndDiag) {
  const auto eye = Matrix::identity(3);
  EXPECT_EQ(eye(0, 0), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
  const auto d = Matrix::diag({1.0, 2.0});
  EXPECT_EQ(d(1, 1), 2.0);
  EXPECT_EQ(d.trace(), 3.0);
}

TEST(Matrix, MultiplicationMatchesHandComputation) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = {{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(Matrix::max_abs_diff(a.transpose().transpose(), a), 0.0);
}

TEST(Matrix, ApplyMatchesProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const auto y = a.apply({1.0, 1.0});
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[1], 7.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a.trace(), std::invalid_argument);
  EXPECT_THROW(a.apply({1.0}), std::invalid_argument);
}

TEST(Matrix, CholeskyReconstructs) {
  util::Rng rng(3);
  const Matrix a = random_spd(5, rng);
  const Matrix l = a.cholesky();
  EXPECT_LT(Matrix::max_abs_diff(l * l.transpose(), a), 1e-9);
  // Lower triangular.
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j) EXPECT_EQ(l(i, j), 0.0);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  const Matrix notpd = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(notpd.cholesky(), std::invalid_argument);
}

TEST(Eigen, DiagonalMatrixHasItsEntries) {
  const auto d = Matrix::diag({3.0, 1.0, 2.0});
  const auto eig = eigen_symmetric(d);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a = {{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = eigen_symmetric(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

TEST(Eigen, RejectsNonSymmetric) {
  const Matrix a = {{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(eigen_symmetric(a), std::invalid_argument);
}

class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, ReconstructionAndOrthogonality) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 7;
  const Matrix a = random_spd(n, rng);
  const auto eig = eigen_symmetric(a);
  // V diag(lambda) V^T == A
  const Matrix recon =
      eig.vectors * Matrix::diag(eig.values) * eig.vectors.transpose();
  EXPECT_LT(Matrix::max_abs_diff(recon, a), 1e-8);
  // V^T V == I
  const Matrix vtv = eig.vectors.transpose() * eig.vectors;
  EXPECT_LT(Matrix::max_abs_diff(vtv, Matrix::identity(n)), 1e-9);
  // ascending order
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(eig.values[i - 1], eig.values[i] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomSpd, EigenProperty,
                         ::testing::Range(0, 12));

TEST(Sqrtm, SquaresBackToInput) {
  util::Rng rng(5);
  const Matrix a = random_spd(6, rng);
  const Matrix r = sqrtm_psd(a);
  EXPECT_LT(Matrix::max_abs_diff(r * r, a), 1e-8);
  EXPECT_TRUE(r.is_symmetric(1e-9));
}

TEST(Sqrtm, IdentityRoot) {
  const Matrix r = sqrtm_psd(Matrix::identity(4));
  EXPECT_LT(Matrix::max_abs_diff(r, Matrix::identity(4)), 1e-10);
}

TEST(Sqrtm, ClampsTinyNegativeEigenvalues) {
  Matrix nearly_psd = Matrix::diag({1.0, -1e-12});
  EXPECT_NO_THROW(sqrtm_psd(nearly_psd));
}

TEST(Sqrtm, RejectsClearlyNegative) {
  EXPECT_THROW(sqrtm_psd(Matrix::diag({1.0, -0.5})),
               std::invalid_argument);
}

TEST(Gaussian, FitRecoversMeanAndCovariance) {
  util::Rng rng(9);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 60000; ++i)
    samples.push_back({rng.normal(1.0, 2.0), rng.normal(-1.0, 0.5)});
  const auto g = fit_gaussian(samples);
  EXPECT_NEAR(g.mean[0], 1.0, 0.05);
  EXPECT_NEAR(g.mean[1], -1.0, 0.05);
  EXPECT_NEAR(g.covariance(0, 0), 4.0, 0.1);
  EXPECT_NEAR(g.covariance(1, 1), 0.25, 0.02);
  EXPECT_NEAR(g.covariance(0, 1), 0.0, 0.05);
}

TEST(Gaussian, FrechetOfIdenticalIsZero) {
  GaussianStats g;
  g.mean = {1.0, 2.0};
  g.covariance = {{2.0, 0.3}, {0.3, 1.0}};
  EXPECT_NEAR(frechet_distance_sq(g, g), 0.0, 1e-9);
}

TEST(Gaussian, FrechetMeanOnlyShiftIsSquaredDistance) {
  GaussianStats a, b;
  a.mean = {0.0, 0.0};
  b.mean = {3.0, 4.0};
  a.covariance = Matrix::identity(2);
  b.covariance = Matrix::identity(2);
  EXPECT_NEAR(frechet_distance_sq(a, b), 25.0, 1e-9);
}

TEST(Gaussian, FrechetIsotropicClosedForm) {
  // For N(0, s1^2 I) vs N(0, s2^2 I) in dim d: d * (s1 - s2)^2.
  GaussianStats a, b;
  a.mean = {0.0, 0.0, 0.0};
  b.mean = {0.0, 0.0, 0.0};
  a.covariance = Matrix::identity(3) * 4.0;   // s1 = 2
  b.covariance = Matrix::identity(3) * 1.0;   // s2 = 1
  EXPECT_NEAR(frechet_distance_sq(a, b), 3.0 * 1.0, 1e-8);
}

TEST(Gaussian, FrechetSymmetry) {
  util::Rng rng(21);
  GaussianStats a, b;
  a.mean = {0.5, -0.5, 1.0};
  b.mean = {0.0, 0.2, 0.9};
  a.covariance = random_spd(3, rng);
  b.covariance = random_spd(3, rng);
  EXPECT_NEAR(frechet_distance_sq(a, b), frechet_distance_sq(b, a), 1e-8);
}

class FrechetProperty : public ::testing::TestWithParam<int> {};

TEST_P(FrechetProperty, NonNegativeAndZeroOnSelf) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  GaussianStats a, b;
  const std::size_t n = 4;
  a.mean.resize(n);
  b.mean.resize(n);
  for (auto& v : a.mean) v = rng.normal();
  for (auto& v : b.mean) v = rng.normal();
  a.covariance = random_spd(n, rng);
  b.covariance = random_spd(n, rng);
  EXPECT_GE(frechet_distance_sq(a, b), 0.0);
  EXPECT_NEAR(frechet_distance_sq(a, a), 0.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomGaussians, FrechetProperty,
                         ::testing::Range(0, 10));

TEST(Accumulator, MatchesBatchFit) {
  util::Rng rng(33);
  std::vector<std::vector<double>> samples;
  GaussianAccumulator acc(3);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {rng.normal(), rng.normal(1.0, 2.0),
                             rng.uniform()};
    samples.push_back(x);
    acc.add(x);
  }
  const auto batch = fit_gaussian(samples);
  const auto inc = acc.stats();
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(batch.mean[i], inc.mean[i], 1e-9);
  EXPECT_LT(Matrix::max_abs_diff(batch.covariance, inc.covariance), 1e-8);
}

TEST(Accumulator, MergeEqualsCombined) {
  util::Rng rng(35);
  GaussianAccumulator a(2), b(2), all(2);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {rng.normal(), rng.normal()};
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  const auto merged = a.stats();
  const auto direct = all.stats();
  EXPECT_NEAR(merged.mean[0], direct.mean[0], 1e-9);
  EXPECT_LT(Matrix::max_abs_diff(merged.covariance, direct.covariance),
            1e-9);
}

// --- parity of the kernels against naive oracles --------------------------

/// GaussianAccumulator written the plain way: the full outer product of
/// every sample through the checked accessor, then symmetrized stats.
struct NaiveAccumulator {
  explicit NaiveAccumulator(std::size_t n) : sum(n, 0.0), outer(n, n) {}
  void add(const std::vector<double>& x) {
    ++count;
    for (std::size_t i = 0; i < x.size(); ++i) {
      sum[i] += x[i];
      for (std::size_t j = 0; j < x.size(); ++j) outer(i, j) += x[i] * x[j];
    }
  }
  void merge(const NaiveAccumulator& o) {
    count += o.count;
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += o.sum[i];
    outer += o.outer;
  }
  GaussianStats stats() const {
    const std::size_t n = sum.size();
    const double inv = 1.0 / static_cast<double>(count);
    GaussianStats out;
    for (double s : sum) out.mean.push_back(s * inv);
    out.covariance = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        out.covariance(i, j) = outer(i, j) * inv - out.mean[i] * out.mean[j];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v =
            0.5 * (out.covariance(i, j) + out.covariance(j, i));
        out.covariance(i, j) = v;
        out.covariance(j, i) = v;
      }
    return out;
  }
  std::size_t count = 0;
  std::vector<double> sum;
  Matrix outer;
};

void expect_bit_identical(const GaussianStats& a, const GaussianStats& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) EXPECT_EQ(a.mean[i], b.mean[i]);
  EXPECT_EQ(a.covariance.data(), b.covariance.data());
}

TEST(AccumulatorParity, TriangleFoldIsBitIdenticalToFullOuterProduct) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed + 700);
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(1, 24));
    GaussianAccumulator a(n), b(n);
    NaiveAccumulator na(n), nb(n);
    const auto samples = rng.uniform_int(2, 300);
    for (std::int64_t k = 0; k < samples; ++k) {
      std::vector<double> x(n);
      for (auto& v : x) v = rng.normal(rng.uniform(-3.0, 3.0), 2.0);
      if (k % 3 == 0) {
        b.add(x);
        nb.add(x);
      } else {
        a.add(x);
        na.add(x);
      }
    }
    if (a.count() >= 2) expect_bit_identical(a.stats(), na.stats());
    a.merge(b);
    na.merge(nb);
    expect_bit_identical(a.stats(), na.stats());
  }
}

/// The Fréchet distance with both roots taken: S1^{1/2}, then the root of
/// S1^{1/2} S2 S1^{1/2} rebuilt as V diag(sqrt(lambda)) V^T.
double two_root_frechet(const GaussianStats& a, const GaussianStats& b) {
  double mean_term = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i)
    mean_term += (a.mean[i] - b.mean[i]) * (a.mean[i] - b.mean[i]);
  const Matrix s1_half = sqrtm_psd(a.covariance);
  const Matrix inner = s1_half * b.covariance * s1_half;
  const Matrix cross_root = sqrtm_psd((inner + inner.transpose()) * 0.5);
  const double cov_term = a.covariance.trace() + b.covariance.trace() -
                          2.0 * cross_root.trace();
  return mean_term + std::max(0.0, cov_term);
}

GaussianStats random_gaussian(std::size_t n, const Matrix& covariance,
                              util::Rng& rng) {
  GaussianStats g;
  for (std::size_t i = 0; i < n; ++i) g.mean.push_back(rng.normal());
  g.covariance = covariance;
  return g;
}

/// An n x cols matrix of standard normals.
Matrix random_factor(std::size_t n, std::size_t cols, util::Rng& rng) {
  Matrix f(n, cols);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < cols; ++j) f(i, j) = rng.normal();
  return f;
}

Matrix gram(const Matrix& f) {
  const Matrix g = f * f.transpose();
  return (g + g.transpose()) * 0.5;
}

TEST(FrechetParity, CachedRootMatchesTwoRootFormOnFullRankPairs) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    util::Rng rng(seed + 900);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 16));
    const auto a = random_gaussian(n, random_spd(n, rng, 0.1), rng);
    const auto b = random_gaussian(n, random_spd(n, rng, 0.1), rng);
    const double oracle = two_root_frechet(a, b);
    const double cached = frechet_distance_sq(a, b, sqrtm_psd(b.covariance));
    EXPECT_NEAR(cached, oracle, 1e-9 * std::fabs(oracle))
        << "seed " << seed << " dim " << n;
    EXPECT_EQ(frechet_distance_sq(a, b), cached);
  }
}

// An exactly singular covariance leaves eigenvalues of size eps * |S|
// where the exact ones are zero, and their square roots (sqrt(eps) ~
// 1.5e-8 relative) enter the cross term of either form. So on
// rank-deficient pairs both forms are held to a well-conditioned oracle
// at that floor: with the singular side X X^T (X is n x r), the nonzero
// eigenvalues of S_other X X^T are those of the r x r X^T S_other X.
TEST(FrechetParity, RankDeficientPairsMatchFactoredOracleAtTheRootFloor) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    util::Rng rng(seed + 1000);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 16));
    const auto r = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    const Matrix x = random_factor(n, r, rng);
    const Matrix full = random_spd(n, rng, 0.1);
    // Odd seeds put the singular covariance on the cached-root side.
    const bool singular_reference = seed % 2 == 1;
    const auto a = random_gaussian(n, singular_reference ? full : gram(x), rng);
    const auto b = random_gaussian(n, singular_reference ? gram(x) : full, rng);

    Matrix small = x.transpose() * full * x;
    small = (small + small.transpose()) * 0.5;
    double cross = 0.0;
    for (double lambda : eigenvalues_symmetric(small))
      cross += std::sqrt(std::max(0.0, lambda));
    double mean_term = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      mean_term += (a.mean[i] - b.mean[i]) * (a.mean[i] - b.mean[i]);
    const double truth = mean_term + a.covariance.trace() +
                         b.covariance.trace() - 2.0 * cross;

    const double cached = frechet_distance_sq(a, b, sqrtm_psd(b.covariance));
    EXPECT_NEAR(cached, truth, 1e-7 * std::fabs(truth))
        << "seed " << seed << " dim " << n << " rank " << r;
    EXPECT_NEAR(two_root_frechet(a, b), truth, 1e-7 * std::fabs(truth))
        << "seed " << seed << " dim " << n << " rank " << r;
  }
}

TEST(EigenParity, ValuesOnlyMatchFullDecomposition) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed + 1100);
    const Matrix a = random_spd(static_cast<std::size_t>(seed) + 2, rng);
    EXPECT_EQ(eigenvalues_symmetric(a), eigen_symmetric(a).values);
  }
}

TEST(MatrixParity, ProductMatchesCheckedTripleLoop) {
  util::Rng rng(1200);
  Matrix a(5, 7), b(7, 3);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t k = 0; k < 7; ++k)
      a(i, k) = (i + k) % 4 == 0 ? 0.0 : rng.normal();
  for (std::size_t k = 0; k < 7; ++k)
    for (std::size_t j = 0; j < 3; ++j) b(k, j) = rng.normal();
  Matrix want(5, 3);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t k = 0; k < 7; ++k)
      for (std::size_t j = 0; j < 3; ++j) want(i, j) += a(i, k) * b(k, j);
  EXPECT_EQ((a * b).data(), want.data());
}

TEST(Accumulator, RequiresTwoSamples) {
  GaussianAccumulator acc(2);
  acc.add({1.0, 2.0});
  EXPECT_THROW(acc.stats(), std::invalid_argument);
}

}  // namespace
}  // namespace diffserve::linalg
