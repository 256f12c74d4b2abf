#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace diffserve::linalg {

namespace {

/// Cyclic Jacobi sweeps that diagonalize `d` in place; when `v` is given
/// it accumulates the rotations (its columns become the eigenvectors).
/// Each rotation walks row pointers: the column updates touch entries p
/// and q of every row, the row updates rows p and q whole.
void jacobi_diagonalize(Matrix& d, Matrix* v, double tol, int max_sweeps) {
  DS_REQUIRE(d.rows() == d.cols(), "eigendecomposition needs square input");
  DS_REQUIRE(d.is_symmetric(1e-7), "eigendecomposition needs symmetric input");
  const std::size_t n = d.rows();

  auto off_diagonal_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* di = d.row(i);
      for (std::size_t j = i + 1; j < n; ++j) s += di[j] * di[j];
    }
    return std::sqrt(s);
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* dp = d.row(p);
        double* dq = d.row(q);
        const double apq = dp[q];
        if (std::fabs(apq) < 1e-300) continue;
        const double app = dp[p];
        const double aqq = dq[q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t_val =
            (theta >= 0.0 ? 1.0 : -1.0) /
            (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t_val * t_val + 1.0);
        const double s = t_val * c;
        // Apply rotation R(p, q, angle) on both sides of d.
        for (std::size_t k = 0; k < n; ++k) {
          double* dk = d.row(k);
          const double dkp = dk[p];
          const double dkq = dk[q];
          dk[p] = c * dkp - s * dkq;
          dk[q] = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = dp[k];
          const double dqk = dq[k];
          dp[k] = c * dpk - s * dqk;
          dq[k] = s * dpk + c * dqk;
        }
        if (v == nullptr) continue;
        for (std::size_t k = 0; k < n; ++k) {
          double* vk = v->row(k);
          const double vkp = vk[p];
          const double vkq = vk[q];
          vk[p] = c * vkp - s * vkq;
          vk[q] = s * vkp + c * vkq;
        }
      }
    }
  }
}

}  // namespace

EigenDecomposition eigen_symmetric(const Matrix& a, double tol,
                                   int max_sweeps) {
  const std::size_t n = a.rows();
  Matrix d = a;                    // becomes diagonal
  Matrix v = Matrix::identity(n);  // accumulates rotations
  jacobi_diagonalize(d, &v, tol, max_sweeps);

  // Sort ascending by eigenvalue, permuting eigenvector columns to match.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return d(i, i) < d(j, j); });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    out.values[c] = d(order[c], order[c]);
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, c) = v(r, order[c]);
  }
  return out;
}

std::vector<double> eigenvalues_symmetric(const Matrix& a, double tol,
                                          int max_sweeps) {
  Matrix d = a;
  jacobi_diagonalize(d, nullptr, tol, max_sweeps);
  std::vector<double> values(d.rows());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = d(i, i);
  std::sort(values.begin(), values.end());
  return values;
}

Matrix sqrtm_psd(const Matrix& a, double clip_tol) {
  auto eig = eigen_symmetric(a);
  const std::size_t n = a.rows();
  std::vector<double> sqrt_vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    double lambda = eig.values[i];
    DS_REQUIRE(lambda > -clip_tol * std::max(1.0, std::fabs(eig.values.back())),
               "sqrtm_psd input has a significantly negative eigenvalue");
    sqrt_vals[i] = std::sqrt(std::max(0.0, lambda));
  }
  // V * diag(sqrt(lambda)) * V^T
  return eig.vectors * Matrix::diag(sqrt_vals) * eig.vectors.transpose();
}

}  // namespace diffserve::linalg
