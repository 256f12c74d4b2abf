// Symmetric eigendecomposition (cyclic Jacobi), its eigenvalues-only
// form, and the positive semi-definite matrix square root built on it.
// These are the only decompositions the Fréchet/FID computation needs.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace diffserve::linalg {

struct EigenDecomposition {
  std::vector<double> values;  ///< ascending eigenvalues
  Matrix vectors;              ///< columns are the matching eigenvectors
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Converges to
/// machine precision for the small dimensions used here. Throws
/// std::invalid_argument for non-symmetric input.
EigenDecomposition eigen_symmetric(const Matrix& a, double tol = 1e-12,
                                   int max_sweeps = 100);

/// The eigenvalues alone, ascending: the same sweeps as eigen_symmetric
/// (bit-identical values) without accumulating the rotations.
std::vector<double> eigenvalues_symmetric(const Matrix& a, double tol = 1e-12,
                                          int max_sweeps = 100);

/// Principal square root of a symmetric positive semi-definite matrix.
/// Small negative eigenvalues (numerical noise, clipped at -clip_tol) are
/// clamped to zero; genuinely negative spectra throw.
Matrix sqrtm_psd(const Matrix& a, double clip_tol = 1e-8);

}  // namespace diffserve::linalg
