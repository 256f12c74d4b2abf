// Dense row-major matrix with the small set of operations the FID
// computation needs: products, transpose, trace, Cholesky, and elementwise
// arithmetic. Dimensions in this library are small (feature dimension
// ~16-64), so a simple dense implementation is the right tool.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace diffserve::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Row-major construction from nested initializer lists.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diag(const std::vector<double>& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Unchecked pointer to the first element of row r (r < rows()). The
  /// kernels walk rows through it instead of paying a bounds-checked
  /// call per element.
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  Matrix transpose() const;
  double trace() const;

  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(double s) const;
  Matrix& operator+=(const Matrix& o);
  Matrix& operator*=(double s);

  /// Matrix-vector product.
  std::vector<double> apply(const std::vector<double>& v) const;

  /// Frobenius norm.
  double frobenius_norm() const;
  /// Max |a_ij - b_ij|.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  /// Is the matrix symmetric to within tol?
  bool is_symmetric(double tol = 1e-9) const;

  /// Cholesky factor L with A = L L^T. Requires symmetric positive
  /// definite input (throws std::invalid_argument otherwise).
  Matrix cholesky() const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace diffserve::linalg
