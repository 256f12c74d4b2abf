#include "linalg/matrix.hpp"

#include <cmath>

#include "util/check.hpp"

namespace diffserve::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    DS_REQUIRE(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diag(const std::vector<double>& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  DS_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  DS_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::trace() const {
  DS_REQUIRE(rows_ == cols_, "trace of non-square matrix");
  double t = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

Matrix Matrix::operator+(const Matrix& o) const {
  DS_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +");
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] += o.data_[i];
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  DS_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in -");
  Matrix r = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) r.data_[i] -= o.data_[i];
  return r;
}

Matrix Matrix::operator*(const Matrix& o) const {
  DS_REQUIRE(cols_ == o.rows_, "shape mismatch in *");
  Matrix r(rows_, o.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* ai = row(i);
    double* ri = r.row(i);
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = ai[k];
      if (a == 0.0) continue;
      const double* ok = o.row(k);
      for (std::size_t j = 0; j < o.cols_; ++j) ri[j] += a * ok[j];
    }
  }
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  for (auto& v : r.data_) v *= s;
  return r;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  DS_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
  DS_REQUIRE(v.size() == cols_, "shape mismatch in apply");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j) * v[j];
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  DS_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_,
             "shape mismatch in max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  return m;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
  return true;
}

Matrix Matrix::cholesky() const {
  DS_REQUIRE(rows_ == cols_, "cholesky of non-square matrix");
  const std::size_t n = rows_;
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = (*this)(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    DS_REQUIRE(d > 0.0, "matrix not positive definite in cholesky");
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

}  // namespace diffserve::linalg
