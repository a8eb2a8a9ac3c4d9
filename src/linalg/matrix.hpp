// Dense row-major matrix and vector types used by the Levenberg-Marquardt
// trainer, the least-squares fits and the MNA system's dense-LU
// degradation rung.  Assembled MNA systems themselves are stored and
// factored sparse (src/linalg/sparse.hpp).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "src/common/error.hpp"

namespace moheco::linalg {

template <typename Scalar>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, Scalar fill = Scalar{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = Scalar{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Scalar& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  const Scalar& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the beginning of row `r` (row-major storage).
  Scalar* row(std::size_t r) { return data_.data() + r * cols_; }
  const Scalar* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(Scalar value) { data_.assign(data_.size(), value); }

  /// Resizes to rows x cols and zero-fills (contents are discarded).
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, Scalar{});
  }

  std::vector<Scalar>& data() { return data_; }
  const std::vector<Scalar>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Scalar> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<std::complex<double>>;
using VectorD = std::vector<double>;
using VectorC = std::vector<std::complex<double>>;

/// y = A * x.
template <typename Scalar>
std::vector<Scalar> matvec(const Matrix<Scalar>& a,
                           const std::vector<Scalar>& x) {
  require(a.cols() == x.size(), "matvec: dimension mismatch");
  std::vector<Scalar> y(a.rows(), Scalar{});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    Scalar acc{};
    const Scalar* row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

/// C = A^T * A (used by the normal-equation least squares paths).
template <typename Scalar>
Matrix<Scalar> ata(const Matrix<Scalar>& a) {
  Matrix<Scalar> c(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = i; j < a.cols(); ++j) {
      Scalar acc{};
      for (std::size_t r = 0; r < a.rows(); ++r) acc += a(r, i) * a(r, j);
      c(i, j) = acc;
      c(j, i) = acc;
    }
  }
  return c;
}

/// y = A^T * b.
template <typename Scalar>
std::vector<Scalar> atb(const Matrix<Scalar>& a, const std::vector<Scalar>& b) {
  require(a.rows() == b.size(), "atb: dimension mismatch");
  std::vector<Scalar> y(a.cols(), Scalar{});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const Scalar* row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * b[r];
  }
  return y;
}

}  // namespace moheco::linalg
