#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace boson::la {

/// Row-major dense matrix. Small and simple: it backs the TCC operator in the
/// lithography model, mode-solver cross-checks, and reference solutions in
/// tests; the FDFD system itself uses the sparse nested-dissection L D Lᵀ.
template <class T>
class dense_matrix {
 public:
  dense_matrix() = default;

  dense_matrix(std::size_t rows, std::size_t cols, T fill_value = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill_value) {}

  static dense_matrix identity(std::size_t n) {
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  const T& operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill(const T& value) { std::fill(data_.begin(), data_.end(), value); }

  dense_matrix transpose() const {
    dense_matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

  /// y = A x
  std::vector<T> matvec(const std::vector<T>& x) const {
    require(x.size() == cols_, "dense_matrix::matvec: size mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc{};
      const T* row = data_.data() + i * cols_;
      for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
      y[i] = acc;
    }
    return y;
  }

  dense_matrix matmul(const dense_matrix& b) const {
    require(cols_ == b.rows_, "dense_matrix::matmul: shape mismatch");
    dense_matrix c(rows_, b.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T aik = (*this)(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) c(i, j) += aik * b(k, j);
      }
    }
    return c;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using dmat = dense_matrix<double>;
using cmat = dense_matrix<cplx>;

namespace detail {
inline double magnitude(double v) { return std::abs(v); }
inline double magnitude(const cplx& v) { return std::abs(v); }
}  // namespace detail

/// Solve A x = b by LU with partial pivoting (A copied). Intended for small
/// systems and reference checks; throws `numeric_error` on singular pivots.
template <class T>
std::vector<T> lu_solve(dense_matrix<T> a, std::vector<T> b) {
  require(a.rows() == a.cols(), "lu_solve: matrix must be square");
  require(a.rows() == b.size(), "lu_solve: rhs size mismatch");
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = detail::magnitude(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = detail::magnitude(a(i, k));
      if (mag > best) {
        best = mag;
        pivot = i;
      }
    }
    check_numeric(best > 0.0, "lu_solve: singular matrix");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(pivot, j));
      std::swap(b[k], b[pivot]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const T m = a(i, k) / a(k, k);
      a(i, k) = m;
      if (m == T{}) continue;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
      b[i] -= m * b[k];
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= a(ii, j) * b[j];
    b[ii] = acc / a(ii, ii);
  }
  return b;
}

}  // namespace boson::la
