#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace boson::sp {

/// Coordinate-format triplet used while assembling operators.
template <class T>
struct triplet {
  std::size_t row;
  std::size_t col;
  T value;
};

/// Compressed-sparse-row matrix. Built once from triplets (duplicates are
/// summed), then used for matvecs, factorization input and iterative solves.
template <class T>
class csr_matrix {
 public:
  csr_matrix() = default;

  csr_matrix(std::size_t rows, std::size_t cols, std::vector<triplet<T>> entries)
      : rows_(rows), cols_(cols) {
    for (const auto& t : entries)
      require(t.row < rows && t.col < cols, "csr_matrix: entry out of range");
    const auto row_major = [](const triplet<T>& a, const triplet<T>& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    };
    if (!std::is_sorted(entries.begin(), entries.end(), row_major))
      std::sort(entries.begin(), entries.end(), row_major);
    row_ptr_.assign(rows + 1, 0);
    col_.reserve(entries.size());
    val_.reserve(entries.size());
    for (std::size_t k = 0; k < entries.size();) {
      std::size_t j = k;
      T acc{};
      while (j < entries.size() && entries[j].row == entries[k].row &&
             entries[j].col == entries[k].col) {
        acc += entries[j].value;
        ++j;
      }
      col_.push_back(entries[k].col);
      val_.push_back(acc);
      ++row_ptr_[entries[k].row + 1];
      k = j;
    }
    std::partial_sum(row_ptr_.begin(), row_ptr_.end(), row_ptr_.begin());
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_index() const { return col_; }
  const std::vector<T>& values() const { return val_; }
  std::vector<T>& values() { return val_; }

  /// y = A x
  std::vector<T> matvec(const std::vector<T>& x) const {
    require(x.size() == cols_, "csr_matrix::matvec: size mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc{};
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
        acc += val_[k] * x[col_[k]];
      y[i] = acc;
    }
    return y;
  }

  /// y = Aᵀ x (unconjugated transpose).
  std::vector<T> matvec_transpose(const std::vector<T>& x) const {
    require(x.size() == rows_, "csr_matrix::matvec_transpose: size mismatch");
    std::vector<T> y(cols_, T{});
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
        y[col_[k]] += val_[k] * x[i];
    return y;
  }

  /// Entry lookup (binary search within the row); zero when absent.
  T at(std::size_t i, std::size_t j) const {
    require(i < rows_ && j < cols_, "csr_matrix::at: index out of range");
    const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
    const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
    const auto it = std::lower_bound(begin, end, j);
    if (it != end && *it == j) return val_[static_cast<std::size_t>(it - col_.begin())];
    return T{};
  }

  /// Maximum |A(i,j) - A(j,i)| — used to verify the FDFD operator is
  /// complex symmetric (which lets the adjoint reuse the factorization).
  double asymmetry() const {
    double worst = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
        worst = std::max(worst, std::abs(val_[k] - at(col_[k], i)));
    return worst;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_;
  std::vector<T> val_;
};

using csr_c = csr_matrix<cplx>;
using csr_d = csr_matrix<double>;

}  // namespace boson::sp
