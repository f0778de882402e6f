#include "banded.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sparse/kernels.h"

namespace boson::sp {

banded_lu::banded_lu(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ab_(n, 2 * kl + ku + 1, cplx{}), pivot_(n, 0) {
  require(n > 0, "banded_lu: empty system");
  require(kl < n && ku < n, "banded_lu: bandwidth must be smaller than n");
}

void banded_lu::add(std::size_t i, std::size_t j, cplx v) {
  require(!factored_, "banded_lu::add: matrix already factored");
  require(i < n_ && j < n_, "banded_lu::add: index out of range");
  require(j + kl_ >= i && i + ku_ >= j, "banded_lu::add: entry outside band");
  ab_(j, offset(i, j)) += v;
}

cplx banded_lu::at(std::size_t i, std::size_t j) const {
  if (i >= n_ || j >= n_) return cplx{};
  if (j + kl_ < i || i + ku_ + kl_ < j) return cplx{};
  return ab_(j, offset(i, j));
}

void banded_lu::factor() {
  require(!factored_, "banded_lu::factor: already factored");
  const std::size_t band_hi = ku_ + kl_;  // widest upper offset after pivoting
  // Cache-blocked right-looking elimination: pivot columns are processed in
  // panels, and each trailing column receives the whole panel's interchanges
  // and rank-1 updates in one pass while it is resident in cache. The
  // per-element operation sequence is exactly that of the unblocked
  // column-by-column algorithm, so the factorization is bit-identical; only
  // the loop order over trailing columns changes.
  const std::size_t panel = std::min<std::size_t>(8, band_hi + 1);

  for (std::size_t j0 = 0; j0 < n_; j0 += panel) {
    const std::size_t j1 = std::min(j0 + panel, n_);

    // Panel factorization: columns [j0, j1) are updated eagerly so every
    // pivot search sees a fully eliminated column.
    for (std::size_t j = j0; j < j1; ++j) {
      const std::size_t last_row = std::min(j + kl_, n_ - 1);
      std::size_t p = j;
      double best = std::abs(ab_(j, offset(j, j)));
      for (std::size_t i = j + 1; i <= last_row; ++i) {
        const double mag = std::abs(ab_(j, offset(i, j)));
        if (mag > best) {
          best = mag;
          p = i;
        }
      }
      check_numeric(best > 1e-300, "banded_lu::factor: singular pivot");
      pivot_[j] = p;

      const std::size_t panel_col = std::min({j + band_hi, j1 - 1, n_ - 1});
      if (p != j) {
        for (std::size_t c = j; c <= panel_col; ++c)
          std::swap(ab_(c, offset(j, c)), ab_(c, offset(p, c)));
      }

      // Multipliers for column j (contiguous in the column-compact storage).
      const cplx inv_pivot = 1.0 / ab_(j, offset(j, j));
      const std::size_t rows_below = last_row - j;
      if (rows_below == 0) continue;
      cplx* col_j = &ab_(j, offset(j + 1, j));
      for (std::size_t t = 0; t < rows_below; ++t) col_j[t] *= inv_pivot;

      for (std::size_t c = j + 1; c <= panel_col; ++c) {
        const cplx ajc = ab_(c, offset(j, c));
        if (ajc == cplx{}) continue;
        sub_scaled(&ab_(c, offset(j + 1, c)), col_j, ajc, rows_below);
      }
    }

    // Trailing update: replay the panel's row interchanges and eliminations
    // on each column past the panel, in pivot order, while the column stays
    // hot in cache (the panel's multiplier columns fit in L1 together).
    if (j1 == n_) break;
    const std::size_t last_col = std::min(j1 - 1 + band_hi, n_ - 1);
    for (std::size_t c = j1; c <= last_col; ++c) {
      const std::size_t first_j = (c > band_hi && c - band_hi > j0) ? c - band_hi : j0;
      for (std::size_t j = first_j; j < j1; ++j) {
        if (pivot_[j] != j)
          std::swap(ab_(c, offset(j, c)), ab_(c, offset(pivot_[j], c)));
        const cplx ajc = ab_(c, offset(j, c));
        if (ajc == cplx{}) continue;
        const std::size_t rows_below = std::min(j + kl_, n_ - 1) - j;
        if (rows_below == 0) continue;
        sub_scaled(&ab_(c, offset(j + 1, c)), &ab_(j, offset(j + 1, j)), ajc,
                   rows_below);
      }
    }
  }
  factored_ = true;
}

cvec banded_lu::solve(const cvec& b) const {
  require(factored_, "banded_lu::solve: factor() first");
  require(b.size() == n_, "banded_lu::solve: rhs size mismatch");
  cvec x = b;

  // Forward substitution with on-the-fly row interchanges (L has unit
  // diagonal; multipliers are stored below the diagonal of each column).
  for (std::size_t j = 0; j < n_; ++j) {
    if (pivot_[j] != j) std::swap(x[j], x[pivot_[j]]);
    const std::size_t last_row = std::min(j + kl_, n_ - 1);
    const cplx xj = x[j];
    if (xj == cplx{} || last_row == j) continue;
    sub_scaled(&x[j + 1], &ab_(j, offset(j + 1, j)), xj, last_row - j);
  }

  // Back substitution on U (bandwidth ku + kl).
  const std::size_t band_hi = ku_ + kl_;
  for (std::size_t jj = n_; jj-- > 0;) {
    x[jj] /= ab_(jj, offset(jj, jj));
    const cplx xj = x[jj];
    if (xj == cplx{}) continue;
    const std::size_t first_row = (jj > band_hi) ? jj - band_hi : 0;
    if (first_row == jj) continue;
    sub_scaled(&x[first_row], &ab_(jj, offset(first_row, jj)), xj, jj - first_row);
  }
  return x;
}

cvec banded_lu::matvec(const cvec& x) const {
  require(!factored_, "banded_lu::matvec: matrix already factored");
  require(x.size() == n_, "banded_lu::matvec: size mismatch");
  cvec y(n_, cplx{});
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t first_row = (j > ku_) ? j - ku_ : 0;
    const std::size_t last_row = std::min(j + kl_, n_ - 1);
    const cplx xj = x[j];
    if (xj == cplx{}) continue;
    for (std::size_t i = first_row; i <= last_row; ++i)
      y[i] += ab_(j, offset(i, j)) * xj;
  }
  return y;
}

}  // namespace boson::sp
