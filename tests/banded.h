#pragma once

#include <cstddef>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"

namespace boson::sp {

/// Complex banded matrix with LU factorization and partial pivoting, in the
/// style of LAPACK's gbtrf/gbtrs. The test oracle of the nested-dissection
/// `sp::grid_ldlt`: a 2-D grid operator with unknowns ix * ny + iy is banded
/// with kl = ku = ny, and a banded LU factors it in O(n * kl * (kl + ku))
/// time.
///
/// Storage reserves kl extra superdiagonals for pivoting fill, so entries may
/// be set for column offsets j - i in [-kl, ku] and the factorization can
/// grow the upper band to ku + kl.
class banded_lu {
 public:
  /// n unknowns, kl subdiagonals, ku superdiagonals.
  banded_lu(std::size_t n, std::size_t kl, std::size_t ku);

  std::size_t size() const { return n_; }
  std::size_t lower_bandwidth() const { return kl_; }
  std::size_t upper_bandwidth() const { return ku_; }

  /// Add `v` to A(i, j). Must satisfy -kl <= j - i <= ku. Only valid before
  /// `factor`.
  void add(std::size_t i, std::size_t j, cplx v);

  /// Read A(i, j) (zero outside the band). Before factor: the assembled
  /// matrix; after factor: the LU data (used by tests only).
  cplx at(std::size_t i, std::size_t j) const;

  /// LU-factor in place with partial pivoting, using a cache-blocked
  /// right-looking elimination (panels of pivot columns are applied to each
  /// trailing column in one resident pass; bit-identical to the unblocked
  /// column-by-column algorithm). Throws `numeric_error` on a singular pivot.
  void factor();

  bool factored() const { return factored_; }

  /// Solve A x = b using the factorization; returns x.
  cvec solve(const cvec& b) const;

  /// y = A x with the *unfactored* matrix (for residual checks).
  cvec matvec(const cvec& x) const;

 private:
  // Column-compact storage: ab_(j, kl + ku + i - j) holds A(i, j) for
  // i - j in [-(ku + kl), kl]. The extra kl rows above the assembled band
  // absorb pivoting fill, exactly as in LAPACK band storage.
  std::size_t offset(std::size_t i, std::size_t j) const { return kl_ + ku_ + i - j; }

  std::size_t n_;
  std::size_t kl_;
  std::size_t ku_;
  array2d<cplx> ab_;
  std::vector<std::size_t> pivot_;
  bool factored_ = false;
};

}  // namespace boson::sp
