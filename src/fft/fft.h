#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace boson::fft {

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// A radix-2 complex FFT of one power-of-two length n: the bit-reversal
/// table and every stage's twiddles, computed once from cos/sin.
///
/// Immutable after construction, so one plan may be read by any number of
/// threads. Transforms are unnormalized: the inverse applies the conjugate
/// twiddles and no 1/n, so inverse(forward(x)) == n * x. Callers fold the
/// scale into whatever pass touches the data last.
class fft_plan {
 public:
  /// Throws `bad_argument` unless n is a power of two.
  explicit fft_plan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In place on n contiguous values (`transform_rows` with width 1).
  void transform(cplx* data, bool inverse) const;

  /// In place along the leading axis of a row-major n x width block: each
  /// butterfly combines two whole rows, so the inner loop runs over
  /// `width` contiguous values and no strided copy is made.
  void transform_rows(cplx* data, std::size_t width, bool inverse) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> bit_reverse_;
  /// exp(-i pi k / h), k in [0, h), for the stage that combines halves of
  /// length h, stored at [h - 1, 2h - 1).
  std::vector<cplx> twiddles_;
};

}  // namespace boson::fft
