#pragma once

#include <cstddef>

#include "common/types.h"

namespace boson::sp {

/// dst[t] -= src[t] * a for t in [0, n): the shared inner loop of the sparse
/// factorizations' updates and of their substitutions. Written
/// in explicit real arithmetic — the same products and sums as the complex
/// expression, so results are bit-identical for finite values — because
/// std::complex multiplies compile to scalar code with a NaN-recovery
/// branch that blocks vectorization.
inline void sub_scaled(cplx* dst, const cplx* src, cplx a, std::size_t n) {
  double* __restrict__ d = reinterpret_cast<double*>(dst);
  const double* __restrict__ s = reinterpret_cast<const double*>(src);
  const double ar = a.real();
  const double ai = a.imag();
  for (std::size_t t = 0; t < n; ++t) {
    const double sr = s[2 * t];
    const double si = s[2 * t + 1];
    d[2 * t] -= sr * ar - si * ai;
    d[2 * t + 1] -= sr * ai + si * ar;
  }
}

/// sum over t in [0, n) of a[t] * x[t], unconjugated, accumulated in
/// order: the inner loop of the backward substitution. Explicit real
/// arithmetic, as in `sub_scaled`.
inline cplx dot(const cplx* a, const cplx* x, std::size_t n) {
  const double* __restrict__ p = reinterpret_cast<const double*>(a);
  const double* __restrict__ q = reinterpret_cast<const double*>(x);
  double re = 0.0, im = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    re += p[2 * t] * q[2 * t] - p[2 * t + 1] * q[2 * t + 1];
    im += p[2 * t] * q[2 * t + 1] + p[2 * t + 1] * q[2 * t];
  }
  return cplx(re, im);
}

/// The same update on split storage: (dr + i di)[t] -= (sr + i si)[t] * a.
/// Each plane is contiguous, so the loop vectorizes without shuffles.
inline void sub_scaled(double* __restrict__ dr, double* __restrict__ di,
                       const double* __restrict__ sr, const double* __restrict__ si, cplx a,
                       std::size_t n) {
  const double ar = a.real();
  const double ai = a.imag();
  for (std::size_t t = 0; t < n; ++t) {
    dr[t] -= sr[t] * ar - si[t] * ai;
    di[t] -= sr[t] * ai + si[t] * ar;
  }
}

}  // namespace boson::sp
