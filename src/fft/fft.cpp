#include "fft/fft.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace boson::fft {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// m radix-2 butterflies sharing one twiddle w = c + i s:
/// (p, q) <- (p + w q, p - w q), on interleaved re/im storage.
void butterfly(double* __restrict__ p, double* __restrict__ q, std::size_t m, double c,
               double s) {
  for (std::size_t t = 0; t < m; ++t) {
    const double qr = q[2 * t];
    const double qi = q[2 * t + 1];
    const double vr = qr * c - qi * s;
    const double vi = qr * s + qi * c;
    const double ur = p[2 * t];
    const double ui = p[2 * t + 1];
    p[2 * t] = ur + vr;
    p[2 * t + 1] = ui + vi;
    q[2 * t] = ur - vr;
    q[2 * t + 1] = ui - vi;
  }
}

}  // namespace

fft_plan::fft_plan(std::size_t n) : n_(n) {
  require(is_power_of_two(n), "fft_plan: length must be a power of two");
  bit_reverse_.assign(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bit_reverse_[i] = j;
  }
  twiddles_.reserve(n - 1);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = -pi * static_cast<double>(k) / static_cast<double>(h);
      twiddles_.emplace_back(std::cos(angle), std::sin(angle));
    }
  }
}

void fft_plan::transform(cplx* data, bool inverse) const { transform_rows(data, 1, inverse); }

void fft_plan::transform_rows(cplx* data, std::size_t width, bool inverse) const {
  for (std::size_t i = 0; i < n_; ++i)
    if (i < bit_reverse_[i])
      std::swap_ranges(data + i * width, data + (i + 1) * width, data + bit_reverse_[i] * width);
  double* a = reinterpret_cast<double*>(data);
  const double sign = inverse ? -1.0 : 1.0;
  for (std::size_t h = 1; h < n_; h <<= 1) {
    for (std::size_t start = 0; start < n_; start += 2 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        const cplx w = twiddles_[h - 1 + k];
        double* p = a + 2 * (start + k) * width;
        butterfly(p, p + 2 * h * width, width, w.real(), sign * w.imag());
      }
    }
  }
}

}  // namespace boson::fft
