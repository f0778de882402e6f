#pragma once

#include <cstddef>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "fft/fft.h"

namespace boson::fft {

/// FFT-based "same"-size 2-D convolution against a fixed bank of kernels.
///
/// This implements the linear map  out_k(x) = sum_u kernel_k(u) * in(x - u + c)
/// (c = kernel center) together with its *exact adjoint*, which is what the
/// lithography model differentiates through. Inputs of shape (nx, ny) are
/// zero-padded to a power-of-two grid (px, py) large enough that circular
/// wrap-around never contaminates the cropped output, so the circular
/// convolution equals the linear one.
///
/// One `fft_plan` per axis is built with the kernel transforms and never
/// changes, so a `kernel_conv2d` may be shared by any number of threads. The
/// transforms skip the padding: the pass along y runs only on the rows that
/// hold data (the nx input rows on the way in, the nx kept rows on the way
/// out), and the 1/(px py) scale is folded into the crop.
///
/// The padded input FFT is computed once and shared across kernels
/// (`transform_input` / `apply`), which matters because the Hopkins SOCS
/// model evaluates 1-8 kernels per lithography corner at the committed
/// settings.
class kernel_conv2d {
 public:
  /// `nx`, `ny`: input/output shape. Kernels must share one odd square shape.
  kernel_conv2d(std::size_t nx, std::size_t ny, std::vector<array2d<cplx>> kernels);

  std::size_t num_kernels() const { return kernel_ffts_.size(); }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

  /// FFT of the zero-padded input; pass the result to `apply`.
  array2d<cplx> transform_input(const array2d<double>& in) const;

  /// out_k = conv(in, kernel_k), given `transform_input(in)`.
  array2d<cplx> apply(const array2d<cplx>& in_fft, std::size_t k) const;

  /// Adjoint of kernel k: crop(IFFT(FFT(pad(g)) .* conj(H_k))).
  array2d<cplx> adjoint(const array2d<cplx>& g, std::size_t k) const;

  /// sum_k adjoint_k(g[k]) with a single inverse transform.
  array2d<cplx> adjoint_sum(const std::vector<array2d<cplx>>& g) const;

 private:
  /// In place: FFT of a padded grid whose data sits in its first nx rows.
  void forward(array2d<cplx>& padded) const;
  /// Inverse FFT of `spectrum` (overwritten), cropped to (nx, ny) and scaled.
  array2d<cplx> inverse_crop(array2d<cplx>& spectrum) const;
  array2d<cplx> adjoint_sum_impl(const std::vector<const array2d<cplx>*>& g,
                                 const std::vector<std::size_t>& kernel_idx) const;

  std::size_t nx_;
  std::size_t ny_;
  std::size_t ks_;
  std::size_t px_;
  std::size_t py_;
  fft_plan plan_x_;
  fft_plan plan_y_;
  std::vector<array2d<cplx>> kernel_ffts_;
};

}  // namespace boson::fft
