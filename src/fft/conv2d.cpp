#include "fft/conv2d.h"

#include "common/error.h"

namespace boson::fft {

namespace {

/// The kernels' common odd side, after checking the shapes.
std::size_t checked_kernel_size(std::size_t nx, std::size_t ny,
                                const std::vector<array2d<cplx>>& kernels) {
  require(nx > 0 && ny > 0, "kernel_conv2d: empty input shape");
  require(!kernels.empty(), "kernel_conv2d: no kernels");
  const std::size_t ks = kernels.front().nx();
  require(ks % 2 == 1, "kernel_conv2d: kernel size must be odd");
  for (const auto& k : kernels)
    require(k.nx() == ks && k.ny() == ks, "kernel_conv2d: kernels must share one square shape");
  return ks;
}

}  // namespace

kernel_conv2d::kernel_conv2d(std::size_t nx, std::size_t ny,
                             std::vector<array2d<cplx>> kernels)
    : nx_(nx),
      ny_(ny),
      ks_(checked_kernel_size(nx, ny, kernels)),
      px_(next_power_of_two(nx + ks_ - 1)),
      py_(next_power_of_two(ny + ks_ - 1)),
      plan_x_(px_),
      plan_y_(py_) {
  const std::size_t center = ks_ / 2;
  kernel_ffts_.reserve(kernels.size());
  for (const auto& kernel : kernels) {
    // Place the kernel with its center wrapped to (0, 0) so that the
    // frequency-domain product implements a centered "same" convolution. It
    // then occupies rows [0, center] and [px - center, px) only, and only
    // those need the pass along y.
    array2d<cplx> padded(px_, py_, cplx{});
    for (std::size_t ux = 0; ux < ks_; ++ux) {
      const std::size_t wx = (ux + px_ - center) % px_;
      for (std::size_t uy = 0; uy < ks_; ++uy)
        padded(wx, (uy + py_ - center) % py_) = kernel(ux, uy);
      plan_y_.transform(&padded(wx, 0), false);
    }
    plan_x_.transform_rows(padded.data(), py_, false);
    kernel_ffts_.push_back(std::move(padded));
  }
}

void kernel_conv2d::forward(array2d<cplx>& padded) const {
  for (std::size_t ix = 0; ix < nx_; ++ix) plan_y_.transform(&padded(ix, 0), false);
  plan_x_.transform_rows(padded.data(), py_, false);
}

array2d<cplx> kernel_conv2d::inverse_crop(array2d<cplx>& spectrum) const {
  plan_x_.transform_rows(spectrum.data(), py_, true);
  const double scale = 1.0 / static_cast<double>(px_ * py_);
  array2d<cplx> out(nx_, ny_);
  for (std::size_t ix = 0; ix < nx_; ++ix) {
    plan_y_.transform(&spectrum(ix, 0), true);
    for (std::size_t iy = 0; iy < ny_; ++iy) out(ix, iy) = spectrum(ix, iy) * scale;
  }
  return out;
}

array2d<cplx> kernel_conv2d::transform_input(const array2d<double>& in) const {
  require(in.nx() == nx_ && in.ny() == ny_, "kernel_conv2d: input shape mismatch");
  array2d<cplx> padded(px_, py_, cplx{});
  for (std::size_t ix = 0; ix < nx_; ++ix)
    for (std::size_t iy = 0; iy < ny_; ++iy) padded(ix, iy) = in(ix, iy);
  forward(padded);
  return padded;
}

array2d<cplx> kernel_conv2d::apply(const array2d<cplx>& in_fft, std::size_t k) const {
  require(k < kernel_ffts_.size(), "kernel_conv2d::apply: kernel index out of range");
  require(in_fft.nx() == px_ && in_fft.ny() == py_, "kernel_conv2d::apply: bad transform");
  array2d<cplx> work(px_, py_);
  const double* a = reinterpret_cast<const double*>(in_fft.data());
  const double* h = reinterpret_cast<const double*>(kernel_ffts_[k].data());
  double* w = reinterpret_cast<double*>(work.data());
  for (std::size_t i = 0; i < work.size(); ++i) {
    w[2 * i] = a[2 * i] * h[2 * i] - a[2 * i + 1] * h[2 * i + 1];
    w[2 * i + 1] = a[2 * i] * h[2 * i + 1] + a[2 * i + 1] * h[2 * i];
  }
  return inverse_crop(work);
}

array2d<cplx> kernel_conv2d::adjoint(const array2d<cplx>& g, std::size_t k) const {
  return adjoint_sum_impl({&g}, {k});
}

array2d<cplx> kernel_conv2d::adjoint_sum(const std::vector<array2d<cplx>>& g) const {
  require(g.size() == kernel_ffts_.size(), "kernel_conv2d::adjoint_sum: count mismatch");
  std::vector<const array2d<cplx>*> ptrs;
  std::vector<std::size_t> idx;
  ptrs.reserve(g.size());
  idx.reserve(g.size());
  for (std::size_t k = 0; k < g.size(); ++k) {
    ptrs.push_back(&g[k]);
    idx.push_back(k);
  }
  return adjoint_sum_impl(ptrs, idx);
}

array2d<cplx> kernel_conv2d::adjoint_sum_impl(const std::vector<const array2d<cplx>*>& g,
                                              const std::vector<std::size_t>& kernel_idx) const {
  array2d<cplx> accum(px_, py_, cplx{});
  array2d<cplx> padded(px_, py_);
  double* acc = reinterpret_cast<double*>(accum.data());
  const double* p = reinterpret_cast<const double*>(padded.data());
  for (std::size_t t = 0; t < g.size(); ++t) {
    require(g[t]->nx() == nx_ && g[t]->ny() == ny_, "kernel_conv2d: input shape mismatch");
    padded.fill(cplx{});
    for (std::size_t ix = 0; ix < nx_; ++ix)
      for (std::size_t iy = 0; iy < ny_; ++iy) padded(ix, iy) = (*g[t])(ix, iy);
    forward(padded);
    // accum += padded .* conj(H_k)
    const double* h = reinterpret_cast<const double*>(kernel_ffts_[kernel_idx[t]].data());
    for (std::size_t i = 0; i < accum.size(); ++i) {
      acc[2 * i] += p[2 * i] * h[2 * i] + p[2 * i + 1] * h[2 * i + 1];
      acc[2 * i + 1] += p[2 * i + 1] * h[2 * i] - p[2 * i] * h[2 * i + 1];
    }
  }
  return inverse_crop(accum);
}

}  // namespace boson::fft
