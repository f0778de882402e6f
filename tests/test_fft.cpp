#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "fft/conv2d.h"

namespace boson::fft {
namespace {

cvec random_signal(std::size_t n, std::uint64_t seed) {
  rng r(seed);
  cvec v(n);
  for (auto& x : v) x = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  return v;
}

/// O(n^2) DFT, the oracle for the plans. `inverse` applies the conjugate
/// transform and the 1/n scale.
cvec dft_reference(const cvec& data, bool inverse) {
  const std::size_t n = data.size();
  cvec out(n, cplx{});
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle =
          sign * pi * static_cast<double>((k * j) % n) / static_cast<double>(n);
      acc += data[j] * std::polar(1.0, angle);
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

/// A length-n signal zero-padded to the next power of two, as
/// `kernel_conv2d` pads its inputs.
cvec padded_signal(std::size_t n, std::uint64_t seed) {
  cvec x = random_signal(n, seed);
  x.resize(next_power_of_two(n), cplx{});
  return x;
}

/// Unnormalized 2-D transform of a power-of-two grid: the pass along y row by
/// row, then the pass along x over whole rows.
void fft2d(array2d<cplx>& a, bool inverse) {
  const fft_plan along_x(a.nx());
  const fft_plan along_y(a.ny());
  for (std::size_t ix = 0; ix < a.nx(); ++ix) along_y.transform(&a(ix, 0), inverse);
  along_x.transform_rows(a.data(), a.ny(), inverse);
}

// ---------------------------------------------------------------- utils ----

TEST(fft_util, power_of_two_predicates) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(96));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(64), 64u);
  EXPECT_EQ(next_power_of_two(65), 128u);
}

TEST(fft_plan, rejects_lengths_that_are_not_powers_of_two) {
  for (const std::size_t n : {0, 3, 12, 96, 100}) EXPECT_THROW(fft_plan{n}, bad_argument) << n;
  EXPECT_EQ(fft_plan(1024).size(), 1024u);
}

// ------------------------------------------------------------------ 1-D ----

// The parameter is a signal length; the plan transforms it zero-padded to
// the next power of two (a no-op for powers of two).
class fft_lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(fft_lengths, matches_reference_dft) {
  const cvec x = padded_signal(GetParam(), 10 + GetParam());
  const std::size_t m = x.size();
  cvec fast = x;
  fft_plan(m).transform(fast.data(), false);
  const cvec slow = dft_reference(x, false);
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-9) << i;
  cvec back = x;
  fft_plan(m).transform(back.data(), true);
  const cvec slow_back = dft_reference(x, true);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(std::abs(back[i] / static_cast<double>(m) - slow_back[i]), 0.0, 1e-12) << i;
}

TEST_P(fft_lengths, inverse_round_trip) {
  const cvec x = padded_signal(GetParam(), 20 + GetParam());
  const std::size_t m = x.size();
  const fft_plan plan(m);
  cvec y = x;
  plan.transform(y.data(), false);
  plan.transform(y.data(), true);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_NEAR(std::abs(y[i] / static_cast<double>(m) - x[i]), 0.0, 1e-12);
}

TEST_P(fft_lengths, parseval_energy_conservation) {
  const cvec x = padded_signal(GetParam(), 30 + GetParam());
  const std::size_t m = x.size();
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  cvec y = x;
  fft_plan(m).transform(y.data(), false);
  double freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(m), time_energy, 1e-9 * (1.0 + time_energy));
}

// Every power of two up to 1024, and signals of awkward lengths padded up.
INSTANTIATE_TEST_SUITE_P(lengths, fft_lengths,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 3, 5, 7,
                                           12, 30, 97, 100));

TEST(fft, impulse_transforms_to_constant) {
  cvec x(16, cplx{});
  x[0] = cplx{1.0};
  fft_plan(16).transform(x.data(), false);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cplx{1.0}), 0.0, 1e-12);
}

TEST(fft, single_tone_peaks_at_its_bin) {
  const std::size_t n = 32, bin = 5;
  cvec x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::polar(1.0, 2.0 * pi * static_cast<double>(bin * t) / static_cast<double>(n));
  fft_plan(n).transform(x.data(), false);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin) {
      EXPECT_NEAR(std::abs(x[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
    }
  }
}

// ------------------------------------------------------------------ 2-D ----

TEST(fft2d, round_trip) {
  array2d<cplx> a(16, 32);
  rng r(44);
  for (auto& v : a) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const array2d<cplx> original = a;
  fft2d(a, false);
  fft2d(a, true);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a.data()[i] / 512.0 - original.data()[i]), 0.0, 1e-12);
}

TEST(fft2d, matches_reference_dft) {
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{1, 8}, {8, 1}, {4, 16},
                               {32, 8}, {64, 64}}) {
    array2d<cplx> a(nx, ny);
    rng r(50 + nx + ny);
    for (auto& v : a) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
    // Oracle: the 1-D reference along y on every row, then along x on
    // every column.
    array2d<cplx> slow = a;
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const cvec row = dft_reference(cvec(&slow(ix, 0), &slow(ix, 0) + ny), false);
      std::copy(row.begin(), row.end(), &slow(ix, 0));
    }
    for (std::size_t iy = 0; iy < ny; ++iy) {
      cvec column(nx);
      for (std::size_t ix = 0; ix < nx; ++ix) column[ix] = slow(ix, iy);
      column = dft_reference(column, false);
      for (std::size_t ix = 0; ix < nx; ++ix) slow(ix, iy) = column[ix];
    }
    fft2d(a, false);
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_NEAR(std::abs(a.data()[i] - slow.data()[i]), 0.0, 1e-9) << nx << "x" << ny;
  }
}

TEST(fft2d, separable_plane_wave_peak) {
  const std::size_t nx = 16, ny = 16;
  array2d<cplx> a(nx, ny);
  const std::size_t kx = 3, ky = 5;
  for (std::size_t ix = 0; ix < nx; ++ix)
    for (std::size_t iy = 0; iy < ny; ++iy)
      a(ix, iy) = std::polar(1.0, 2.0 * pi *
                                      (static_cast<double>(kx * ix) / nx +
                                       static_cast<double>(ky * iy) / ny));
  fft2d(a, false);
  for (std::size_t ix = 0; ix < nx; ++ix)
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double expected = (ix == kx && iy == ky) ? static_cast<double>(nx * ny) : 0.0;
      EXPECT_NEAR(std::abs(a(ix, iy)), expected, 1e-8);
    }
}

// ----------------------------------------------------------------- conv ----

/// Direct O(n^2 k^2) "same" convolution for reference.
array2d<cplx> conv_direct(const array2d<double>& in, const array2d<cplx>& kernel) {
  const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(kernel.nx() / 2);
  array2d<cplx> out(in.nx(), in.ny(), cplx{});
  for (std::ptrdiff_t x = 0; x < static_cast<std::ptrdiff_t>(in.nx()); ++x) {
    for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(in.ny()); ++y) {
      cplx acc{};
      for (std::ptrdiff_t ux = 0; ux < static_cast<std::ptrdiff_t>(kernel.nx()); ++ux) {
        for (std::ptrdiff_t uy = 0; uy < static_cast<std::ptrdiff_t>(kernel.ny()); ++uy) {
          const std::ptrdiff_t sx = x - (ux - c);
          const std::ptrdiff_t sy = y - (uy - c);
          if (sx < 0 || sy < 0 || sx >= static_cast<std::ptrdiff_t>(in.nx()) ||
              sy >= static_cast<std::ptrdiff_t>(in.ny()))
            continue;
          acc += kernel(static_cast<std::size_t>(ux), static_cast<std::size_t>(uy)) *
                 in(static_cast<std::size_t>(sx), static_cast<std::size_t>(sy));
        }
      }
      out(static_cast<std::size_t>(x), static_cast<std::size_t>(y)) = acc;
    }
  }
  return out;
}

struct conv_case {
  std::size_t nx, ny, ks;
};

class conv_shapes : public ::testing::TestWithParam<conv_case> {};

TEST_P(conv_shapes, fft_convolution_matches_direct) {
  const auto [nx, ny, ks] = GetParam();
  rng r(100 + nx + ks);
  array2d<double> in(nx, ny);
  for (auto& v : in) v = r.uniform(0, 1);
  array2d<cplx> kernel(ks, ks);
  for (auto& v : kernel) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));

  kernel_conv2d plan(nx, ny, {kernel});
  const auto in_fft = plan.transform_input(in);
  const auto fast = plan.apply(in_fft, 0);
  const auto slow = conv_direct(in, kernel);
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(std::abs(fast.data()[i] - slow.data()[i]), 0.0, 1e-9);
}

TEST_P(conv_shapes, adjoint_identity_holds) {
  // <conv(x), y> == <x, adjoint(y)> for the complex inner product.
  const auto [nx, ny, ks] = GetParam();
  rng r(200 + ny + ks);
  array2d<double> x(nx, ny);
  for (auto& v : x) v = r.uniform(-1, 1);
  array2d<cplx> kernel(ks, ks);
  for (auto& v : kernel) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  array2d<cplx> y(nx, ny);
  for (auto& v : y) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));

  kernel_conv2d plan(nx, ny, {kernel});
  const auto ax = plan.apply(plan.transform_input(x), 0);
  const auto aty = plan.adjoint(y, 0);

  cplx lhs{}, rhs{};
  for (std::size_t i = 0; i < ax.size(); ++i) lhs += std::conj(ax.data()[i]) * y.data()[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += std::conj(cplx(x.data()[i])) * aty.data()[i];
  // <Ax, y> = <x, A^H y>  =>  conj(lhs) relation; compare accordingly.
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * (1.0 + std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(shapes, conv_shapes,
                         ::testing::Values(conv_case{8, 8, 3}, conv_case{16, 12, 5},
                                           conv_case{20, 20, 7}, conv_case{9, 17, 5},
                                           // nx << px (the padding is pruned) and px != py
                                           conv_case{26, 26, 11}, conv_case{42, 42, 11},
                                           conv_case{5, 40, 3}));

TEST(conv, delta_kernel_is_identity) {
  const std::size_t n = 10, ks = 5;
  array2d<double> in(n, n);
  rng r(3);
  for (auto& v : in) v = r.uniform(0, 1);
  array2d<cplx> kernel(ks, ks, cplx{});
  kernel(ks / 2, ks / 2) = cplx{1.0};
  kernel_conv2d plan(n, n, {kernel});
  const auto out = plan.apply(plan.transform_input(in), 0);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(out.data()[i] - cplx(in.data()[i])), 0.0, 1e-10);
}

TEST(conv, multiple_kernels_and_adjoint_sum) {
  const std::size_t n = 12, ks = 3;
  rng r(17);
  std::vector<array2d<cplx>> kernels;
  for (int k = 0; k < 3; ++k) {
    array2d<cplx> kk(ks, ks);
    for (auto& v : kk) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
    kernels.push_back(kk);
  }
  kernel_conv2d plan(n, n, kernels);
  EXPECT_EQ(plan.num_kernels(), 3u);

  std::vector<array2d<cplx>> gs;
  for (int k = 0; k < 3; ++k) {
    array2d<cplx> g(n, n);
    for (auto& v : g) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
    gs.push_back(g);
  }
  const auto summed = plan.adjoint_sum(gs);
  array2d<cplx> manual(n, n, cplx{});
  for (std::size_t k = 0; k < 3; ++k) {
    const auto each = plan.adjoint(gs[k], k);
    for (std::size_t i = 0; i < manual.size(); ++i) manual.data()[i] += each.data()[i];
  }
  for (std::size_t i = 0; i < manual.size(); ++i)
    EXPECT_NEAR(std::abs(summed.data()[i] - manual.data()[i]), 0.0, 1e-10);
}

TEST(conv, shared_across_threads_is_bit_identical_to_serial) {
  // One plan read by four corner threads at once, as the Hopkins model's
  // corners share it.
  const std::size_t n = 26, ks = 11, jobs = 16;
  rng r(23);
  std::vector<array2d<cplx>> kernels;
  for (int k = 0; k < 4; ++k) {
    array2d<cplx> kk(ks, ks);
    for (auto& v : kk) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
    kernels.push_back(kk);
  }
  const kernel_conv2d plan(n, n, kernels);
  std::vector<array2d<double>> masks;
  for (std::size_t j = 0; j < jobs; ++j) {
    array2d<double> m(n, n);
    for (auto& v : m) v = r.uniform(0, 1);
    masks.push_back(m);
  }
  // Forward fields and the adjoint of those fields, per mask.
  const auto run = [&](std::size_t j) {
    const auto in_fft = plan.transform_input(masks[j]);
    std::vector<array2d<cplx>> fields;
    for (std::size_t k = 0; k < plan.num_kernels(); ++k) fields.push_back(plan.apply(in_fft, k));
    fields.push_back(plan.adjoint_sum({fields.begin(), fields.begin() + 4}));
    return fields;
  };
  std::vector<std::vector<array2d<cplx>>> serial(jobs), threaded(jobs);
  for (std::size_t j = 0; j < jobs; ++j) serial[j] = run(j);
  ASSERT_EQ(setenv("BOSON_THREADS", "4", 1), 0);
  parallel_for(jobs, [&](std::size_t j) { threaded[j] = run(j); });
  unsetenv("BOSON_THREADS");
  for (std::size_t j = 0; j < jobs; ++j)
    for (std::size_t f = 0; f < serial[j].size(); ++f)
      EXPECT_TRUE(serial[j][f].raw() == threaded[j][f].raw()) << "mask " << j << " field " << f;
}

TEST(conv, rejects_even_kernels_and_mismatched_shapes) {
  array2d<cplx> even(4, 4);
  EXPECT_THROW(kernel_conv2d(8, 8, {even}), bad_argument);
  array2d<cplx> k3(3, 3);
  array2d<cplx> k5(5, 5);
  EXPECT_THROW(kernel_conv2d(8, 8, {k3, k5}), bad_argument);
  kernel_conv2d plan(8, 8, {k3});
  array2d<double> wrong(9, 8);
  EXPECT_THROW(plan.transform_input(wrong), bad_argument);
}

}  // namespace
}  // namespace boson::fft
