#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fab/eole.h"
#include "fab/etch.h"
#include "fab/litho.h"
#include "fab/morphology.h"
#include "fab/temperature.h"
#include "fft/conv2d.h"
#include "linalg/eig_sym.h"

namespace boson::fab {
namespace {

/// Small, fast lithography settings for tests (coarse pixels, few kernels).
litho_settings test_litho(double pixel = 0.05) {
  litho_settings s;
  s.pixel = pixel;
  s.kernel_half = 6;
  s.max_kernels = 6;
  s.na = 1.0;
  s.sigma = 0.35;
  return s;
}

// ---------------------------------------------------------- temperature ----

TEST(temperature, nominal_silicon_permittivity) {
  EXPECT_NEAR(eps_si(300.0), 3.48 * 3.48, 1e-12);
}

TEST(temperature, monotone_increasing_with_t) {
  EXPECT_GT(eps_si(340.0), eps_si(300.0));
  EXPECT_LT(eps_si(260.0), eps_si(300.0));
}

TEST(temperature, derivative_matches_fd) {
  for (const double t : {270.0, 300.0, 335.0}) {
    const double h = 1e-3;
    const double fd = (eps_si(t + h) - eps_si(t - h)) / (2 * h);
    EXPECT_NEAR(eps_si_dt(t), fd, 1e-9);
  }
}

// ---------------------------------------------------------------- litho ----

TEST(litho, standard_corners_are_nominal_min_max) {
  const auto corners = standard_litho_corners(0.08);
  ASSERT_EQ(corners.size(), 3u);
  EXPECT_DOUBLE_EQ(corners[0].defocus, 0.0);
  EXPECT_DOUBLE_EQ(corners[0].dose, 1.0);
  EXPECT_LT(corners[1].dose, 1.0);
  EXPECT_GT(corners[2].dose, 1.0);
  EXPECT_GT(corners[1].defocus, 0.0);
}

TEST(litho, open_frame_images_to_dose) {
  const auto s = test_litho();
  hopkins_litho model(s, {0.0, 1.0}, 40, 40);
  array2d<double> mask(40, 40, 1.0);
  const auto fwd = model.forward(mask);
  // Away from the boundary roll-off the aerial image is ~1.
  for (std::size_t ix = 15; ix < 25; ++ix)
    for (std::size_t iy = 15; iy < 25; ++iy) EXPECT_NEAR(fwd.aerial(ix, iy), 1.0, 0.03);
}

TEST(litho, dark_frame_images_to_zero) {
  const auto s = test_litho();
  hopkins_litho model(s, {0.0, 1.0}, 32, 32);
  array2d<double> mask(32, 32, 0.0);
  const auto fwd = model.forward(mask);
  for (const double v : fwd.aerial) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(litho, dose_scales_intensity) {
  const auto s = test_litho();
  hopkins_litho nominal(s, {0.0, 1.0}, 32, 32);
  hopkins_litho overdose(s, {0.0, 1.1}, 32, 32);
  array2d<double> mask(32, 32, 0.0);
  for (std::size_t ix = 10; ix < 22; ++ix)
    for (std::size_t iy = 10; iy < 22; ++iy) mask(ix, iy) = 1.0;
  const auto a = nominal.forward(mask);
  const auto b = overdose.forward(mask);
  EXPECT_NEAR(b.aerial(16, 16) / a.aerial(16, 16), 1.1, 1e-6);
}

TEST(litho, single_pixel_feature_is_wiped_out) {
  // The core fabricability mechanism: features below the diffraction limit
  // cannot print. A 1-pixel (50 nm) hole must stay above the etch threshold
  // (it never opens), while a 5x5-pixel (250 nm) hole prints.
  const auto s = test_litho();
  hopkins_litho model(s, {0.0, 1.0}, 32, 32);
  array2d<double> pinhole(32, 32, 1.0);
  pinhole(16, 16) = 0.0;
  array2d<double> big_hole(32, 32, 1.0);
  for (std::size_t ix = 14; ix < 19; ++ix)
    for (std::size_t iy = 14; iy < 19; ++iy) big_hole(ix, iy) = 0.0;
  const auto a = model.forward(pinhole);
  const auto b = model.forward(big_hole);
  EXPECT_GT(a.aerial(16, 16), 0.55);  // sub-resolution hole does not open
  EXPECT_LT(b.aerial(16, 16), 0.35);  // resolvable hole does
}

TEST(litho, large_feature_survives) {
  const auto s = test_litho();
  hopkins_litho model(s, {0.0, 1.0}, 48, 48);
  array2d<double> mask(48, 48, 0.0);
  for (std::size_t ix = 12; ix < 36; ++ix)
    for (std::size_t iy = 12; iy < 36; ++iy) mask(ix, iy) = 1.0;  // 1.2 um block
  const auto fwd = model.forward(mask);
  EXPECT_GT(fwd.aerial(24, 24), 0.9);
  EXPECT_LT(fwd.aerial(4, 4), 0.1);
}

TEST(litho, defocus_degrades_small_feature_contrast) {
  // Through focus, a near-resolution feature loses peak intensity — the
  // mechanism behind the paper's l_min/l_max lithography corners.
  const auto s = test_litho();
  hopkins_litho focused(s, {0.0, 1.0}, 40, 40);
  hopkins_litho defocused(s, {0.3, 1.0}, 40, 40);
  array2d<double> mask(40, 40, 0.0);
  for (std::size_t ix = 18; ix < 22; ++ix)
    for (std::size_t iy = 18; iy < 22; ++iy) mask(ix, iy) = 1.0;  // 200 nm box
  const auto a = focused.forward(mask);
  const auto b = defocused.forward(mask);
  EXPECT_LT(b.aerial(20, 20), a.aerial(20, 20));
  // The two corner images differ measurably overall.
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < a.aerial.size(); ++i) {
    diff += std::abs(a.aerial.data()[i] - b.aerial.data()[i]);
    norm += std::abs(a.aerial.data()[i]);
  }
  EXPECT_GT(diff / norm, 0.01);
}

TEST(litho, kernel_energy_concentrated_in_first_kernel) {
  const auto s = test_litho();
  hopkins_litho model(s, {0.0, 1.0}, 32, 32);
  const auto& w = model.kernel_weights();
  ASSERT_GE(w.size(), 2u);
  EXPECT_GT(w[0], w[1]);  // dominant coherent kernel first
}

TEST(litho, backward_matches_fd) {
  const auto s = test_litho();
  hopkins_litho model(s, {0.05, 1.0}, 20, 20);
  rng r(12);
  array2d<double> mask(20, 20);
  for (auto& v : mask) v = r.uniform(0, 1);
  array2d<double> d_aerial(20, 20);
  for (auto& v : d_aerial) v = r.uniform(-1, 1);

  const auto fwd = model.forward(mask);
  const auto grad = model.backward(fwd, d_aerial);

  auto loss = [&](const array2d<double>& m) {
    const auto f = model.forward(m);
    double acc = 0.0;
    for (std::size_t i = 0; i < f.aerial.size(); ++i)
      acc += d_aerial.data()[i] * f.aerial.data()[i];
    return acc;
  };
  const double h = 1e-6;
  for (const auto& [ix, iy] : {std::pair<std::size_t, std::size_t>{10, 10},
                              std::pair<std::size_t, std::size_t>{3, 17},
                              std::pair<std::size_t, std::size_t>{15, 5}}) {
    array2d<double> mp = mask, mm = mask;
    mp(ix, iy) += h;
    mm(ix, iy) -= h;
    const double fd = (loss(mp) - loss(mm)) / (2 * h);
    EXPECT_NEAR(grad(ix, iy), fd, 1e-5 * (1.0 + std::abs(fd)));
  }
}

TEST(litho, rejects_pupil_beyond_nyquist) {
  litho_settings s = test_litho(0.2);  // huge pixels: Nyquist 2.5 1/um < pupil
  s.na = 1.2;
  EXPECT_THROW(hopkins_litho(s, {0.0, 1.0}, 16, 16), numeric_error);
}

TEST(litho, dose_variant_is_bit_identical_to_a_fresh_construction) {
  const auto s = test_litho();
  const hopkins_litho base(s, {0.08, 0.95}, 24, 24);
  const hopkins_litho derived = base.with_dose(1.05);
  const hopkins_litho fresh(s, {0.08, 1.05}, 24, 24);
  EXPECT_EQ(derived.corner().defocus, 0.08);
  EXPECT_EQ(derived.corner().dose, 1.05);
  ASSERT_EQ(derived.kernel_weights(), fresh.kernel_weights());

  rng r(5);
  array2d<double> mask(24, 24), d_aerial(24, 24);
  for (auto& v : mask) v = r.uniform(0, 1);
  for (auto& v : d_aerial) v = r.uniform(-1, 1);
  const auto a = derived.forward(mask);
  const auto b = fresh.forward(mask);
  for (std::size_t i = 0; i < a.aerial.size(); ++i)
    ASSERT_EQ(a.aerial.data()[i], b.aerial.data()[i]) << i;
  const auto ga = derived.backward(a, d_aerial);
  const auto gb = fresh.backward(b, d_aerial);
  for (std::size_t i = 0; i < ga.size(); ++i) ASSERT_EQ(ga.data()[i], gb.data()[i]) << i;
}

/// The explicit-TCC SOCS construction: assemble the full Hopkins TCC on the
/// frequency samples, eigendecompose it with `la::hermitian_eig`, and keep
/// the strongest kernels — the textbook route the Gram-matrix construction
/// of `hopkins_litho` must agree with.
struct tcc_oracle {
  dvec spectrum;                       ///< every TCC eigenvalue, ascending
  std::size_t kept = 0;                ///< kernels retained by the cut
  dvec raw_weights;                    ///< retained eigenvalues, strongest first
  double open_intensity = 0.0;
  std::unique_ptr<fft::kernel_conv2d> conv;

  array2d<double> aerial(const array2d<double>& mask, double dose) const {
    array2d<double> out(mask.nx(), mask.ny(), 0.0);
    const array2d<cplx> mask_fft = conv->transform_input(mask);
    for (std::size_t k = 0; k < kept; ++k) {
      const array2d<cplx> field = conv->apply(mask_fft, k);
      const double w = dose * raw_weights[k] / open_intensity;
      for (std::size_t i = 0; i < out.size(); ++i)
        out.data()[i] += w * std::norm(field.data()[i]);
    }
    return out;
  }
};

tcc_oracle build_tcc_oracle(const litho_settings& s, double defocus, std::size_t nx,
                            std::size_t ny) {
  const double fmax = s.na / s.wavelength;
  const double df = 1.0 / (static_cast<double>(2 * s.kernel_half + 1) * s.pixel);
  const auto disk = [df](double radius) {
    std::vector<std::pair<double, double>> pts;
    const auto reach = static_cast<long>(std::floor(radius / df));
    for (long mx = -reach; mx <= reach; ++mx)
      for (long my = -reach; my <= reach; ++my) {
        const double fx = static_cast<double>(mx) * df;
        const double fy = static_cast<double>(my) * df;
        if (fx * fx + fy * fy <= radius * radius + 1e-12) pts.emplace_back(fx, fy);
      }
    return pts;
  };
  const auto pupil = [&](double fx, double fy) {
    const double f2 = fx * fx + fy * fy;
    if (f2 > fmax * fmax) return cplx{};
    return std::polar(1.0, -pi * s.wavelength * defocus * f2);
  };
  const auto freqs = disk((1.0 + s.sigma) * fmax);
  auto source = disk(s.sigma * fmax);
  if (source.empty()) source.emplace_back(0.0, 0.0);
  const std::size_t n = freqs.size();

  la::cmat tcc(n, n);
  const double w = 1.0 / static_cast<double>(source.size());
  for (const auto& [sx, sy] : source) {
    std::vector<cplx> p(n);
    for (std::size_t a = 0; a < n; ++a) p[a] = pupil(sx + freqs[a].first, sy + freqs[a].second);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) tcc(a, b) += w * p[a] * std::conj(p[b]);
  }
  const la::eig_result<cplx> eig = la::hermitian_eig(tcc);

  tcc_oracle o;
  o.spectrum = eig.values;
  double total = 0.0;
  for (const double v : eig.values)
    if (v > 0.0) total += v;
  double captured = 0.0;
  std::vector<std::size_t> kept;
  for (std::size_t j = n; j-- > 0;) {
    if (eig.values[j] <= 0.0) break;
    kept.push_back(j);
    captured += eig.values[j];
    if (kept.size() >= s.max_kernels || captured >= s.energy_capture * total) break;
  }
  o.kept = kept.size();

  const std::size_t ks = 2 * s.kernel_half + 1;
  std::vector<array2d<cplx>> kernels;
  for (const std::size_t j : kept) {
    array2d<cplx> h(ks, ks);
    cplx open_sum{};
    for (std::size_t ux = 0; ux < ks; ++ux)
      for (std::size_t uy = 0; uy < ks; ++uy) {
        const double x = (static_cast<double>(ux) - static_cast<double>(s.kernel_half)) * s.pixel;
        const double y = (static_cast<double>(uy) - static_cast<double>(s.kernel_half)) * s.pixel;
        cplx acc{};
        for (std::size_t a = 0; a < n; ++a)
          acc += eig.vectors(a, j) *
                 std::polar(1.0, 2.0 * pi * (freqs[a].first * x + freqs[a].second * y));
        h(ux, uy) = acc;
        open_sum += acc;
      }
    o.open_intensity += eig.values[j] * std::norm(open_sum);
    o.raw_weights.push_back(eig.values[j]);
    kernels.push_back(std::move(h));
  }
  o.conv = std::make_unique<fft::kernel_conv2d>(nx, ny, std::move(kernels));
  return o;
}

/// The committed litho settings: the campaign specs (resolution 0.1), the
/// benchmark's single-design workloads (resolution 0.05) and the paper
/// defaults, each at its pixel pitch.
std::vector<std::pair<std::string, litho_settings>> committed_litho_settings() {
  litho_settings coarse;
  coarse.na = 0.65;
  coarse.sigma = 0.35;
  coarse.kernel_half = 5;
  coarse.max_kernels = 5;
  litho_settings campaign = coarse;
  campaign.pixel = 0.1;
  litho_settings e2e = coarse;
  e2e.pixel = 0.05;
  litho_settings paper;
  paper.pixel = 0.05;
  return {{"campaign", campaign}, {"e2e", e2e}, {"paper", paper}};
}

TEST(litho, gram_construction_matches_the_explicit_tcc_at_committed_settings) {
  const std::size_t nx = 36, ny = 30;
  rng r(31);
  array2d<double> mask(nx, ny);
  for (auto& v : mask) v = r.uniform(0, 1) < 0.5 ? 0.0 : 1.0;

  for (const auto& [name, s] : committed_litho_settings()) {
    const auto corners = standard_litho_corners(s.corner_defocus);
    for (const double defocus : {corners[0].defocus, corners[1].defocus}) {
      const tcc_oracle oracle = build_tcc_oracle(s, defocus, nx, ny);
      ASSERT_GT(oracle.kept, 0u) << name;

      // The cut never splits a degenerate eigenvalue pair, so the kept
      // subspace (and with it the aerial image) is basis-independent.
      const std::size_t n = oracle.spectrum.size();
      const double last_kept = oracle.spectrum[n - oracle.kept];
      const double first_dropped = oracle.spectrum[n - oracle.kept - 1];
      EXPECT_GT(last_kept - first_dropped, 1e-6 * last_kept)
          << name << " defocus " << defocus << ": kept " << last_kept << ", dropped "
          << first_dropped;

      for (const auto& corner : corners) {
        if (corner.defocus != defocus) continue;
        const hopkins_litho model(s, corner, nx, ny);
        const std::string where = name + " corner (" + std::to_string(corner.defocus) +
                                  ", " + std::to_string(corner.dose) + ")";
        ASSERT_EQ(model.kernel_count(), oracle.kept) << where;
        for (std::size_t k = 0; k < oracle.kept; ++k) {
          const double expected = corner.dose * oracle.raw_weights[k] / oracle.open_intensity;
          EXPECT_NEAR(model.kernel_weights()[k], expected, 1e-12 * expected) << where << " k " << k;
        }
        const array2d<double> want = oracle.aerial(mask, corner.dose);
        const array2d<double> got = model.forward(mask).aerial;
        double peak = 0.0, worst = 0.0;
        for (std::size_t i = 0; i < want.size(); ++i) {
          peak = std::max(peak, std::abs(want.data()[i]));
          worst = std::max(worst, std::abs(got.data()[i] - want.data()[i]));
        }
        EXPECT_LE(worst, 1e-12 * peak) << where;
      }
    }
  }
}

// ----------------------------------------------------------------- etch ----

TEST(etch, hard_mode_binarizes) {
  etch_model etch(30.0, etch_mode::hard);
  array2d<double> litho_out(4, 4, 0.3);
  litho_out(1, 1) = 0.8;
  array2d<double> eta(4, 4, 0.5);
  const auto p = etch.forward(litho_out, eta);
  EXPECT_DOUBLE_EQ(p(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(p(0, 0), 0.0);
}

TEST(etch, ste_forward_equals_hard_forward) {
  etch_model ste(30.0, etch_mode::ste);
  etch_model hard(30.0, etch_mode::hard);
  rng r(9);
  array2d<double> x(6, 6), eta(6, 6, 0.5);
  for (auto& v : x) v = r.uniform(0, 1);
  const auto a = ste.forward(x, eta);
  const auto b = hard.forward(x, eta);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

TEST(etch, soft_mode_gradient_matches_fd) {
  etch_model etch(18.0, etch_mode::soft);
  rng r(10);
  array2d<double> x(5, 5), eta(5, 5), d_p(5, 5);
  for (auto& v : x) v = r.uniform(0, 1);
  for (auto& v : eta) v = r.uniform(0.4, 0.6);
  for (auto& v : d_p) v = r.uniform(-1, 1);

  array2d<double> dx(5, 5, 0.0), de(5, 5, 0.0);
  etch.backward(x, eta, d_p, dx, de);

  auto loss = [&](const array2d<double>& xx, const array2d<double>& ee) {
    const auto p = etch.forward(xx, ee);
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) acc += d_p.data()[i] * p.data()[i];
    return acc;
  };
  const double h = 1e-6;
  for (std::size_t i : {0ul, 7ul, 13ul, 24ul}) {
    array2d<double> xp = x, xm = x;
    xp.data()[i] += h;
    xm.data()[i] -= h;
    EXPECT_NEAR(dx.data()[i], (loss(xp, eta) - loss(xm, eta)) / (2 * h), 1e-5);
    array2d<double> ep = eta, em = eta;
    ep.data()[i] += h;
    em.data()[i] -= h;
    EXPECT_NEAR(de.data()[i], (loss(x, ep) - loss(x, em)) / (2 * h), 1e-5);
  }
}

TEST(etch, eta_shift_shrinks_or_grows_pattern) {
  // Under-etch (higher threshold) keeps less material.
  etch_model etch(30.0, etch_mode::hard);
  array2d<double> x(10, 10);
  for (std::size_t ix = 0; ix < 10; ++ix)
    for (std::size_t iy = 0; iy < 10; ++iy)
      x(ix, iy) = static_cast<double>(ix) / 9.0;  // ramp
  array2d<double> eta_lo(10, 10, 0.4), eta_hi(10, 10, 0.6);
  const double area_lo = total(etch.forward(x, eta_lo));
  const double area_hi = total(etch.forward(x, eta_hi));
  EXPECT_GT(area_lo, area_hi);
}

TEST(etch, hard_mode_has_zero_gradient) {
  etch_model etch(30.0, etch_mode::hard);
  array2d<double> x(3, 3, 0.7), eta(3, 3, 0.5), d_p(3, 3, 1.0);
  array2d<double> dx, de;
  etch.backward(x, eta, d_p, dx, de);
  for (const double v : dx) EXPECT_DOUBLE_EQ(v, 0.0);
  for (const double v : de) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ----------------------------------------------------------------- eole ----

eole_settings test_eole() {
  eole_settings s;
  s.corr_length = 0.3;
  s.sigma = 0.05;
  s.anchors_x = 5;
  s.anchors_y = 5;
  s.num_terms = 6;
  return s;
}

TEST(eole, zero_coefficients_give_nominal_threshold) {
  eole_field field(20, 20, 0.05, 0.05, test_eole());
  const auto eta = field.field(dvec(field.num_terms(), 0.0));
  for (const double v : eta) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(eole, global_shift_adds_uniformly) {
  eole_field field(16, 16, 0.05, 0.05, test_eole());
  const auto eta = field.field(dvec(field.num_terms(), 0.0), 0.03);
  for (const double v : eta) EXPECT_DOUBLE_EQ(v, 0.53);
}

TEST(eole, field_is_linear_in_xi) {
  eole_field field(12, 12, 0.05, 0.05, test_eole());
  rng r(3);
  dvec xi1 = r.normal_vector(field.num_terms());
  dvec xi2 = r.normal_vector(field.num_terms());
  const auto f1 = field.field(xi1);
  const auto f2 = field.field(xi2);
  dvec sum(xi1.size());
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = xi1[i] + xi2[i];
  const auto fs = field.field(sum);
  for (std::size_t i = 0; i < fs.size(); ++i)
    EXPECT_NEAR(fs.data()[i] - 0.5, (f1.data()[i] - 0.5) + (f2.data()[i] - 0.5), 1e-12);
}

TEST(eole, pointwise_variance_bounded_by_sigma) {
  // EOLE truncation only *underestimates* the variance: sum_m B_m(x)^2 <=
  // sigma^2, approaching it with enough terms.
  auto s = test_eole();
  s.num_terms = 25;
  eole_field field(24, 24, 0.05, 0.05, s);
  double worst = 0.0, best = 0.0;
  for (std::size_t ix = 4; ix < 20; ++ix) {
    for (std::size_t iy = 4; iy < 20; ++iy) {
      double var = 0.0;
      for (std::size_t m = 0; m < field.num_terms(); ++m) {
        const double b = field.basis(m)(ix, iy);
        var += b * b;
      }
      worst = std::max(worst, var);
      best = std::max(best, var);
      EXPECT_LE(var, s.sigma * s.sigma * 1.02);
    }
  }
  EXPECT_GT(best, 0.5 * s.sigma * s.sigma);  // captures most of the energy
}

TEST(eole, field_is_spatially_correlated) {
  eole_field field(30, 30, 0.05, 0.05, test_eole());
  rng r(17);
  // Empirical correlation between neighbors vs. distant cells over draws.
  double c_near = 0.0, c_far = 0.0;
  const int draws = 200;
  for (int d = 0; d < draws; ++d) {
    const auto eta = field.field(r.normal_vector(field.num_terms()));
    const double a = eta(15, 15) - 0.5;
    c_near += a * (eta(16, 15) - 0.5);
    c_far += a * (eta(2, 28) - 0.5);
  }
  EXPECT_GT(c_near / draws, 4.0 * std::abs(c_far / draws));
}

TEST(eole, project_gradient_matches_fd) {
  eole_field field(10, 10, 0.05, 0.05, test_eole());
  rng r(23);
  array2d<double> d_eta(10, 10);
  for (auto& v : d_eta) v = r.uniform(-1, 1);
  const dvec g = field.project_gradient(d_eta);

  auto loss = [&](const dvec& xi) {
    const auto eta = field.field(xi);
    double acc = 0.0;
    for (std::size_t i = 0; i < eta.size(); ++i) acc += d_eta.data()[i] * eta.data()[i];
    return acc;
  };
  dvec xi(field.num_terms(), 0.0);
  const double h = 1e-6;
  for (std::size_t m = 0; m < field.num_terms(); ++m) {
    dvec xp = xi, xm = xi;
    xp[m] += h;
    xm[m] -= h;
    EXPECT_NEAR(g[m], (loss(xp) - loss(xm)) / (2 * h), 1e-7 * (1.0 + std::abs(g[m])));
  }
}

TEST(eole, basis_index_validated) {
  eole_field field(8, 8, 0.05, 0.05, test_eole());
  EXPECT_THROW(field.basis(field.num_terms()), bad_argument);
  EXPECT_THROW(field.field(dvec(field.num_terms() + 1)), bad_argument);
}

// ----------------------------------------------------------- morphology ----

namespace {

array2d<double> centered_square(std::size_t n, std::size_t half) {
  array2d<double> a(n, n, 0.0);
  for (std::size_t ix = n / 2 - half; ix < n / 2 + half; ++ix)
    for (std::size_t iy = n / 2 - half; iy < n / 2 + half; ++iy) a(ix, iy) = 1.0;
  return a;
}

}  // namespace

TEST(morphology, hard_dilation_grows_and_erosion_shrinks) {
  const auto square = centered_square(20, 4);
  const double area = total(square);
  EXPECT_GT(total(dilate_hard(square, 1.5)), area);
  EXPECT_LT(total(erode_hard(square, 1.5)), area);
}

TEST(morphology, duality_of_dilation_and_erosion) {
  // erode(x) == 1 - dilate(1 - x), for the hard operators.
  rng r(31);
  array2d<double> x(14, 11);
  for (auto& v : x) v = r.uniform(0, 1) > 0.5 ? 1.0 : 0.0;
  array2d<double> inv(14, 11);
  for (std::size_t i = 0; i < x.size(); ++i) inv.data()[i] = 1.0 - x.data()[i];
  const auto lhs = erode_hard(x, 1.2);
  const auto rhs = dilate_hard(inv, 1.2);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(lhs.data()[i], 1.0 - rhs.data()[i], 1e-12);
}

TEST(morphology, erosion_removes_small_features_entirely) {
  const auto dot = centered_square(16, 1);  // 2x2 block
  const auto eroded = erode_hard(dot, 1.5);
  EXPECT_NEAR(total(eroded), 0.0, 1e-12);
}

class soft_morphology_radii : public ::testing::TestWithParam<double> {};

TEST_P(soft_morphology_radii, approximates_hard_operators_on_binary_input) {
  const double radius = GetParam();
  const auto square = centered_square(18, 4);
  const soft_morphology morph(radius, 24.0);  // high power: close to hard
  const auto soft_d = morph.forward(square, true);
  const auto hard_d = dilate_hard(square, radius);
  const auto soft_e = morph.forward(square, false);
  const auto hard_e = erode_hard(square, radius);
  double err_d = 0.0, err_e = 0.0;
  for (std::size_t i = 0; i < square.size(); ++i) {
    err_d = std::max(err_d, std::abs(soft_d.data()[i] - hard_d.data()[i]));
    err_e = std::max(err_e, std::abs(soft_e.data()[i] - hard_e.data()[i]));
  }
  EXPECT_LT(err_d, 0.25);
  EXPECT_LT(err_e, 0.25);
}

INSTANTIATE_TEST_SUITE_P(radii, soft_morphology_radii, ::testing::Values(1.0, 1.5, 2.5));

TEST(morphology, soft_backward_matches_fd) {
  rng r(41);
  array2d<double> x(9, 9);
  for (auto& v : x) v = r.uniform(0.05, 0.95);
  array2d<double> d_out(9, 9);
  for (auto& v : d_out) v = r.uniform(-1, 1);
  const soft_morphology morph(1.4, 8.0);

  for (const bool dilate : {true, false}) {
    array2d<double> grad(9, 9, 0.0);
    morph.backward(x, d_out, dilate, grad);
    auto loss = [&](const array2d<double>& in) {
      const auto out = morph.forward(in, dilate);
      double acc = 0.0;
      for (std::size_t i = 0; i < out.size(); ++i) acc += d_out.data()[i] * out.data()[i];
      return acc;
    };
    const double h = 1e-6;
    for (const std::size_t i : {10ul, 40ul, 60ul}) {
      array2d<double> xp = x, xm = x;
      xp.data()[i] += h;
      xm.data()[i] -= h;
      const double fd = (loss(xp) - loss(xm)) / (2 * h);
      EXPECT_NEAR(grad.data()[i], fd, 1e-5 * (1.0 + std::abs(fd))) << (dilate ? "dilate" : "erode");
    }
  }
}

TEST(morphology, validates_parameters) {
  array2d<double> x(4, 4, 0.5);
  EXPECT_THROW(dilate_hard(x, 0.0), bad_argument);
  EXPECT_THROW(soft_morphology(1.0, 1.0), bad_argument);
}

}  // namespace
}  // namespace boson::fab
