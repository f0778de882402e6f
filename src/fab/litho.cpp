#include "fab/litho.h"

#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "linalg/eig_sym.h"

namespace boson::fab {

std::vector<litho_corner_params> standard_litho_corners(double defocus) {
  // Index 0 is the nominal corner; 1 and 2 are the under/over-exposure
  // corners at worst-case focus (the paper's l_min / l_max).
  return {{0.0, 1.0}, {defocus, 0.95}, {defocus, 1.05}};
}

namespace {

struct freq_point {
  double fx;
  double fy;
};

/// Pupil transmission with quadratic (Fresnel) defocus phase.
cplx pupil(const litho_settings& s, double defocus, double fx, double fy) {
  const double f2 = fx * fx + fy * fy;
  const double fmax = s.na / s.wavelength;
  if (f2 > fmax * fmax) return cplx{};
  const double phase = -pi * s.wavelength * defocus * f2;
  return std::polar(1.0, phase);
}

/// Lattice points m * df (m integer) inside the disk of radius `radius`.
std::vector<freq_point> disk_samples(double radius, double df) {
  const auto reach = static_cast<long>(std::floor(radius / df));
  std::vector<freq_point> out;
  for (long mx = -reach; mx <= reach; ++mx) {
    for (long my = -reach; my <= reach; ++my) {
      const double fx = static_cast<double>(mx) * df;
      const double fy = static_cast<double>(my) * df;
      if (fx * fx + fy * fy <= radius * radius + 1e-12) out.push_back({fx, fy});
    }
  }
  return out;
}

}  // namespace

hopkins_litho::hopkins_litho(const litho_settings& settings,
                             const litho_corner_params& corner, std::size_t nx,
                             std::size_t ny)
    : settings_(settings), corner_(corner), nx_(nx), ny_(ny) {
  require(nx > 0 && ny > 0, "hopkins_litho: empty mask shape");
  require(settings.wavelength > 0 && settings.na > 0 && settings.pixel > 0,
          "hopkins_litho: invalid optics");
  require(settings.kernel_half >= 2, "hopkins_litho: kernel too small");

  const double fmax = settings.na / settings.wavelength;
  const double fcap = (1.0 + settings.sigma) * fmax;
  const double span =
      static_cast<double>(2 * settings.kernel_half + 1) * settings.pixel;
  const double df = 1.0 / span;
  check_numeric(fcap < 0.5 / settings.pixel,
                "hopkins_litho: pupil exceeds the mask Nyquist frequency");

  // Mask-frequency samples inside the TCC support disk, and the source
  // samples (conventional disk illumination of radius sigma * fmax).
  const std::vector<freq_point> freqs = disk_samples(fcap, df);
  const std::size_t n_freq = freqs.size();
  check_numeric(n_freq >= 5, "hopkins_litho: too few frequency samples");
  std::vector<freq_point> source = disk_samples(settings.sigma * fmax, df);
  if (source.empty()) source.push_back({0.0, 0.0});
  const std::size_t n_src = source.size();

  // The Hopkins TCC is a sum of source-point outer products,
  // TCC = sum_s w p_s p_s^H = Q Q^H with Q(a, s) = sqrt(w) P(f_s + f_a), so
  // its rank is at most n_src. Its nonzero spectrum is that of the small
  // Gram matrix Q^H Q: for Q^H Q u = lambda u, v = Q u / sqrt(lambda) is a
  // unit TCC eigenvector with the same eigenvalue.
  la::cmat q(n_freq, n_src);
  const double amplitude = std::sqrt(1.0 / static_cast<double>(n_src));
  for (std::size_t a = 0; a < n_freq; ++a)
    for (std::size_t s = 0; s < n_src; ++s)
      q(a, s) = amplitude * pupil(settings, corner.defocus, source[s].fx + freqs[a].fx,
                                  source[s].fy + freqs[a].fy);
  la::cmat gram(n_src, n_src);
  for (std::size_t s = 0; s < n_src; ++s) {
    for (std::size_t t = s; t < n_src; ++t) {
      cplx acc{};
      for (std::size_t a = 0; a < n_freq; ++a) acc += std::conj(q(a, s)) * q(a, t);
      gram(s, t) = acc;
      gram(t, s) = std::conj(acc);
    }
  }
  const la::eig_result<cplx> eig = la::hermitian_eig(gram);

  // Retain the strongest kernels (eigenvalues ascending -> walk backwards).
  double total_energy = 0.0;
  for (const double v : eig.values)
    if (v > 0.0) total_energy += v;
  check_numeric(total_energy > 0.0, "hopkins_litho: TCC has no positive spectrum");

  std::vector<std::size_t> kept;
  double captured = 0.0;
  for (std::size_t jj = eig.values.size(); jj-- > 0;) {
    const double lambda = eig.values[jj];
    if (lambda <= 0.0) break;
    kept.push_back(jj);
    captured += lambda;
    if (kept.size() >= settings.max_kernels || captured >= settings.energy_capture * total_energy)
      break;
  }
  log_debug("hopkins_litho: ", kept.size(), " kernels capture ",
            captured / total_energy * 100.0, "% of TCC energy (", n_freq,
            " freq samples, ", n_src, " source points)");

  // Spatial kernels h_k(u) = sum_a v_k(a) exp(i 2 pi f_a . u) on the pixel
  // lattice, through one phase table shared by every kernel, and the
  // open-frame intensity used for normalization.
  const std::size_t ks = 2 * settings.kernel_half + 1;
  const auto offset = [&](std::size_t u) {
    return (static_cast<double>(u) - static_cast<double>(settings.kernel_half)) *
           settings.pixel;
  };
  std::vector<cplx> phase(ks * ks * n_freq);
  for (std::size_t ux = 0; ux < ks; ++ux)
    for (std::size_t uy = 0; uy < ks; ++uy)
      for (std::size_t a = 0; a < n_freq; ++a)
        phase[(ux * ks + uy) * n_freq + a] =
            std::polar(1.0, 2.0 * pi * (freqs[a].fx * offset(ux) + freqs[a].fy * offset(uy)));

  std::vector<array2d<cplx>> kernels;
  kernels.reserve(kept.size());
  raw_weights_.reserve(kept.size());
  std::vector<cplx> v(n_freq);
  for (const std::size_t j : kept) {
    double norm2 = 0.0;
    for (std::size_t a = 0; a < n_freq; ++a) {
      cplx acc{};
      for (std::size_t s = 0; s < n_src; ++s) acc += q(a, s) * eig.vectors(s, j);
      v[a] = acc;
      norm2 += std::norm(acc);
    }
    const double inv_norm = 1.0 / std::sqrt(norm2);  // norm2 = lambda up to rounding
    for (cplx& c : v) c *= inv_norm;

    array2d<cplx> h(ks, ks, cplx{});
    cplx open_sum{};
    for (std::size_t ux = 0; ux < ks; ++ux) {
      for (std::size_t uy = 0; uy < ks; ++uy) {
        const cplx* row = phase.data() + (ux * ks + uy) * n_freq;
        cplx acc{};
        for (std::size_t a = 0; a < n_freq; ++a) acc += v[a] * row[a];
        h(ux, uy) = acc;
        open_sum += acc;
      }
    }
    open_intensity_ += eig.values[j] * std::norm(open_sum);
    raw_weights_.push_back(eig.values[j]);
    kernels.push_back(std::move(h));
  }
  check_numeric(open_intensity_ > 0.0, "hopkins_litho: degenerate open-frame intensity");

  set_dose(corner.dose);
  conv_ = std::make_shared<const fft::kernel_conv2d>(nx, ny, std::move(kernels));
}

hopkins_litho hopkins_litho::with_dose(double dose) const {
  hopkins_litho out = *this;
  out.set_dose(dose);
  return out;
}

void hopkins_litho::set_dose(double dose) {
  corner_.dose = dose;
  weights_.resize(raw_weights_.size());
  for (std::size_t k = 0; k < raw_weights_.size(); ++k)
    weights_[k] = dose * raw_weights_[k] / open_intensity_;
}

litho_forward hopkins_litho::forward(const array2d<double>& mask) const {
  require(mask.nx() == nx_ && mask.ny() == ny_, "hopkins_litho: mask shape mismatch");
  litho_forward out;
  out.aerial = array2d<double>(nx_, ny_, 0.0);
  out.fields.reserve(weights_.size());

  const array2d<cplx> mask_fft = conv_->transform_input(mask);
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    array2d<cplx> field = conv_->apply(mask_fft, k);
    for (std::size_t i = 0; i < field.size(); ++i)
      out.aerial.data()[i] += weights_[k] * std::norm(field.data()[i]);
    out.fields.push_back(std::move(field));
  }
  return out;
}

array2d<double> hopkins_litho::backward(const litho_forward& fwd,
                                        const array2d<double>& d_aerial) const {
  require(d_aerial.nx() == nx_ && d_aerial.ny() == ny_,
          "hopkins_litho: gradient shape mismatch");
  require(fwd.fields.size() == weights_.size(), "hopkins_litho: stale forward cache");

  std::vector<array2d<cplx>> g;
  g.reserve(weights_.size());
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    array2d<cplx> gk(nx_, ny_);
    const auto& field = fwd.fields[k];
    for (std::size_t i = 0; i < gk.size(); ++i)
      gk.data()[i] = weights_[k] * d_aerial.data()[i] * field.data()[i];
    g.push_back(std::move(gk));
  }

  const array2d<cplx> adj = conv_->adjoint_sum(g);
  array2d<double> d_mask(nx_, ny_);
  for (std::size_t i = 0; i < d_mask.size(); ++i)
    d_mask.data()[i] = 2.0 * adj.data()[i].real();
  return d_mask;
}

}  // namespace boson::fab
