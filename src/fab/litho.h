/// \file litho.h
/// Differentiable Hopkins partially-coherent lithography model (SOCS
/// decomposition of the transmission cross-coefficient matrix). This is the
/// physical mechanism behind BOSON-1's fabricable subspace: the projection
/// pupil band-limits the aerial image, so sub-diffraction features of the
/// mask cannot reach the wafer. Process corners vary focus and dose.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "fft/conv2d.h"

namespace boson::fab {

/// Optical settings of the Hopkins partially-coherent imaging model.
///
/// The projection system is a circular pupil of numerical aperture `na` at
/// wavelength `wavelength`, illuminated by a conventional (disk) source of
/// coherence factor `sigma`. The transmission cross-coefficient (TCC) on a
/// Cartesian frequency grid is truncated to its strongest coherent kernels
/// (SOCS decomposition).
struct litho_settings {
  double wavelength = 0.193;       ///< exposure wavelength [um] (DUV)
  double na = 1.2;                 ///< numerical aperture (immersion)
  double sigma = 0.4;              ///< partial-coherence fill factor
  double pixel = 0.05;             ///< mask pixel pitch [um]
  std::size_t kernel_half = 10;    ///< spatial kernel half-width [pixels]
  std::size_t max_kernels = 8;     ///< cap on retained SOCS kernels
  double energy_capture = 0.98;    ///< keep kernels until this energy fraction
  double corner_defocus = 0.08;    ///< focus error [um] at the min/max corners
};

/// One lithography process corner: focus error and exposure dose.
/// The paper's three corners (l_min, l_nominal, l_max) map to
/// (defocus, 0.95), (0, 1.0), (defocus, 1.05).
struct litho_corner_params {
  double defocus = 0.0;  ///< [um]
  double dose = 1.0;     ///< multiplies the aerial intensity
};

/// Standard three-corner set used across the framework.
std::vector<litho_corner_params> standard_litho_corners(double defocus = 0.08);

/// Cached forward evaluation: the aerial image plus the per-kernel coherent
/// fields needed by the backward pass.
struct litho_forward {
  array2d<double> aerial;
  std::vector<array2d<cplx>> fields;
};

/// Differentiable Hopkins lithography model for one process corner on a
/// fixed mask shape (nx x ny pixels).
///
/// Forward: aerial(x) = dose/I_open * sum_k sigma_k |(h_k * mask)(x)|^2,
/// normalized so a fully open mask images to ~dose. The model is the
/// mechanism that restricts designs to the low-dimensional fabricable
/// subspace: kernels are band-limited by the pupil, so features below the
/// diffraction limit cannot survive.
///
/// Construction never forms the TCC. With Q the (frequency x source-point)
/// matrix of scaled, shifted pupils, TCC = Q Q^H, so its nonzero spectrum is
/// that of the n_src x n_src Gram matrix Q^H Q (n_src is 1-21 at the
/// committed settings, against 21-261 frequency samples): each kept kernel
/// is Q u / sqrt(sigma) for a Gram eigenpair (sigma, u), and one phase table
/// maps every kernel to the pixel lattice. The kernels and their FFTs are
/// immutable and shared by the models `with_dose` derives, so corners that
/// differ only in dose share one optical system.
class hopkins_litho {
 public:
  hopkins_litho(const litho_settings& settings, const litho_corner_params& corner,
                std::size_t nx, std::size_t ny);

  /// The same optics (defocus, kernels, FFTs — shared, not copied) at
  /// another dose. Bit-identical to a fresh construction at that dose: the
  /// weights are the same dose * sigma_k / I_open.
  hopkins_litho with_dose(double dose) const;

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t kernel_count() const { return weights_.size(); }
  const litho_settings& settings() const { return settings_; }
  const litho_corner_params& corner() const { return corner_; }

  /// Aerial image of a mask in [0, 1]^(nx x ny).
  litho_forward forward(const array2d<double>& mask) const;

  /// Chain rule: d_mask = (d aerial / d mask)^T d_aerial, using the cached
  /// forward fields.
  array2d<double> backward(const litho_forward& fwd, const array2d<double>& d_aerial) const;

  /// Retained SOCS eigenvalues, scaled by dose/I_open (diagnostics/tests).
  const dvec& kernel_weights() const { return weights_; }

 private:
  /// Set the corner's dose and rescale `weights_` from `raw_weights_`.
  void set_dose(double dose);

  litho_settings settings_;
  litho_corner_params corner_;
  std::size_t nx_;
  std::size_t ny_;
  dvec raw_weights_;            ///< retained TCC eigenvalues sigma_k
  double open_intensity_ = 0.0; ///< I_open: the open-frame image at unit dose
  dvec weights_;                ///< sigma_k, scaled by dose/I_open
  std::shared_ptr<const fft::kernel_conv2d> conv_;
};

}  // namespace boson::fab
