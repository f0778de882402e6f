/// \file design_problem.h
/// The end-to-end differentiable inverse-design pipeline of the paper's
/// Eq. (1): latent variables -> parameterization -> Hopkins lithography ->
/// EOLE etch -> temperature-dependent permittivity -> FDFD solve -> modal /
/// flux monitors -> scalar loss, with the adjoint backward pass. Owns the
/// immutable per-device `fab_context` (per-corner litho models, EOLE field,
/// variation space) so corner evaluations can run concurrently.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "devices/spec.h"
#include "fab/eole.h"
#include "fab/etch.h"
#include "fab/litho.h"
#include "param/filters.h"
#include "param/parameterization.h"
#include "robust/corners.h"
#include "sim/backend.h"

namespace boson::sim {
class simulation_engine;
}

namespace boson::core {

/// Shared, immutable fabrication models for one device: per-corner Hopkins
/// lithography on the design region extended by a halo of fixed geometry,
/// the EOLE etch-threshold field, and the variation space. Safe to share
/// across threads once built.
struct fab_context {
  fab::litho_settings litho_cfg;
  std::vector<std::shared_ptr<const fab::hopkins_litho>> litho;  ///< per corner
  double etch_beta = 30.0;
  std::shared_ptr<const fab::eole_field> eole;
  robust::variation_space space;
  std::size_t halo = 0;  ///< halo width in cells (= litho kernel half-width)
};

/// Build the fabrication context for a device (lithography corners at the
/// device's pixel pitch, EOLE field over the extended design window).
fab_context make_fab_context(const dev::device_spec& spec,
                             const fab::litho_settings& litho_cfg,
                             const fab::eole_settings& eole_cfg,
                             const robust::variation_space& space);

/// Controls for one pipeline evaluation.
struct eval_options {
  bool fab_aware = true;        ///< run litho + etch inside the pipeline
  bool dense_objectives = true; ///< add the auxiliary penalty terms
  bool hard_etch = false;       ///< evaluation mode: hard threshold, no gradient
  bool soft_etch = false;       ///< smooth sigmoid etch (finite-difference-consistent)
  bool binarize_ideal = false;  ///< threshold the no-fab pattern at 0.5 (pre-fab eval)
  bool use_mfs_blur = false;    ///< classical MFS blur ('-M' baselines)
  bool compute_gradient = true;
  bool want_var_grads = false;  ///< also compute dLoss/dxi and dLoss/dT
  std::string objective_override;  ///< if set: maximize this metric instead

  /// Prior-art uniform geometry variation (refs [1],[7],[20]): apply a soft
  /// morphological erosion (-1) / dilation (+1) to the pattern instead of the
  /// lithography+etch chain. Only meaningful with fab_aware == false.
  int morphology_shift = 0;
  double morphology_radius_cells = 1.2;

  /// Linear-backend selection and iterative-solver controls for the FDFD
  /// solves of this evaluation (the BOSON_BACKEND environment variable sets
  /// the default backend).
  sim::engine_settings engine;

  /// When set, this evaluation's operator is not factored: its solves are
  /// preconditioned by this engine's banded LU (a nearby-operator engine,
  /// see `sim::make_nearby_backend`). The caller prepares it, typically at
  /// the nominal corner of the same mask, and it must share this problem's
  /// grid, PML and k0. `engine` is then ignored.
  std::shared_ptr<const sim::simulation_engine> nominal_engine;
};

/// Result of one evaluation: scalar loss, named metrics (including the
/// derived "contrast" for ratio objectives), gradients, and the realized
/// design-region pattern.
struct eval_result {
  double loss = 0.0;
  std::map<std::string, double> metrics;
  dvec grad;               ///< dLoss/dtheta (empty unless computed)
  dvec d_xi;               ///< dLoss/dxi (want_var_grads)
  double d_temperature = 0.0;
  array2d<double> pattern; ///< realized pattern on the design grid
};

/// The end-to-end differentiable inverse-design pipeline of Eq. (1):
///   theta -> P (parameterization) -> L (lithography) -> E (etching)
///         -> T (temperature)      -> eps -> FDFD -> monitors -> loss,
/// with the full chain-rule backward pass driven by FDFD adjoint solves.
///
/// `evaluate` is const and thread-safe: corners are simulated concurrently
/// during robust optimization.
class design_problem {
 public:
  /// Construction runs the reference normalization solve that fixes the
  /// launched power of every excitation.
  design_problem(dev::device_spec spec, std::shared_ptr<param::parameterization> param,
                 fab_context fab, double mfs_blur_radius_cells = 1.6);

  const dev::device_spec& spec() const { return spec_; }
  const fab_context& fab() const { return fab_; }
  param::parameterization& parameterization() { return *param_; }
  const param::parameterization& parameterization() const { return *param_; }
  std::shared_ptr<param::parameterization> shared_parameterization() const { return param_; }

  /// Launched power per excitation, measured on the reference structure.
  double input_power(std::size_t excitation_index) const;

  /// Prepare (assemble and factor) the operator that `evaluate_pattern`
  /// would solve for this mask and corner, without solving it. Used as the
  /// `eval_options::nominal_engine` of nearby evaluations.
  std::shared_ptr<const sim::simulation_engine> prepare_engine(
      const array2d<double>& rho_design, const robust::variation_corner& corner,
      const eval_options& opts) const;

  /// Full pipeline from latent variables.
  eval_result evaluate(const dvec& theta, const robust::variation_corner& corner,
                       const eval_options& opts) const;

  /// Pipeline from an explicit design-region pattern/mask (no theta): used
  /// to evaluate corrected masks and for Monte-Carlo post-fab evaluation.
  eval_result evaluate_pattern(const array2d<double>& rho_design,
                               const robust::variation_corner& corner,
                               const eval_options& opts) const;

  /// Figure of merit extracted from a metric map per the device's objective.
  double fom_of(const std::map<std::string, double>& metrics) const;

  /// Clone this problem at a different operating wavelength. Shares the
  /// parameterization and fabrication context (lithography is independent of
  /// the operating wavelength); the reference normalization is recomputed.
  /// Enables spectral-response studies of finished designs.
  design_problem at_wavelength(double lambda_um) const;

  /// Clone this problem with a different fabrication context. The reference
  /// normalization depends on the device alone, so the input powers carry
  /// over without a new reference solve.
  design_problem with_fab(fab_context fab) const;

  /// Binary occupancy of the fixed geometry around the design window, on the
  /// extended (halo) grid; interior cells are zero. Exposed for mask
  /// correction, which must image masks in the same context.
  const array2d<double>& halo_occupancy() const { return halo_occ_; }

  /// Embed a design-grid array into the extended halo grid (halo cells take
  /// the fixed-geometry occupancy).
  array2d<double> embed_in_halo(const array2d<double>& rho_design) const;

 private:
  /// Engine + solved forward fields for every excitation of the spec, in
  /// spec order. The single simulation pipeline behind both the reference
  /// normalization and `evaluate`.
  struct solved_excitations {
    std::shared_ptr<const sim::simulation_engine> engine;
    std::vector<array2d<cplx>> fields;
  };
  solved_excitations solve_excitations(const array2d<double>& eps,
                                       const eval_options& opts) const;

  /// Forward fabrication chain of one evaluation: the (MFS-blurred)
  /// pattern, and through litho + etch (or the no-fab variants) the
  /// realized design-region pattern; litho and etch intermediates are kept
  /// for the backward pass.
  struct fabricated {
    array2d<double> rho_b;
    fab::litho_forward litho_fwd;
    array2d<double> eta;
    array2d<double> rho_final;
  };
  fabricated fabricate(const array2d<double>& rho, const robust::variation_corner& corner,
                       const eval_options& opts) const;

  /// Occupancy (background + realized design) and permittivity of one
  /// evaluation, written into caller-provided grids of the simulation size.
  void fill_permittivity(const array2d<double>& rho_final, double temperature,
                         array2d<double>& occ, array2d<double>& eps) const;

  eval_result evaluate_impl(const dvec* theta, const array2d<double>* rho_in,
                            const robust::variation_corner& corner,
                            const eval_options& opts) const;
  void compute_halo_occupancy();
  void compute_input_powers();

  dev::device_spec spec_;
  std::shared_ptr<param::parameterization> param_;
  fab_context fab_;
  param::gaussian_blur mfs_blur_;
  array2d<double> halo_occ_;
  dvec input_power_;
};

}  // namespace boson::core
