#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "api/spec.h"
#include "core/design_problem.h"
#include "core/evaluate.h"
#include "core/mask_correction.h"
#include "core/methods.h"
#include "core/run.h"
#include "devices/builders.h"
#include "param/density.h"
#include "param/levelset.h"

namespace boson::core {
namespace {

/// Coarse, fast configuration used throughout the core tests: 100 nm pixels,
/// a small pupil (below the coarse-grid Nyquist) and few SOCS kernels.
experiment_config test_config() {
  experiment_config cfg;
  cfg.resolution = 0.1;
  cfg.litho.na = 0.65;
  cfg.litho.sigma = 0.35;
  cfg.litho.kernel_half = 5;
  cfg.litho.max_kernels = 5;
  cfg.iterations = 4;
  cfg.mc_samples = 3;
  cfg.eole.anchors_x = 4;
  cfg.eole.anchors_y = 4;
  cfg.eole.num_terms = 5;
  return cfg;
}

/// A built-in method preset, looked up by its name.
method_recipe preset(const std::string& name) { return api::find_method(name); }

robust::variation_corner nominal_corner(const design_problem& p) {
  robust::variation_corner c;
  c.xi.assign(p.fab().space.eole_terms, 0.0);
  return c;
}

/// Shared problems (construction builds three lithography corner models, so
/// reuse across tests).
design_problem& bend_problem() {
  static design_problem p =
      make_problem(dev::make_bend(0.1), method_recipe{}, test_config());
  return p;
}

design_problem& isolator_problem() {
  static design_problem p =
      make_problem(dev::make_isolator(0.1), method_recipe{}, test_config());
  return p;
}

/// A recipe with the per-pixel density parameterization (LS otherwise).
method_recipe density_recipe() {
  method_recipe density;
  density.parameterization = "density";
  return density;
}

design_problem& bend_density_problem() {
  static design_problem p = make_problem(dev::make_bend(0.1), density_recipe(), test_config());
  return p;
}

// ------------------------------------------------------------- problem -----

TEST(design_problem, embed_in_halo_keeps_fixed_geometry_and_interior) {
  auto& p = bend_problem();
  const std::size_t h = p.fab().halo;
  array2d<double> rho(p.spec().design.nx, p.spec().design.ny, 0.25);
  const auto ext = p.embed_in_halo(rho);
  EXPECT_EQ(ext.nx(), p.spec().design.nx + 2 * h);
  EXPECT_EQ(ext.ny(), p.spec().design.ny + 2 * h);
  // Interior carries the pattern verbatim.
  for (std::size_t i = 0; i < rho.nx(); ++i)
    for (std::size_t j = 0; j < rho.ny(); ++j) EXPECT_EQ(ext(h + i, h + j), 0.25);
  // Halo matches the device's fixed geometry around the window: the bend's
  // input waveguide enters the design window's left edge, so some halo cell
  // on the left must be solid and the halo must stay binary.
  double halo_solid = 0.0;
  for (std::size_t ey = 0; ey < ext.ny(); ++ey) halo_solid += ext(0, ey);
  EXPECT_GT(halo_solid, 0.0);
  for (std::size_t ex = 0; ex < ext.nx(); ++ex)
    for (std::size_t ey = 0; ey < ext.ny(); ++ey)
      if (ex < h || ex >= h + rho.nx() || ey < h || ey >= h + rho.ny()) {
        EXPECT_TRUE(ext(ex, ey) == 0.0 || ext(ex, ey) == 1.0);
      }
}

TEST(design_problem, metrics_are_affine_in_monitor_values) {
  // transmission + reflection + radiation must reconstruct exactly from the
  // two monitors' normalized values: t = out, r = 1 - influx,
  // rad = influx - out  =>  t + r + rad == 1 identically.
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  const auto ev = p.evaluate(theta, nominal_corner(p), o);
  EXPECT_NEAR(ev.metrics.at("transmission") + ev.metrics.at("reflection") +
                  ev.metrics.at("radiation"),
              1.0, 1e-12);
}

TEST(design_problem, fom_orientation_per_device) {
  EXPECT_FALSE(bend_problem().spec().objective.fom_lower_better);
  EXPECT_TRUE(isolator_problem().spec().objective.fom_lower_better);
  std::map<std::string, double> m{{"transmission", 0.9}};
  EXPECT_DOUBLE_EQ(bend_problem().fom_of(m), 0.9);
}

TEST(design_problem, input_powers_are_positive) {
  EXPECT_GT(bend_problem().input_power(0), 0.0);
  EXPECT_GT(isolator_problem().input_power(0), 0.0);
  EXPECT_GT(isolator_problem().input_power(1), 0.0);
  EXPECT_THROW(bend_problem().input_power(5), bad_argument);
}

TEST(design_problem, isolator_input_powers_are_direction_symmetric) {
  const double fwd = isolator_problem().input_power(0);
  const double bwd = isolator_problem().input_power(1);
  EXPECT_NEAR(fwd / bwd, 1.0, 0.05);
}

TEST(design_problem, parameterization_shape_must_match_design) {
  auto cfg = test_config();
  auto spec = dev::make_bend(0.1);
  auto wrong = std::make_shared<param::levelset_param>(4, 4, spec.design.nx + 1,
                                                       spec.design.ny);
  auto fab = make_fab_context(spec, cfg.litho, cfg.eole, cfg.space);
  EXPECT_THROW(design_problem(spec, wrong, fab), bad_argument);
}

TEST(design_problem, concentrated_init_transmits_through_fab_pipeline) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  const auto ev = p.evaluate(theta, nominal_corner(p), o);
  EXPECT_GT(ev.metrics.at("transmission"), 0.5);
  // At the coarse 100 nm test pitch the stair-cased arc reflects far more
  // than at production resolution (where reflection is < 1%); just require
  // the budget to be physical.
  EXPECT_LT(ev.metrics.at("reflection"), 0.5);
  // Pattern realized on the design grid, near-binary after the hard STE etch.
  ASSERT_EQ(ev.pattern.nx(), p.spec().design.nx);
  for (const double v : ev.pattern) EXPECT_TRUE(v == 0.0 || v == 1.0);
}

TEST(design_problem, isolator_metrics_include_contrast) {
  auto& p = isolator_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  const auto ev = p.evaluate(theta, nominal_corner(p), o);
  for (const char* name : {"fwd_transmission", "bwd_transmission", "fwd_reflection",
                           "bwd_radiation", "contrast"})
    EXPECT_TRUE(ev.metrics.count(name)) << name;
  // Straight-guide init: backward passes, forward barely converts to TM3.
  EXPECT_GT(ev.metrics.at("bwd_transmission"), 0.5);
  EXPECT_LT(ev.metrics.at("fwd_transmission"), 0.4);
  EXPECT_GT(ev.metrics.at("contrast"), 1.0);
}

TEST(design_problem, evaluate_pattern_matches_evaluate_at_same_pattern) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);

  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  const auto via_theta = p.evaluate(theta, nominal_corner(p), o);
  const auto via_pattern = p.evaluate_pattern(rho, nominal_corner(p), o);
  EXPECT_NEAR(via_theta.loss, via_pattern.loss, 1e-12);
  for (const auto& [name, value] : via_theta.metrics)
    EXPECT_NEAR(value, via_pattern.metrics.at(name), 1e-12) << name;
}

TEST(design_problem, dense_objectives_add_penalty_terms) {
  auto& p = isolator_problem();
  const dvec theta = concentrated_init(p);
  eval_options dense;
  dense.fab_aware = true;
  dense.compute_gradient = false;
  dense.dense_objectives = true;
  eval_options sparse = dense;
  sparse.dense_objectives = false;
  const double dense_loss = p.evaluate(theta, nominal_corner(p), dense).loss;
  const double sparse_loss = p.evaluate(theta, nominal_corner(p), sparse).loss;
  // The straight-guide init violates the fwd-transmission constraint, so the
  // dense objective must be strictly larger.
  EXPECT_GT(dense_loss, sparse_loss);
}

TEST(design_problem, objective_override_switches_to_efficiency) {
  auto& p = isolator_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  o.dense_objectives = false;
  o.objective_override = "fwd_transmission";
  const auto ev = p.evaluate(theta, nominal_corner(p), o);
  EXPECT_NEAR(ev.loss, 1.0 - ev.metrics.at("fwd_transmission"), 1e-12);
}

TEST(design_problem, litho_corners_change_the_pattern) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  auto corner = nominal_corner(p);
  const auto nominal_pattern = p.evaluate(theta, corner, o).pattern;
  corner.litho = 1;  // under-exposure corner
  const auto under = p.evaluate(theta, corner, o).pattern;
  corner.litho = 2;  // over-exposure corner
  const auto over = p.evaluate(theta, corner, o).pattern;
  // Dose ordering: under-exposed area <= nominal <= over-exposed area.
  EXPECT_LE(total(under), total(nominal_pattern));
  EXPECT_LE(total(nominal_pattern), total(over));
}

TEST(design_problem, temperature_shifts_permittivity_and_metrics) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.compute_gradient = false;
  auto corner = nominal_corner(p);
  const double t_nominal = p.evaluate(theta, corner, o).metrics.at("transmission");
  corner.temperature = 340.0;
  const double t_hot = p.evaluate(theta, corner, o).metrics.at("transmission");
  EXPECT_NE(t_nominal, t_hot);  // thermo-optic drift must be visible
}

// ------------------------------------------------------------ gradients ----

TEST(design_problem, full_pipeline_gradient_matches_fd) {
  auto& p = bend_problem();
  p.parameterization().set_sharpness(10.0);
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.soft_etch = true;  // finite-difference-consistent surrogate
  o.compute_gradient = true;
  const auto corner = nominal_corner(p);
  const auto ev = p.evaluate(theta, corner, o);
  ASSERT_EQ(ev.grad.size(), theta.size());

  eval_options of = o;
  of.compute_gradient = false;
  const double h = 1e-4;
  std::size_t checked = 0;
  for (std::size_t k = 0; k < theta.size() && checked < 4; k += theta.size() / 5) {
    dvec tp = theta, tm = theta;
    tp[k] += h;
    tm[k] -= h;
    const double fd =
        (p.evaluate(tp, corner, of).loss - p.evaluate(tm, corner, of).loss) / (2 * h);
    if (std::abs(fd) < 1e-7) continue;  // below solver precision
    EXPECT_NEAR(ev.grad[k], fd, 2e-3 * (std::abs(fd) + std::abs(ev.grad[k]))) << k;
    ++checked;
  }
  EXPECT_GE(checked, 2u);
}

TEST(design_problem, variation_gradients_match_fd) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = true;
  o.soft_etch = true;
  o.compute_gradient = true;
  o.want_var_grads = true;
  auto corner = nominal_corner(p);
  const auto ev = p.evaluate(theta, corner, o);
  ASSERT_EQ(ev.d_xi.size(), p.fab().space.eole_terms);

  eval_options of = o;
  of.compute_gradient = false;
  of.want_var_grads = false;

  // Temperature gradient.
  {
    const double h = 0.5;
    auto cp = corner, cm = corner;
    cp.temperature += h;
    cm.temperature -= h;
    const double fd =
        (p.evaluate(theta, cp, of).loss - p.evaluate(theta, cm, of).loss) / (2 * h);
    EXPECT_NEAR(ev.d_temperature, fd,
                0.05 * (std::abs(fd) + std::abs(ev.d_temperature)) + 1e-9);
  }
  // EOLE coefficient gradient (first two terms).
  for (std::size_t m = 0; m < 2; ++m) {
    const double h = 1e-3;
    auto cp = corner, cm = corner;
    cp.xi[m] += h;
    cm.xi[m] -= h;
    const double fd =
        (p.evaluate(theta, cp, of).loss - p.evaluate(theta, cm, of).loss) / (2 * h);
    EXPECT_NEAR(ev.d_xi[m], fd, 5e-3 * (std::abs(fd) + std::abs(ev.d_xi[m])) + 1e-9);
  }
}

// ------------------------------------------------------------ protocols ----

TEST(evaluate, prefab_metrics_use_binarized_ideal_pattern) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const auto metrics = prefab_metrics(p, rho);
  EXPECT_TRUE(metrics.count("transmission"));
  EXPECT_GT(metrics.at("transmission"), 0.5);
}

TEST(evaluate, monte_carlo_is_deterministic_given_seed) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);
  const auto a = postfab_monte_carlo(p, mask, 4, 99);
  const auto b = postfab_monte_carlo(p, mask, 4, 99);
  EXPECT_DOUBLE_EQ(a.fom_mean, b.fom_mean);
  EXPECT_DOUBLE_EQ(a.fom_std, b.fom_std);
  EXPECT_EQ(a.samples, 4u);
  EXPECT_LE(a.fom_min, a.fom_mean);
  EXPECT_GE(a.fom_max, a.fom_mean);
}

TEST(evaluate, different_seeds_draw_different_variations) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);
  const auto a = postfab_monte_carlo(p, mask, 3, 1);
  const auto b = postfab_monte_carlo(p, mask, 3, 2);
  EXPECT_NE(a.fom_mean, b.fom_mean);
}

TEST(evaluate, one_seed_gives_every_method_the_same_monte_carlo_draws) {
  // The draws depend on the seed and the device's variation space only, not
  // on the parameterization or anything else a method chooses: one mask
  // scores identically on a level-set and a density problem.
  const dvec theta = concentrated_init(bend_problem());
  array2d<double> rho;
  bend_problem().parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);
  const auto a = postfab_monte_carlo(bend_problem(), mask, 3, 5);
  const auto b = postfab_monte_carlo(bend_density_problem(), mask, 3, 5);
  EXPECT_EQ(a.fom_mean, b.fom_mean);
  EXPECT_EQ(a.fom_std, b.fom_std);
  EXPECT_EQ(a.fom_min, b.fom_min);
  EXPECT_EQ(a.fom_max, b.fom_max);
}

// ------------------------------------------------------ mask correction ----

TEST(mask_correction, reduces_pattern_mismatch) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> target = binarize(rho);

  mask_correction_options mo;
  mo.iterations = 20;
  mo.litho_corners = 1;
  const auto result = correct_mask(p, target, mo);
  EXPECT_LT(result.final_mismatch, result.initial_mismatch);
  ASSERT_EQ(result.mask.nx(), target.nx());
  for (const double v : result.mask) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(mask_correction, multi_corner_matching_runs) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  mask_correction_options mo;
  mo.iterations = 6;
  mo.litho_corners = 3;
  const auto result = correct_mask(p, binarize(rho), mo);
  EXPECT_LT(result.final_mismatch, result.initial_mismatch * 1.5);
}

// ----------------------------------------------------------------- runs ----

TEST(run, nominal_fab_aware_run_reduces_loss) {
  auto& p = bend_problem();
  run_options ro;
  ro.iterations = 8;
  ro.fab_aware = true;
  ro.dense_objectives = true;
  ro.sampling = robust::sampling_strategy::nominal_only;
  ro.learning_rate = 0.03;
  const auto res = run_inverse_design(p, concentrated_init(p), ro);
  ASSERT_EQ(res.trajectory.size(), 8u);
  // STE optimization on a coarse grid is noisy iteration-to-iteration; the
  // best loss seen must improve on (or match) the starting point and the end
  // must not have blown up.
  double best = res.trajectory.front().loss;
  for (const auto& rec : res.trajectory) best = std::min(best, rec.loss);
  EXPECT_LE(best, res.trajectory.front().loss);
  EXPECT_LT(res.trajectory.back().loss, res.trajectory.front().loss * 1.3);
  EXPECT_EQ(res.theta.size(), p.parameterization().num_params());
  ASSERT_EQ(res.design_rho.nx(), p.spec().design.nx);
}

TEST(run, robust_run_with_worst_case_sampling_executes) {
  auto& p = isolator_problem();
  run_options ro;
  ro.iterations = 3;
  ro.fab_aware = true;
  ro.dense_objectives = true;
  ro.relax_epochs = 2;
  ro.sampling = robust::sampling_strategy::axial_plus_worst;
  const auto res = run_inverse_design(p, concentrated_init(p), ro);
  EXPECT_EQ(res.trajectory.size(), 3u);
  for (const auto& rec : res.trajectory) {
    EXPECT_TRUE(std::isfinite(rec.loss));
    EXPECT_TRUE(rec.metrics.count("contrast"));
  }
}

TEST(run, trajectory_records_nominal_metrics_each_iteration) {
  auto& p = bend_problem();
  run_options ro;
  ro.iterations = 3;
  ro.sampling = robust::sampling_strategy::axial_double;
  const auto res = run_inverse_design(p, concentrated_init(p), ro);
  for (std::size_t i = 0; i < res.trajectory.size(); ++i) {
    EXPECT_EQ(res.trajectory[i].iteration, i);
    EXPECT_TRUE(res.trajectory[i].metrics.count("transmission"));
  }
}

TEST(run, rejects_bad_arguments) {
  auto& p = bend_problem();
  run_options ro;
  ro.iterations = 0;
  EXPECT_THROW(run_inverse_design(p, concentrated_init(p), ro), bad_argument);
  ro.iterations = 2;
  EXPECT_THROW(run_inverse_design(p, dvec(3, 0.0), ro), bad_argument);
}

// ----------------------------------------------------- wavelength sweep ----

TEST(spectrum, center_wavelength_matches_direct_evaluation) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);

  const auto spectrum = wavelength_sweep(p, mask, dvec{1.55});
  ASSERT_EQ(spectrum.size(), 1u);
  EXPECT_DOUBLE_EQ(spectrum[0].lambda_um, 1.55);

  eval_options o;
  o.fab_aware = true;
  o.hard_etch = true;
  o.dense_objectives = false;
  o.compute_gradient = false;
  const auto direct = p.evaluate_pattern(mask, nominal_corner(p), o);
  EXPECT_NEAR(spectrum[0].fom, p.fom_of(direct.metrics), 1e-10);
}

TEST(spectrum, sweep_returns_finite_values_across_band) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);

  const dvec lambdas{1.50, 1.55, 1.60};
  const auto spectrum = wavelength_sweep(p, mask, lambdas);
  ASSERT_EQ(spectrum.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(spectrum[i].lambda_um, lambdas[i]);
    EXPECT_TRUE(std::isfinite(spectrum[i].fom));
    EXPECT_GE(spectrum[i].fom, 0.0);
    EXPECT_LE(spectrum[i].fom, 1.2);
    EXPECT_TRUE(spectrum[i].metrics.count("transmission"));
  }
}

TEST(spectrum, at_wavelength_validates_input) {
  EXPECT_THROW(bend_problem().at_wavelength(0.0), bad_argument);
  EXPECT_THROW(wavelength_sweep(bend_problem(), array2d<double>(1, 1), dvec{}),
               bad_argument);
}

// ------------------------------------------------------------ relaxation ----

TEST(run, full_relaxation_start_equals_ideal_objective) {
  // At iteration 0 with relax_epochs > 0, p = 0: the blended loss must equal
  // the ideal (non-fabricated) dense objective at theta0.
  auto& p = bend_problem();
  const dvec theta0 = concentrated_init(p);

  run_options ro;
  ro.iterations = 1;
  ro.fab_aware = true;
  ro.dense_objectives = true;
  ro.relax_epochs = 10;
  ro.sampling = robust::sampling_strategy::nominal_only;
  ro.beta_start = ro.beta_end = 12.0;  // freeze the sharpness schedule
  const auto res = run_inverse_design(p, theta0, ro);

  p.parameterization().set_sharpness(12.0);
  eval_options ideal;
  ideal.fab_aware = false;
  ideal.dense_objectives = true;
  ideal.compute_gradient = false;
  const double ideal_loss = p.evaluate(theta0, nominal_corner(p), ideal).loss;
  EXPECT_NEAR(res.trajectory.front().loss, ideal_loss, 1e-9);
}

TEST(run, no_relaxation_start_equals_fab_objective) {
  auto& p = bend_problem();
  const dvec theta0 = concentrated_init(p);

  run_options ro;
  ro.iterations = 1;
  ro.fab_aware = true;
  ro.dense_objectives = true;
  ro.relax_epochs = 0;
  ro.sampling = robust::sampling_strategy::nominal_only;
  ro.beta_start = ro.beta_end = 12.0;
  const auto res = run_inverse_design(p, theta0, ro);

  p.parameterization().set_sharpness(12.0);
  eval_options fab;
  fab.fab_aware = true;
  fab.dense_objectives = true;
  fab.compute_gradient = false;
  const double fab_loss = p.evaluate(theta0, nominal_corner(p), fab).loss;
  EXPECT_NEAR(res.trajectory.front().loss, fab_loss, 1e-9);
}

TEST(run, erosion_dilation_baseline_executes) {
  auto& p = bend_problem();
  run_options ro;
  ro.iterations = 3;
  ro.fab_aware = false;
  ro.erosion_dilation = true;
  ro.dense_objectives = false;
  const auto res = run_inverse_design(p, concentrated_init(p), ro);
  ASSERT_EQ(res.trajectory.size(), 3u);
  for (const auto& rec : res.trajectory) EXPECT_TRUE(std::isfinite(rec.loss));
}

TEST(run, erosion_dilation_requires_non_fab_aware) {
  auto& p = bend_problem();
  run_options ro;
  ro.iterations = 1;
  ro.fab_aware = true;
  ro.erosion_dilation = true;
  EXPECT_THROW(run_inverse_design(p, concentrated_init(p), ro), bad_argument);
}

TEST(run, tv_regularization_increases_reported_loss) {
  auto& p = bend_problem();
  const dvec theta0 = concentrated_init(p);
  run_options base;
  base.iterations = 1;
  base.fab_aware = false;
  base.dense_objectives = false;
  base.sampling = robust::sampling_strategy::nominal_only;
  base.beta_start = base.beta_end = 12.0;
  run_options with_tv = base;
  with_tv.tv_weight = 0.01;
  const double plain = run_inverse_design(p, theta0, base).trajectory.front().loss;
  const double regularized = run_inverse_design(p, theta0, with_tv).trajectory.front().loss;
  // The arc pattern has nonzero perimeter, so the TV term must add loss.
  EXPECT_GT(regularized, plain);
}

TEST(design_problem, morphology_shift_changes_pattern_area) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = false;
  o.compute_gradient = false;
  auto corner = nominal_corner(p);
  o.morphology_shift = -1;
  const double eroded_area = total(p.evaluate(theta, corner, o).pattern);
  o.morphology_shift = 0;
  const double nominal_area = total(p.evaluate(theta, corner, o).pattern);
  o.morphology_shift = +1;
  const double dilated_area = total(p.evaluate(theta, corner, o).pattern);
  EXPECT_LT(eroded_area, nominal_area);
  EXPECT_LT(nominal_area, dilated_area);
}

TEST(design_problem, morphology_gradient_matches_fd) {
  auto& p = bend_problem();
  p.parameterization().set_sharpness(10.0);
  const dvec theta = concentrated_init(p);
  eval_options o;
  o.fab_aware = false;
  o.dense_objectives = true;
  o.compute_gradient = true;
  o.morphology_shift = -1;
  const auto corner = nominal_corner(p);
  const auto ev = p.evaluate(theta, corner, o);

  eval_options of = o;
  of.compute_gradient = false;
  const double h = 1e-4;
  std::size_t checked = 0;
  for (std::size_t k = 0; k < theta.size() && checked < 3; k += theta.size() / 4) {
    dvec tp = theta, tm = theta;
    tp[k] += h;
    tm[k] -= h;
    const double fd =
        (p.evaluate(tp, corner, of).loss - p.evaluate(tm, corner, of).loss) / (2 * h);
    if (std::abs(fd) < 1e-7) continue;
    EXPECT_NEAR(ev.grad[k], fd, 5e-3 * (std::abs(fd) + std::abs(ev.grad[k]))) << k;
    ++checked;
  }
  EXPECT_GE(checked, 1u);
}

TEST(process_window, nominal_point_matches_corner_zero) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);

  const auto window = litho_process_window(p, mask, dvec{0.0}, dvec{1.0});
  ASSERT_EQ(window.size(), 1u);

  eval_options o;
  o.fab_aware = true;
  o.hard_etch = true;
  o.dense_objectives = false;
  o.compute_gradient = false;
  const auto direct = p.evaluate_pattern(mask, nominal_corner(p), o);
  EXPECT_NEAR(window[0].fom, p.fom_of(direct.metrics), 1e-6);
}

TEST(process_window, scan_covers_the_grid) {
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);

  const dvec defocus{0.0, 0.15};
  const dvec dose{0.95, 1.0, 1.05};
  const auto window = litho_process_window(p, mask, defocus, dose);
  ASSERT_EQ(window.size(), 6u);
  for (const auto& pt : window) {
    EXPECT_TRUE(std::isfinite(pt.fom));
    EXPECT_GE(pt.fom, 0.0);
  }
  // Row-major ordering: defocus outer, dose inner.
  EXPECT_DOUBLE_EQ(window[0].defocus_um, 0.0);
  EXPECT_DOUBLE_EQ(window[0].dose, 0.95);
  EXPECT_DOUBLE_EQ(window[5].defocus_um, 0.15);
  EXPECT_DOUBLE_EQ(window[5].dose, 1.05);
}

TEST(process_window, foms_match_scan_problems_with_their_own_reference_solve) {
  // The window reuses the parent's input powers instead of re-solving the
  // reference per scan point; the reference depends on the device alone, so
  // the FoMs must equal those of independently built problems.
  auto& p = bend_problem();
  const dvec theta = concentrated_init(p);
  array2d<double> rho;
  p.parameterization().forward(theta, rho);
  const array2d<double> mask = binarize(rho);

  const dvec defocus{0.0, 0.15};
  const dvec dose{0.95, 1.05};
  const auto window = litho_process_window(p, mask, defocus, dose);
  ASSERT_EQ(window.size(), 4u);

  eval_options o;
  o.fab_aware = true;
  o.hard_etch = true;
  o.dense_objectives = false;
  o.compute_gradient = false;
  for (const auto& pt : window) {
    fab_context ctx = p.fab();
    ctx.litho = {std::make_shared<const fab::hopkins_litho>(
        ctx.litho_cfg, fab::litho_corner_params{pt.defocus_um, pt.dose},
        p.spec().design.nx + 2 * ctx.halo, p.spec().design.ny + 2 * ctx.halo)};
    ctx.space.num_litho_corners = 1;
    const design_problem scanned(p.spec(), p.shared_parameterization(), std::move(ctx));
    for (std::size_t e = 0; e < p.spec().excitations.size(); ++e)
      EXPECT_EQ(scanned.input_power(e), p.input_power(e));
    const auto ev = scanned.evaluate_pattern(mask, nominal_corner(scanned), o);
    EXPECT_EQ(pt.fom, scanned.fom_of(ev.metrics))
        << "defocus " << pt.defocus_um << " dose " << pt.dose;
  }
}

TEST(run, trajectory_can_be_disabled) {
  auto& p = bend_problem();
  run_options ro;
  ro.iterations = 2;
  ro.record_trajectory = false;
  ro.sampling = robust::sampling_strategy::nominal_only;
  const auto res = run_inverse_design(p, concentrated_init(p), ro);
  EXPECT_TRUE(res.trajectory.empty());
  EXPECT_TRUE(std::isfinite(res.final_loss));
}

// -------------------------------------------------------------- methods ----

TEST(methods, names_are_unique_and_match_paper) {
  // The presets are one name-keyed table in the paper's table order.
  std::vector<std::string> names;
  for (const method_preset& p : method_presets()) names.push_back(p.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "density", "density_m", "ls", "ls_m", "invfabcor_1", "invfabcor_3",
                       "invfabcor_m_1", "invfabcor_m_3", "invfabcor_m_3_eff", "ls_ed",
                       "boson", "boson_no_reshape", "boson_no_relax", "boson_exhaustive",
                       "boson_random_init"}));
  // Each is published under its own name.
  for (const method_preset& p : method_presets()) EXPECT_EQ(preset(p.name), p.recipe) << p.name;
}

TEST(methods, relative_improvement_orientation) {
  // Higher-better: ours 0.9 vs baseline 0.45 -> 50% of our FoM.
  EXPECT_NEAR(relative_improvement(0.45, 0.9, false), 0.5, 1e-12);
  // Lower-better: baseline 0.5 vs ours 0.005 -> 99%.
  EXPECT_NEAR(relative_improvement(0.5, 0.005, true), 0.99, 1e-12);
  EXPECT_DOUBLE_EQ(relative_improvement(0.0, 0.0, true), 0.0);
}

TEST(methods, binarize_thresholds_correctly) {
  array2d<double> rho(2, 2);
  rho(0, 0) = 0.2;
  rho(0, 1) = 0.8;
  rho(1, 0) = 0.5;
  rho(1, 1) = 0.51;
  const auto b = binarize(rho);
  EXPECT_EQ(b(0, 0), 0.0);
  EXPECT_EQ(b(0, 1), 1.0);
  EXPECT_EQ(b(1, 0), 0.0);
  EXPECT_EQ(b(1, 1), 1.0);
}

TEST(methods, end_to_end_density_baseline_runs) {
  const auto cfg = test_config();
  const auto res = run_method(dev::make_bend(0.1), preset("density"), cfg);
  EXPECT_EQ(res.method, "Density");
  EXPECT_TRUE(res.prefab.count("transmission"));
  EXPECT_EQ(res.postfab.samples, cfg.mc_samples);
  EXPECT_GT(res.prefab_fom, 0.0);
}

TEST(methods, end_to_end_boson_runs_and_reports) {
  const auto cfg = test_config();
  const auto res = run_method(dev::make_bend(0.1), preset("boson"), cfg);
  EXPECT_EQ(res.method, "BOSON-1");
  EXPECT_EQ(res.run.trajectory.size(), cfg.iterations);
  EXPECT_GT(res.postfab.fom_mean, 0.0);
  // The fabricated mask is binary.
  for (const double v : res.mask) EXPECT_TRUE(v == 0.0 || v == 1.0);
}

TEST(methods, end_to_end_invfabcor_produces_corrected_mask) {
  const auto res = run_method(dev::make_bend(0.1), preset("invfabcor_m_1"), test_config());
  EXPECT_EQ(res.method, "InvFabCor-M-1");
  EXPECT_EQ(res.mask.nx(), res.run.design_rho.nx());
}

// -------------------------------------------------------------- recipes ----

/// The legacy (pre-recipe) per-method ingredient table, hand-copied from the
/// enum-era dispatch and keyed by preset name. The presets must keep
/// resolving to exactly these `run_options` — since `run_inverse_design` is a
/// pure function of (problem, theta0, options), equal options +
/// parameterization + init keep every preset's results unchanged.
struct legacy_expectation {
  const char* name;
  const char* parameterization;
  bool density_blur_mfs;
  bool mfs_blur;
  bool fab_aware;
  bool dense;
  bool relax;  ///< true: cfg.relax_epochs, false: 0
  robust::sampling_strategy sampling;
  bool random_initialization;
  bool erosion_dilation;
  bool beta_ramp;
  std::size_t correction_corners;
  const char* objective_override;
};

TEST(recipe, presets_resolve_to_the_legacy_run_options) {
  using st = robust::sampling_strategy;
  const std::vector<legacy_expectation> table = {
      {"density", "density", false, false, false, false, false,
       st::nominal_only, false, false, false, 0, ""},
      {"density_m", "density", true, false, false, false, false,
       st::nominal_only, false, false, false, 0, ""},
      {"ls", "levelset", false, false, false, false, false,
       st::nominal_only, false, false, true, 0, ""},
      {"ls_m", "levelset", false, true, false, false, false,
       st::nominal_only, false, false, true, 0, ""},
      {"invfabcor_1", "levelset", false, false, false, false, false,
       st::nominal_only, false, false, true, 1, ""},
      {"invfabcor_3", "levelset", false, false, false, false, false,
       st::nominal_only, false, false, true, 3, ""},
      {"invfabcor_m_1", "levelset", false, true, false, false, false,
       st::nominal_only, false, false, true, 1, ""},
      {"invfabcor_m_3", "levelset", false, true, false, false, false,
       st::nominal_only, false, false, true, 3, ""},
      {"invfabcor_m_3_eff", "levelset", false, true, false, false, false,
       st::nominal_only, false, false, true, 3, "fwd_transmission"},
      {"ls_ed", "levelset", false, true, false, false, false,
       st::nominal_only, false, true, true, 0, ""},
      {"boson", "levelset", false, false, true, true, true,
       st::axial_plus_worst, false, false, true, 0, ""},
      {"boson_no_reshape", "levelset", false, false, true, false, true,
       st::axial_plus_worst, false, false, true, 0, ""},
      {"boson_no_relax", "levelset", false, false, true, true, false,
       st::axial_plus_worst, false, false, true, 0, ""},
      {"boson_exhaustive", "levelset", false, false, true, true, true,
       st::exhaustive, false, false, true, 0, ""},
      {"boson_random_init", "levelset", false, false, true, true, true,
       st::axial_plus_worst, true, false, true, 0, ""},
  };
  ASSERT_EQ(table.size(), method_presets().size());

  experiment_config cfg = test_config();
  cfg.relax_epochs = 3;
  for (const legacy_expectation& e : table) {
    const method_recipe recipe = preset(e.name);
    const std::string label = recipe.label;
    EXPECT_NO_THROW(validate_recipe(recipe)) << label;
    EXPECT_EQ(recipe.parameterization, e.parameterization) << label;
    EXPECT_EQ(recipe.density_blur_mfs, e.density_blur_mfs) << label;
    EXPECT_EQ(recipe.initialization, e.random_initialization ? "random" : "default")
        << label;
    EXPECT_EQ(mask_correction_corners(recipe.mask_correction), e.correction_corners)
        << label;

    const run_options ro = resolved_run_options(recipe, cfg);
    EXPECT_EQ(ro.iterations, cfg.iterations) << label;
    EXPECT_DOUBLE_EQ(ro.learning_rate, cfg.learning_rate) << label;
    EXPECT_EQ(ro.fab_aware, e.fab_aware) << label;
    EXPECT_EQ(ro.dense_objectives, e.dense) << label;
    EXPECT_EQ(ro.use_mfs_blur, e.mfs_blur) << label;
    EXPECT_EQ(ro.relax_epochs, e.relax ? cfg.relax_epochs : 0u) << label;
    EXPECT_EQ(ro.sampling, e.sampling) << label;
    EXPECT_EQ(ro.erosion_dilation, e.erosion_dilation) << label;
    EXPECT_DOUBLE_EQ(ro.beta_start, 8.0) << label;
    EXPECT_DOUBLE_EQ(ro.beta_end, e.beta_ramp ? 40.0 : 8.0) << label;
    EXPECT_EQ(ro.objective_override, e.objective_override) << label;
    EXPECT_EQ(ro.seed, cfg.seed) << label;
  }
}

TEST(recipe, preset_labels_are_the_paper_names_and_unique) {
  std::set<std::string> labels;
  for (const method_preset& p : method_presets()) labels.insert(p.recipe.label);
  EXPECT_EQ(labels.size(), 15u);
  EXPECT_EQ(preset("boson").label, "BOSON-1");
  EXPECT_EQ(preset("invfabcor_m_3").label, "InvFabCor-M-3");
}

TEST(recipe, policy_lookup_suggests_the_closest_key) {
  method_recipe recipe;
  recipe.corners = "adaptve";
  try {
    validate_recipe(recipe);
    FAIL() << "expected bad_argument";
  } catch (const bad_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown corners policy 'adaptve'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("did you mean 'adaptive'?"), std::string::npos)
        << e.what();
  }
}

/// The keys a family accepts, read off its unknown-key error ("... (known:
/// a, b)"), so a key added without a row in the table below fails the test.
std::string known_keys(void (*set)(method_recipe&, const char*)) {
  method_recipe recipe;
  set(recipe, "?");
  try {
    validate_recipe(recipe);
  } catch (const bad_argument& e) {
    const std::string what = e.what();
    const std::size_t open = what.find("(known: ");
    if (open != std::string::npos) return what.substr(open + 8, what.size() - open - 9);
  }
  return "<no unknown-key error>";
}

TEST(recipe, every_policy_key_resolves_to_its_documented_setting) {
  // docs/METHODS.md "Policy keys", one row per key of every family (keys
  // sorted as the unknown-key error lists them).
  using st = robust::sampling_strategy;
  experiment_config cfg = test_config();
  cfg.relax_epochs = 3;
  const auto run_with = [&](void (*set)(method_recipe&, const char*), const char* key) {
    method_recipe recipe;
    set(recipe, key);
    return resolved_run_options(recipe, cfg);
  };

  struct corners_row {
    const char* key;
    bool fab_aware;
    st sampling;
    bool erosion_dilation;
  };
  const auto corners = [](method_recipe& r, const char* k) { r.corners = k; };
  std::string keys;
  for (const corners_row& row : std::vector<corners_row>{
           {"adaptive", true, st::axial_plus_worst, false},
           {"axial_plus_random", true, st::axial_plus_random, false},
           {"erosion_dilation", false, st::nominal_only, true},
           {"exhaustive", true, st::exhaustive, false},
           {"fixed_axial", true, st::axial_single, false},
           {"fixed_axial_double", true, st::axial_double, false},
           {"nominal", true, st::nominal_only, false},
           {"none", false, st::nominal_only, false}}) {
    const run_options ro = run_with(corners, row.key);
    EXPECT_EQ(ro.fab_aware, row.fab_aware) << row.key;
    EXPECT_EQ(ro.sampling, row.sampling) << row.key;
    EXPECT_EQ(ro.erosion_dilation, row.erosion_dilation) << row.key;
    keys += (keys.empty() ? "" : ", ") + std::string(row.key);
  }
  EXPECT_EQ(known_keys(corners), keys);

  const auto relaxation = [](method_recipe& r, const char* k) { r.relaxation = k; };
  EXPECT_EQ(run_with(relaxation, "linear").relax_epochs, 3u);
  EXPECT_EQ(run_with(relaxation, "none").relax_epochs, 0u);
  EXPECT_EQ(known_keys(relaxation), "linear, none");

  const auto reshaping = [](method_recipe& r, const char* k) { r.reshaping = k; };
  EXPECT_TRUE(run_with(reshaping, "dense").dense_objectives);
  EXPECT_FALSE(run_with(reshaping, "none").dense_objectives);
  EXPECT_EQ(known_keys(reshaping), "dense, none");

  const auto beta = [](method_recipe& r, const char* k) { r.beta_schedule = k; };
  EXPECT_DOUBLE_EQ(run_with(beta, "fixed").beta_end, 8.0);
  EXPECT_DOUBLE_EQ(run_with(beta, "ramp").beta_end, 40.0);
  EXPECT_EQ(known_keys(beta), "fixed, ramp");

  const auto correction = [](method_recipe& r, const char* k) { r.mask_correction = k; };
  EXPECT_EQ(mask_correction_corners("all_corners"), 3u);
  EXPECT_EQ(mask_correction_corners("nominal"), 1u);
  EXPECT_EQ(mask_correction_corners("none"), 0u);
  EXPECT_EQ(known_keys(correction), "all_corners, nominal, none");

  const auto parameterization = [](method_recipe& r, const char* k) {
    r.parameterization = k;
  };
  const design_problem& density_problem = bend_density_problem();
  EXPECT_NE(dynamic_cast<const param::density_param*>(&density_problem.parameterization()),
            nullptr);
  EXPECT_NE(dynamic_cast<const param::levelset_param*>(&bend_problem().parameterization()),
            nullptr);
  EXPECT_EQ(known_keys(parameterization), "density, levelset");

  const auto init = [](method_recipe& r, const char* k) { r.initialization = k; };
  const design_problem& levelset_problem = bend_problem();
  const auto start = [&](const design_problem& problem, method_recipe recipe,
                         const char* key) {
    recipe.initialization = key;
    return initial_theta(problem, recipe, 11);
  };
  EXPECT_EQ(start(levelset_problem, {}, "concentrated"), concentrated_init(levelset_problem));
  EXPECT_EQ(start(levelset_problem, {}, "default"), concentrated_init(levelset_problem));
  EXPECT_EQ(start(density_problem, density_recipe(), "default"), gray_init(density_problem));
  EXPECT_EQ(start(levelset_problem, {}, "gray"), gray_init(levelset_problem));
  EXPECT_EQ(start(levelset_problem, {}, "random"), random_init(levelset_problem, 11));
  EXPECT_EQ(known_keys(init), "concentrated, default, gray, random");
}

TEST(recipe, validate_rejects_inconsistent_compositions) {
  const auto expect_fail = [](void (*mutate)(method_recipe&), const std::string& fragment) {
    method_recipe recipe;
    mutate(recipe);
    try {
      validate_recipe(recipe);
      FAIL() << "expected bad_argument containing \"" << fragment << "\"";
    } catch (const bad_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  expect_fail([](method_recipe& r) { r.density_blur_mfs = true; },
              "only applies to the density parameterization");
  expect_fail(
      [](method_recipe& r) {
        r.parameterization = "density";
        r.density_blur_mfs = true;
        r.density_blur_cells = 2.0;
      },
      "not both");
  expect_fail([](method_recipe& r) { r.beta_start = 0.0; }, "'beta_start'");
  expect_fail([](method_recipe& r) { r.label.clear(); }, "'label'");
  expect_fail([](method_recipe& r) { r.tv_weight = -1.0; }, "'tv_weight'");
}

TEST(recipe, signature_is_compact_provenance) {
  EXPECT_EQ(preset("boson").signature(),
            "levelset|corners:adaptive|relax:linear|reshape:dense|init:default");
  EXPECT_EQ(preset("invfabcor_m_3_eff").signature(),
            "levelset+M|corners:none|relax:none|reshape:none|init:default"
            "|corr:all_corners|objective:fwd_transmission");
}

TEST(recipe, signature_separates_recipes_that_run_differently) {
  // The provenance key must not collide for behaviorally distinct recipes:
  // every numeric field that changes the run lands in the signature.
  method_recipe a = preset("boson");
  method_recipe b = a;
  b.tv_weight = 0.01;
  EXPECT_NE(a.signature(), b.signature());
  method_recipe c = a;
  c.beta_end = 60.0;
  EXPECT_NE(a.signature(), c.signature());
  method_recipe d = preset("density_m");  // auto-MFS blur
  method_recipe e = d;
  e.density_blur_mfs = false;
  e.density_blur_cells = 1.5;  // fixed radius is not "+mfs"
  EXPECT_NE(d.signature(), e.signature());
  method_recipe f = a;
  f.iterations = 200;
  f.learning_rate = 0.1;
  EXPECT_NE(a.signature(), f.signature());
}

}  // namespace
}  // namespace boson::core
