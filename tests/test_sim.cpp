// Tests for the simulation-engine layer: direct/nearby engine agreement,
// batched multi-RHS solves, the nearby engine's counted fallback, and the
// Monte-Carlo protocol's nominal preconditioner and determinism under varying
// BOSON_THREADS.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>

#include "common/rng.h"
#include "core/evaluate.h"
#include "core/methods.h"
#include "devices/builders.h"
#include "fab/temperature.h"
#include "fdfd/source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/sampler.h"
#include "sim/engine.h"
#include "sparse/multifrontal.h"

namespace boson {
namespace {

constexpr double k0_default = 2.0 * pi / 1.55;

/// Straight silicon waveguide through a small PML-bounded domain — the
/// Helmholtz system the direct and nearby engines must agree on.
struct waveguide_fixture {
  grid2d g;
  pml_spec pml;
  array2d<double> eps;

  explicit waveguide_fixture(std::size_t nx = 40, std::size_t ny = 30, double d = 0.05) {
    g.nx = nx;
    g.ny = ny;
    g.dx = g.dy = d;
    pml.cells = 8;
    eps = array2d<double>(nx, ny, 1.0);
    const double eps_si = fab::eps_si(300.0);
    for (std::size_t ix = 0; ix < nx; ++ix)
      for (std::size_t iy = ny / 2 - 4; iy < ny / 2 + 4; ++iy) eps(ix, iy) = eps_si;
  }

  array2d<cplx> point_source(std::size_t ix, std::size_t iy) const {
    array2d<cplx> current(g.nx, g.ny, cplx{});
    current(ix, iy) = cplx{1.0};
    return current;
  }
};

double max_abs(const array2d<cplx>& f) {
  double m = 0.0;
  for (const auto& v : f) m = std::max(m, std::abs(v));
  return m;
}

double max_diff(const array2d<cplx>& a, const array2d<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.raw()[i] - b.raw()[i]));
  return m;
}

/// One excitation as a one-RHS batch.
array2d<cplx> solve_one(const sim::simulation_engine& engine, const array2d<cplx>& current) {
  return std::move(engine.solve_excitations({current}).front());
}

// --------------------------------------------------------------- engine ----

TEST(engine, all_backends_agree_on_pml_helmholtz_system) {
  // A direct engine and a nearby engine (serving the nominal operator itself)
  // solve one PML Helmholtz system; test_fdfd checks the nested-dissection
  // factorization against the banded-LU oracle.
  const waveguide_fixture f;
  const auto current = f.point_source(14, f.g.ny / 2);

  const auto direct =
      std::make_shared<const sim::simulation_engine>(f.g, f.pml, k0_default, f.eps);
  const auto reference = solve_one(*direct, current);
  const double scale = max_abs(reference);
  ASSERT_GT(scale, 0.0);

  const sim::simulation_engine nearby(direct, f.eps);
  EXPECT_LT(max_diff(solve_one(nearby, current), reference), 1e-8 * scale);
}

TEST(engine, batched_excitations_match_individual_solves) {
  const waveguide_fixture f;
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps);
  const std::vector<array2d<cplx>> currents{f.point_source(12, f.g.ny / 2),
                                            f.point_source(20, f.g.ny / 2 + 2),
                                            f.point_source(27, f.g.ny / 2 - 3)};
  const auto batched = engine.solve_excitations(currents);
  ASSERT_EQ(batched.size(), currents.size());
  for (std::size_t k = 0; k < currents.size(); ++k) {
    const auto single = solve_one(engine, currents[k]);
    EXPECT_LT(max_diff(batched[k], single), 1e-10 * (1.0 + max_abs(single)))
        << "excitation " << k;
  }
}

TEST(engine, batched_adjoints_match_fdfd_solver) {
  const waveguide_fixture f;
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps);
  const std::vector<fdfd::field_gradient> gradients{
      {{200, cplx{1.0, 0.5}}},
      {{310, cplx{-0.25, 0.0}}, {311, cplx{0.0, 1.0}}},
  };
  const auto lambdas = engine.solve_adjoints(gradients);
  ASSERT_EQ(lambdas.size(), gradients.size());
  const fdfd::fdfd_solver plain(f.g, f.pml, k0_default, f.eps);
  const sp::grid_ldlt lu(f.g.nx, f.g.ny, plain.assemble_csr());
  for (std::size_t k = 0; k < gradients.size(); ++k) {
    cvec b;
    plain.build_adjoint_rhs(gradients[k], b);
    array2d<cplx> reference(f.g.nx, f.g.ny);
    reference.raw() = lu.solve(b);
    EXPECT_LT(max_diff(lambdas[k], reference), 1e-10 * (1.0 + max_abs(reference)))
        << "adjoint " << k;
  }
}

// ---------------------------------------------------- nearby-operator reuse ----

std::uint64_t counter_total(const char* name) {
  return obs::registry::global().counter_total(name);
}

TEST(reuse, nearby_engine_agrees_with_full_reprepare_across_perturbations) {
  const waveguide_fixture f;
  const auto nominal =
      std::make_shared<const sim::simulation_engine>(f.g, f.pml, k0_default, f.eps);
  const auto current = f.point_source(14, f.g.ny / 2);
  const double eps_si = fab::eps_si(300.0);

  // Perturbation matrix: a wide-support temperature-like shift, a handful of
  // full-contrast cell flips, and both at once.
  std::vector<array2d<double>> corners;
  {
    array2d<double> thermal = f.eps;
    for (auto& v : thermal)
      if (v > 2.0) v += 0.02;
    corners.push_back(thermal);

    array2d<double> flips = f.eps;
    flips(10, f.g.ny / 2 - 6) = eps_si;
    flips(22, f.g.ny / 2 + 6) = eps_si;
    flips(30, f.g.ny / 2) = 1.0;
    corners.push_back(flips);

    array2d<double> both = thermal;
    both(18, f.g.ny / 2 - 6) = eps_si;
    both(25, f.g.ny / 2 + 7) = eps_si;
    corners.push_back(both);
  }

  const std::uint64_t iterations_before = counter_total("sim.reuse.refinement_iterations");
  const std::uint64_t fallbacks_before = counter_total("sim.reuse.fallbacks");
  for (std::size_t k = 0; k < corners.size(); ++k) {
    const sim::simulation_engine reused(nominal, corners[k]);
    const sim::simulation_engine fresh(f.g, f.pml, k0_default, corners[k]);
    const auto a = solve_one(reused, current);
    const auto b = solve_one(fresh, current);
    const double scale = max_abs(b);
    ASSERT_GT(scale, 0.0);
    EXPECT_LT(max_diff(a, b), 1e-6 * scale) << "corner " << k;
  }
  EXPECT_GE(counter_total("sim.reuse.refinement_iterations") - iterations_before,
            corners.size());
  EXPECT_EQ(counter_total("sim.reuse.fallbacks") - fallbacks_before, 0u)
      << "every corner must be served by the nominal factorization";
}

TEST(reuse, large_perturbation_triggers_counted_fallback_and_still_agrees) {
  const waveguide_fixture f;
  const auto nominal =
      std::make_shared<const sim::simulation_engine>(f.g, f.pml, k0_default, f.eps);

  // A distant operator: the nominal factor no longer clusters the spectrum
  // enough for the outer loop's iteration cap.
  array2d<double> eps2 = f.eps;
  for (auto& v : eps2) v += 6.0;

  const std::uint64_t fallbacks_before = counter_total("sim.reuse.fallbacks");
  const sim::simulation_engine reused(nominal, eps2);
  const auto current = f.point_source(14, f.g.ny / 2);
  const auto a = solve_one(reused, current);
  EXPECT_GE(counter_total("sim.reuse.fallbacks") - fallbacks_before, 1u);

  const sim::simulation_engine fresh(f.g, f.pml, k0_default, eps2);
  const auto b = solve_one(fresh, current);
  EXPECT_EQ(max_diff(a, b), 0.0) << "the fallback path is a full re-prepare and must match it";
}

TEST(reuse, nearby_engine_requires_a_direct_nominal) {
  const waveguide_fixture f;
  const auto nominal =
      std::make_shared<const sim::simulation_engine>(f.g, f.pml, k0_default, f.eps);
  const auto nearby = std::make_shared<const sim::simulation_engine>(nominal, f.eps);
  EXPECT_THROW(sim::simulation_engine(nearby, f.eps), bad_argument);
}

// ---------------------------------------------------- end-to-end protocol ----

/// Coarse, fast configuration (mirrors the core test suite).
core::experiment_config fast_config() {
  core::experiment_config cfg;
  cfg.resolution = 0.1;
  cfg.litho.na = 0.65;
  cfg.litho.sigma = 0.35;
  cfg.litho.kernel_half = 5;
  cfg.litho.max_kernels = 5;
  cfg.eole.anchors_x = 4;
  cfg.eole.anchors_y = 4;
  cfg.eole.num_terms = 5;
  return cfg;
}

TEST(integration, postfab_monte_carlo_is_deterministic_across_thread_counts) {
  const core::design_problem problem =
      core::make_problem(dev::make_bend(0.1), core::method_recipe{}, fast_config());
  array2d<double> mask(problem.spec().design.nx, problem.spec().design.ny, 0.0);
  for (std::size_t i = 0; i < mask.nx(); ++i)
    for (std::size_t j = mask.ny() / 3; j < 2 * mask.ny() / 3; ++j) mask(i, j) = 1.0;

  ASSERT_EQ(setenv("BOSON_THREADS", "1", 1), 0);
  const core::mc_stats serial = core::postfab_monte_carlo(problem, mask, 6, 99);
  for (const char* threads : {"2", "4"}) {
    ASSERT_EQ(setenv("BOSON_THREADS", threads, 1), 0);
    const core::mc_stats threaded = core::postfab_monte_carlo(problem, mask, 6, 99);
    EXPECT_DOUBLE_EQ(serial.fom_mean, threaded.fom_mean) << threads;
    EXPECT_DOUBLE_EQ(serial.fom_std, threaded.fom_std) << threads;
    EXPECT_DOUBLE_EQ(serial.fom_min, threaded.fom_min) << threads;
    EXPECT_DOUBLE_EQ(serial.fom_max, threaded.fom_max) << threads;
    ASSERT_EQ(serial.metric_means.size(), threaded.metric_means.size());
    for (const auto& [name, value] : serial.metric_means)
      EXPECT_DOUBLE_EQ(value, threaded.metric_means.at(name)) << name << " " << threads;
  }
  unsetenv("BOSON_THREADS");
}

TEST(reuse, monte_carlo_preconditions_samples_with_one_nominal_factorization) {
  const core::design_problem problem =
      core::make_problem(dev::make_bend(0.1), core::method_recipe{}, fast_config());
  array2d<double> mask(problem.spec().design.nx, problem.spec().design.ny, 0.0);
  for (std::size_t i = 0; i < mask.nx(); ++i)
    for (std::size_t j = mask.ny() / 3; j < 2 * mask.ny() / 3; ++j) mask(i, j) = 1.0;
  constexpr std::size_t samples = 5;
  constexpr std::uint64_t seed = 17;

  obs::trace_collector collector;
  obs::set_global_trace(&collector);
  const std::uint64_t fallbacks_before = counter_total("sim.reuse.fallbacks");
  const core::mc_stats mc = core::postfab_monte_carlo(problem, mask, samples, seed);
  obs::set_global_trace(nullptr);
  std::size_t factorizations = 0;
  std::size_t nearby = 0;
  for (const auto& e : collector.events()) {
    factorizations += e.name == "sim.factorize";
    for (const auto& [key, value] : e.args)
      nearby += e.name == "sim.solve" && key == "backend" && value == "nearby";
  }
  EXPECT_EQ(nearby, samples) << "every sample solves through the nominal factorization";
  EXPECT_EQ(factorizations, 1 + counter_total("sim.reuse.fallbacks") - fallbacks_before);

  // The samples agree with fully factored evaluations of the same draws.
  const rng base(seed);
  double fom_sum = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    rng r = base.fork(s);
    const robust::variation_corner corner =
        robust::random_corner(r, problem.fab().space, "mc" + std::to_string(s));
    core::eval_options o;
    o.hard_etch = true;
    o.dense_objectives = false;
    o.compute_gradient = false;
    fom_sum += problem.fom_of(problem.evaluate_pattern(mask, corner, o).metrics);
  }
  EXPECT_NEAR(mc.fom_mean, fom_sum / samples, 1e-8);
}

TEST(integration, evaluate_agrees_across_backends) {
  // A warm corner evaluated through its own factorization (direct engine)
  // and through the nominal corner's factorization (nearby engine).
  const core::design_problem problem =
      core::make_problem(dev::make_bend(0.1), core::method_recipe{}, fast_config());
  array2d<double> mask(problem.spec().design.nx, problem.spec().design.ny, 0.0);
  for (std::size_t i = 0; i < mask.nx(); ++i)
    for (std::size_t j = mask.ny() / 3; j < 2 * mask.ny() / 3; ++j) mask(i, j) = 1.0;
  robust::variation_corner nominal;
  nominal.xi.assign(problem.fab().space.eole_terms, 0.0);
  robust::variation_corner warm = nominal;
  warm.temperature = 320.0;
  warm.name = "warm";

  core::eval_options o;
  o.hard_etch = true;
  o.dense_objectives = false;
  o.compute_gradient = false;
  const auto direct = problem.evaluate_pattern(mask, warm, o);
  o.nominal_engine = problem.prepare_engine(mask, nominal, o);
  const auto nearby = problem.evaluate_pattern(mask, warm, o);

  EXPECT_NEAR(nearby.loss, direct.loss, 1e-8 * (1.0 + std::abs(direct.loss)));
  ASSERT_EQ(nearby.metrics.size(), direct.metrics.size());
  for (const auto& [name, value] : direct.metrics)
    EXPECT_NEAR(nearby.metrics.at(name), value, 1e-8 * (1.0 + std::abs(value))) << name;
}

}  // namespace
}  // namespace boson
