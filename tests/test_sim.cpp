// Tests for the simulation-engine layer: backend selection and agreement,
// batched multi-RHS solves, nearby-operator engines, per-thread workspace
// reuse, and the Monte-Carlo protocol's nominal preconditioner and
// determinism under varying BOSON_THREADS.

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
#include "sim/backend.h"
#include "sim/engine.h"
#include "sim/workspace.h"

namespace boson {
namespace {

constexpr double k0_default = 2.0 * pi / 1.55;

/// Straight silicon waveguide through a small PML-bounded domain — the
/// Helmholtz system every backend must agree on.
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

sim::engine_settings settings_for(sim::backend_kind kind) {
  sim::engine_settings s;
  s.backend = kind;
  return s;
}

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

// -------------------------------------------------------------- backend ----

TEST(backend, names_round_trip_and_aliases_parse) {
  EXPECT_EQ(sim::backend_from_string("banded"), sim::backend_kind::banded);
  EXPECT_EQ(sim::backend_from_string("direct"), sim::backend_kind::banded);
  EXPECT_EQ(sim::backend_from_string("LU"), sim::backend_kind::banded);
  EXPECT_EQ(sim::backend_from_string("BiCGSTAB"), sim::backend_kind::bicgstab);
  EXPECT_EQ(sim::backend_from_string("gmres"), sim::backend_kind::gmres);
  EXPECT_THROW(sim::backend_from_string("sparta"), bad_argument);
  for (const auto kind : {sim::backend_kind::banded, sim::backend_kind::bicgstab,
                          sim::backend_kind::gmres})
    EXPECT_EQ(sim::backend_from_string(sim::to_string(kind)), kind);
}

TEST(backend, boson_backend_env_selects_default) {
  unsetenv("BOSON_BACKEND");
  EXPECT_EQ(sim::default_backend(), sim::backend_kind::banded);
  ASSERT_EQ(setenv("BOSON_BACKEND", "gmres", 1), 0);
  EXPECT_EQ(sim::default_backend(), sim::backend_kind::gmres);
  EXPECT_EQ(sim::engine_settings{}.backend, sim::backend_kind::gmres);
  ASSERT_EQ(setenv("BOSON_BACKEND", "bicgstab", 1), 0);
  EXPECT_EQ(sim::default_backend(), sim::backend_kind::bicgstab);
  unsetenv("BOSON_BACKEND");
  EXPECT_EQ(sim::default_backend(), sim::backend_kind::banded);
}

// --------------------------------------------------------------- engine ----

TEST(engine, all_backends_agree_on_pml_helmholtz_system) {
  const waveguide_fixture f;
  const auto current = f.point_source(14, f.g.ny / 2);

  const sim::simulation_engine direct(f.g, f.pml, k0_default, f.eps,
                                      settings_for(sim::backend_kind::banded));
  const auto reference = direct.solve_excitation(current);
  const double scale = max_abs(reference);
  ASSERT_GT(scale, 0.0);

  for (const auto kind : {sim::backend_kind::bicgstab, sim::backend_kind::gmres}) {
    const sim::simulation_engine iterative(f.g, f.pml, k0_default, f.eps,
                                           settings_for(kind));
    const auto field = iterative.solve_excitation(current);
    EXPECT_LT(max_diff(field, reference), 1e-6 * scale)
        << "backend " << sim::to_string(kind);
  }
}

TEST(engine, batched_excitations_match_individual_solves) {
  const waveguide_fixture f;
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps,
                                      settings_for(sim::backend_kind::banded));
  const std::vector<array2d<cplx>> currents{f.point_source(12, f.g.ny / 2),
                                            f.point_source(20, f.g.ny / 2 + 2),
                                            f.point_source(27, f.g.ny / 2 - 3)};
  const auto batched = engine.solve_excitations(currents);
  ASSERT_EQ(batched.size(), currents.size());
  for (std::size_t k = 0; k < currents.size(); ++k) {
    const auto single = engine.solve_excitation(currents[k]);
    EXPECT_LT(max_diff(batched[k], single), 1e-10 * (1.0 + max_abs(single)))
        << "excitation " << k;
  }
}

TEST(engine, batched_adjoints_match_fdfd_solver) {
  const waveguide_fixture f;
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps,
                                      settings_for(sim::backend_kind::banded));
  const std::vector<fdfd::field_gradient> gradients{
      {{200, cplx{1.0, 0.5}}},
      {{310, cplx{-0.25, 0.0}}, {311, cplx{0.0, 1.0}}},
  };
  const auto lambdas = engine.solve_adjoints(gradients);
  ASSERT_EQ(lambdas.size(), gradients.size());
  fdfd::fdfd_solver plain(f.g, f.pml, k0_default, f.eps);
  for (std::size_t k = 0; k < gradients.size(); ++k) {
    const auto reference = plain.solve_adjoint(gradients[k]);
    EXPECT_LT(max_diff(lambdas[k], reference), 1e-10 * (1.0 + max_abs(reference)))
        << "adjoint " << k;
  }
}

TEST(engine, iterative_backend_reports_nonconvergence) {
  const waveguide_fixture f;
  sim::engine_settings s = settings_for(sim::backend_kind::bicgstab);
  s.tol = 1e-14;
  s.max_iterations = 1;
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps, s);
  EXPECT_THROW((void)engine.solve_excitation(f.point_source(14, f.g.ny / 2)),
               numeric_error);
}

// ---------------------------------------------------- nearby-operator reuse ----

std::uint64_t counter_total(const char* name) {
  return obs::registry::global().counter_total(name);
}

TEST(reuse, nearby_engine_agrees_with_full_reprepare_across_perturbations) {
  const waveguide_fixture f;
  const auto s = settings_for(sim::backend_kind::banded);
  const auto nominal = std::make_shared<const sim::simulation_engine>(
      f.g, f.pml, k0_default, f.eps, s);
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
    EXPECT_STREQ(reused.backend_name(), "banded-reuse");
    const sim::simulation_engine fresh(f.g, f.pml, k0_default, corners[k], s);
    const auto a = reused.solve_excitation(current);
    const auto b = fresh.solve_excitation(current);
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
  const auto s = settings_for(sim::backend_kind::banded);
  const auto nominal = std::make_shared<const sim::simulation_engine>(
      f.g, f.pml, k0_default, f.eps, s);

  // A distant operator: the nominal LU no longer clusters the spectrum
  // enough for the outer loop's iteration cap.
  array2d<double> eps2 = f.eps;
  for (auto& v : eps2) v += 6.0;

  const std::uint64_t fallbacks_before = counter_total("sim.reuse.fallbacks");
  const sim::simulation_engine reused(nominal, eps2);
  const auto current = f.point_source(14, f.g.ny / 2);
  const auto a = reused.solve_excitation(current);
  EXPECT_GE(counter_total("sim.reuse.fallbacks") - fallbacks_before, 1u);

  const sim::simulation_engine fresh(f.g, f.pml, k0_default, eps2, s);
  const auto b = fresh.solve_excitation(current);
  EXPECT_EQ(max_diff(a, b), 0.0) << "the fallback path is a full re-prepare and must match it";
}

// ------------------------------------------------------------ workspace ----

TEST(workspace, recycles_buffers_through_the_pool) {
  auto& ws = sim::workspace::local();

  cvec a = ws.take_cvec(128);
  const cplx* ptr = a.data();
  ws.give_cvec(std::move(a));
  cvec b = ws.take_cvec(100);  // smaller request reuses the same allocation
  EXPECT_EQ(b.data(), ptr);
  ws.give_cvec(std::move(b));

  array2d<double> g = ws.take_dgrid(8, 9);
  const double* gp = g.data();
  ws.give_dgrid(std::move(g));
  array2d<double> g2 = ws.take_dgrid(8, 9);
  EXPECT_EQ(g2.data(), gp);
  array2d<double> g3 = ws.take_dgrid(4, 4);  // different shape: fresh buffer
  EXPECT_EQ(g3.size(), 16u);
  ws.give_dgrid(std::move(g2));
  ws.give_dgrid(std::move(g3));

  array2d<cplx> c = ws.take_cgrid(5, 5);
  for (auto& v : c) v = cplx{1.0};
  ws.give_cgrid(std::move(c));
  array2d<cplx> c2 = ws.take_cgrid(5, 5);
  for (const auto& v : c2) EXPECT_EQ(v, cplx{}) << "complex grids are cleared on take";
  ws.give_cgrid(std::move(c2));
}

TEST(workspace, pools_are_capped) {
  auto& ws = sim::workspace::local();
  for (std::size_t k = 0; k < 3 * sim::workspace::max_pooled; ++k) {
    ws.give_cvec(cvec(4));
    ws.give_dgrid(array2d<double>(2, 2));
    ws.give_cgrid(array2d<cplx>(2, 2));
  }
  EXPECT_LE(ws.pooled_cvecs(), sim::workspace::max_pooled);
  EXPECT_LE(ws.pooled_dgrids(), sim::workspace::max_pooled);
  EXPECT_LE(ws.pooled_cgrids(), sim::workspace::max_pooled);
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
      core::make_problem(dev::make_bend(0.1), true, fast_config());
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
      core::make_problem(dev::make_bend(0.1), true, fast_config());
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
      nearby += e.name == "sim.solve" && key == "backend" && value == "banded-reuse";
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
  const core::design_problem problem =
      core::make_problem(dev::make_bend(0.1), true, fast_config());
  const dvec theta = core::concentrated_init(problem);
  robust::variation_corner nominal;
  nominal.xi.assign(problem.fab().space.eole_terms, 0.0);

  core::eval_options o;
  o.fab_aware = true;
  o.compute_gradient = true;
  o.engine = settings_for(sim::backend_kind::banded);
  const auto direct = problem.evaluate(theta, nominal, o);

  for (const auto kind : {sim::backend_kind::bicgstab, sim::backend_kind::gmres}) {
    o.engine = settings_for(kind);
    // Left-preconditioned GMRES reports the preconditioned residual, which
    // can understate the true one; tighten the target for the comparison.
    o.engine.tol = 1e-12;
    const auto ev = problem.evaluate(theta, nominal, o);
    EXPECT_NEAR(ev.loss, direct.loss, 1e-6 * (1.0 + std::abs(direct.loss)))
        << sim::to_string(kind);
    ASSERT_EQ(ev.grad.size(), direct.grad.size());
    double worst = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < ev.grad.size(); ++i) {
      worst = std::max(worst, std::abs(ev.grad[i] - direct.grad[i]));
      scale = std::max(scale, std::abs(direct.grad[i]));
    }
    EXPECT_LT(worst, 1e-5 * (1.0 + scale)) << sim::to_string(kind);
  }
}

}  // namespace
}  // namespace boson
