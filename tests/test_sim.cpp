// Tests for the simulation-engine layer: agreement with the banded-LU
// oracle, batched excitation and adjoint solves, and the Monte-Carlo
// protocol's per-sample factorizations and determinism under varying
// BOSON_THREADS.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "banded.h"
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

/// Straight silicon waveguide through a small PML-bounded domain.
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
  // The engine and the banded-LU oracle solve one PML Helmholtz system;
  // test_fdfd checks the factorization against the oracle on every device.
  const waveguide_fixture f;
  const auto current = f.point_source(14, f.g.ny / 2);
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps);
  const auto field = solve_one(engine, current);

  const fdfd::fdfd_solver plain(f.g, f.pml, k0_default, f.eps);
  const sp::csr_c a = plain.assemble_csr();
  sp::banded_lu oracle(a.rows(), f.g.ny, f.g.ny);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
      oracle.add(i, a.col_index()[k], a.values()[k]);
  oracle.factor();
  cvec b;
  plain.build_rhs(current, b);
  array2d<cplx> reference(f.g.nx, f.g.ny);
  reference.raw() = oracle.solve(b);
  const double scale = max_abs(reference);
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(max_diff(field, reference), 1e-10 * scale);
}

TEST(engine, batched_excitations_match_individual_solves) {
  const waveguide_fixture f;
  const sim::simulation_engine engine(f.g, f.pml, k0_default, f.eps);
  const std::vector<array2d<cplx>> currents{f.point_source(12, f.g.ny / 2),
                                            f.point_source(20, f.g.ny / 2 + 2),
                                            f.point_source(27, f.g.ny / 2 - 3)};
  // One substitution per right-hand side: a batch is bit-identical to
  // solving its excitations one at a time.
  const auto batched = engine.solve_excitations(currents);
  ASSERT_EQ(batched.size(), currents.size());
  for (std::size_t k = 0; k < currents.size(); ++k) {
    const auto single = solve_one(engine, currents[k]);
    EXPECT_EQ(max_diff(batched[k], single), 0.0) << "excitation " << k;
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
  const sp::grid_ldlt lu(plain.stencil());
  for (std::size_t k = 0; k < gradients.size(); ++k) {
    cvec b;
    plain.build_adjoint_rhs(gradients[k], b);
    array2d<cplx> reference(f.g.nx, f.g.ny);
    reference.raw() = lu.solve(b);
    EXPECT_LT(max_diff(lambdas[k], reference), 1e-10 * (1.0 + max_abs(reference)))
        << "adjoint " << k;
  }
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

std::uint64_t counter_total(const char* name) {
  return obs::registry::global().counter_total(name);
}

TEST(monte_carlo, every_sample_factors_its_own_operator) {
  const core::design_problem problem =
      core::make_problem(dev::make_bend(0.1), core::method_recipe{}, fast_config());
  array2d<double> mask(problem.spec().design.nx, problem.spec().design.ny, 0.0);
  for (std::size_t i = 0; i < mask.nx(); ++i)
    for (std::size_t j = mask.ny() / 3; j < 2 * mask.ny() / 3; ++j) mask(i, j) = 1.0;
  constexpr std::size_t samples = 5;
  constexpr std::uint64_t seed = 17;

  obs::trace_collector collector;
  obs::set_global_trace(&collector);
  const std::uint64_t factorizations_before = counter_total("sim.factorizations");
  const std::uint64_t solves_before = counter_total("sim.solves");
  const core::mc_stats mc = core::postfab_monte_carlo(problem, mask, samples, seed);
  obs::set_global_trace(nullptr);
  std::size_t factorizations = 0, prepares = 0;
  for (const auto& e : collector.events()) {
    factorizations += e.name == "sim.factorize";
    prepares += e.name == "sim.prepare";
  }
  EXPECT_EQ(factorizations, samples) << "one factorization per sample, no nominal one";
  EXPECT_EQ(prepares, samples);
  EXPECT_EQ(counter_total("sim.factorizations") - factorizations_before, samples);
  EXPECT_EQ(counter_total("sim.solves") - solves_before,
            samples * problem.spec().excitations.size())
      << "one right-hand side per excitation, no adjoints";

  // The protocol is the per-sample evaluation of the same draws, exactly.
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
  EXPECT_EQ(mc.fom_mean, fom_sum / static_cast<double>(samples));
}

}  // namespace
}  // namespace boson
