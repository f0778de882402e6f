#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "banded.h"
#include "api/spec.h"
#include "common/rng.h"
#include "devices/builders.h"
#include "fab/temperature.h"
#include "fdfd/monitor.h"
#include "fdfd/solver.h"
#include "fdfd/source.h"
#include "modes/slab.h"
#include "sparse/multifrontal.h"

namespace boson::fdfd {
namespace {

constexpr double k0_default = 2.0 * pi / 1.55;

/// Direct solves of one discretization: its operator factored once by the
/// nested-dissection L D Lᵀ, serving forward and adjoint right-hand sides
/// alike.
class direct_solve {
 public:
  explicit direct_solve(const fdfd_solver& solver)
      : solver_(solver), factor_(solver.stencil()) {}

  /// Field of one current-density excitation.
  array2d<cplx> operator()(const array2d<cplx>& current_density) const {
    cvec b;
    solver_.build_rhs(current_density, b);
    return as_grid(factor_.solve(b));
  }

  /// Adjoint field of one sparse field gradient.
  array2d<cplx> adjoint(const field_gradient& g) const {
    cvec b;
    solver_.build_adjoint_rhs(g, b);
    return as_grid(factor_.solve(b));
  }

 private:
  array2d<cplx> as_grid(cvec x) const {
    array2d<cplx> out(solver_.grid().nx, solver_.grid().ny);
    out.raw() = std::move(x);
    return out;
  }

  const fdfd_solver& solver_;
  sp::grid_ldlt factor_;
};

array2d<cplx> solve(const fdfd_solver& solver, const array2d<cplx>& current_density) {
  return direct_solve(solver)(current_density);
}

/// Straight silicon waveguide through a small domain.
struct waveguide_fixture {
  grid2d g;
  pml_spec pml;
  array2d<double> eps;
  std::size_t wg_lo, wg_hi;  // core cells in y

  explicit waveguide_fixture(std::size_t nx = 70, std::size_t ny = 48, double d = 0.05) {
    g.nx = nx;
    g.ny = ny;
    g.dx = g.dy = d;
    pml.cells = 8;
    eps = array2d<double>(nx, ny, 1.0);
    wg_lo = ny / 2 - 4;
    wg_hi = ny / 2 + 4;
    const double eps_si = fab::eps_si(300.0);
    for (std::size_t ix = 0; ix < nx; ++ix)
      for (std::size_t iy = wg_lo; iy < wg_hi; ++iy) eps(ix, iy) = eps_si;
  }

  modes::slab_mode mode(std::size_t order = 1) const {
    dvec line(g.ny - 2 * pml.cells);
    for (std::size_t t = 0; t < line.size(); ++t) line[t] = eps(0, pml.cells + t);
    auto ms = modes::solve_slab_modes(line, g.dy, k0_default, order + 2);
    return ms.at(order - 1);
  }

  std::size_t span_start() const { return pml.cells; }
  std::size_t span_count() const { return g.ny - 2 * pml.cells; }

  array2d<cplx> solve_with_source(const fdfd_solver& solver, std::size_t src_ix,
                                  int direction) const {
    array2d<cplx> current(g.nx, g.ny, cplx{});
    mode_source_spec ss;
    ss.axis = port_axis::vertical;
    ss.line_index = src_ix;
    ss.span_start = span_start();
    ss.direction = direction;
    add_mode_source(current, ss, mode(), g.dx);
    return solve(solver, current);
  }
};

// ------------------------------------------------------------- operator ----

bool same_bits(const cplx& a, const cplx& b) { return std::memcmp(&a, &b, sizeof(cplx)) == 0; }

/// Every entry of `assemble_csr()`, in both triangles, equals bit for bit
/// the `stencil()` entry that the factorization reads in its place, and the
/// stencil's couplings past the grid edge are zero.
void expect_stencil_is_the_csr_operator(const fdfd_solver& solver) {
  const sp::grid_stencil st = solver.stencil();
  const sp::csr_c a = solver.assemble_csr();
  const std::size_t nx = solver.grid().nx, ny = solver.grid().ny, n = nx * ny;
  ASSERT_EQ(st.nx, nx);
  ASSERT_EQ(st.ny, ny);
  ASSERT_EQ(st.diag.size(), n);
  ASSERT_EQ(st.y.size(), n);
  ASSERT_EQ(st.x.size(), n);
  EXPECT_EQ(a.nnz(), 5 * n - 2 * nx - 2 * ny);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_index()[k];
      const std::size_t lo = std::min(i, j), hi = std::max(i, j);
      const cplx& v = hi == lo ? st.diag[lo] : hi == lo + 1 ? st.y[lo] : st.x[lo];
      ASSERT_TRUE(hi == lo || (hi == lo + 1 && hi % ny != 0) || hi == lo + ny)
          << "entry (" << i << ", " << j << ") is outside the 5-point stencil";
      mismatches += !same_bits(a.values()[k], v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  for (std::size_t c = ny - 1; c < n; c += ny) EXPECT_EQ(st.y[c], cplx{}) << c;
  for (std::size_t c = n - ny; c < n; ++c) EXPECT_EQ(st.x[c], cplx{}) << c;
}

class operator_grids : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(operator_grids, scaled_helmholtz_matrix_is_complex_symmetric) {
  const auto [nx, ny] = GetParam();
  grid2d g;
  g.nx = nx;
  g.ny = ny;
  g.dx = 0.05;
  g.dy = 0.04;
  pml_spec pml;
  pml.cells = 6;
  rng r(nx + ny);
  array2d<double> eps(nx, ny);
  for (auto& v : eps) v = 1.0 + 11.0 * r.uniform(0, 1);
  fdfd_solver solver(g, pml, k0_default, eps);
  EXPECT_LT(solver.assemble_csr().asymmetry(), 1e-12);
  expect_stencil_is_the_csr_operator(solver);
}

INSTANTIATE_TEST_SUITE_P(grids, operator_grids,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{24, 20},
                                           std::pair<std::size_t, std::size_t>{40, 16},
                                           std::pair<std::size_t, std::size_t>{16, 40}));

TEST(operator, stencil_is_the_csr_operator_on_all_devices) {
  // The factorization reads each coupling once, from the stencil; the CSR
  // operator computes every row from its own cell. On every device with a
  // random design the two agree bit for bit, so the operator the residual
  // tests check is the one that is factored.
  const double eps_si = fab::eps_si(300.0);
  for (const api::device_entry& device : api::device_table) {
    const dev::device_spec spec = device.make(0.1);
    array2d<double> eps(spec.grid.nx, spec.grid.ny);
    rng r(5);
    for (auto& v : eps) v = r.uniform(0, 1) < 0.5 ? 1.0 : eps_si;
    SCOPED_TRACE(device.name);
    expect_stencil_is_the_csr_operator(fdfd_solver(spec.grid, spec.pml, spec.k0, eps));
  }
}

TEST(fdfd_solver, solution_satisfies_csr_residual) {
  waveguide_fixture f(48, 36);
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  array2d<cplx> current(f.g.nx, f.g.ny, cplx{});
  current(20, f.g.ny / 2) = cplx{1.0};
  const auto field = solve(solver, current);

  // Rebuild b exactly as the solver does and check A e = b in CSR form.
  const auto a = solver.assemble_csr();
  cvec e(field.raw());
  const auto ae = a.matvec(e);
  cvec b(f.g.cell_count(), cplx{});
  const std::size_t idx = 20 * f.g.ny + f.g.ny / 2;
  b[idx] = -imag_unit * k0_default * solver.stretch_x().center[20] *
           solver.stretch_y().center[f.g.ny / 2];
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ae.size(); ++i) {
    err = std::max(err, std::abs(ae[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  EXPECT_LT(err, 1e-10 * scale);
}

TEST(fdfd_solver, validates_inputs) {
  grid2d g;
  g.nx = g.ny = 30;
  g.dx = g.dy = 0.05;
  pml_spec pml;
  pml.cells = 6;
  array2d<double> eps(30, 30, 1.0);
  EXPECT_THROW(fdfd_solver(g, pml, -1.0, eps), bad_argument);
  array2d<double> wrong(29, 30, 1.0);
  EXPECT_THROW(fdfd_solver(g, pml, k0_default, wrong), bad_argument);
  fdfd_solver solver(g, pml, k0_default, eps);
  array2d<cplx> bad_src(29, 30);
  cvec b;
  EXPECT_THROW(solver.build_rhs(bad_src, b), bad_argument);
}

// -------------------------------------------------------------- physics ----

TEST(physics, pml_absorbs_outgoing_waves) {
  // Homogeneous medium, point source at the center: the field near the
  // domain boundary (inside the PML) must be strongly attenuated.
  grid2d g;
  g.nx = g.ny = 60;
  g.dx = g.dy = 0.05;
  pml_spec pml;
  pml.cells = 10;
  array2d<double> eps(60, 60, 1.0);
  fdfd_solver solver(g, pml, k0_default, eps);
  array2d<cplx> current(60, 60, cplx{});
  current(30, 30) = cplx{1.0};
  const auto field = solve(solver, current);

  // Compare against the field just outside the source, where the cylindrical
  // wave is still strong; the PML plus 1/sqrt(r) spreading must attenuate the
  // boundary field by more than three orders of magnitude.
  const double center_mag = std::abs(field(33, 30));
  const double edge_mag = std::abs(field(59, 30));
  EXPECT_GT(center_mag, 0.0);
  EXPECT_LT(edge_mag, 1e-3 * center_mag);
}

TEST(physics, free_space_wavelength_matches_k0) {
  // 1-D-like propagation: a full-height line source in vacuum creates a
  // quasi-plane wave; the discrete phase advance per cell approximates k0 dx.
  grid2d g;
  g.nx = 100;
  g.ny = 40;
  g.dx = g.dy = 0.05;
  pml_spec pml;
  pml.cells = 10;
  array2d<double> eps(g.nx, g.ny, 1.0);
  fdfd_solver solver(g, pml, k0_default, eps);
  array2d<cplx> current(g.nx, g.ny, cplx{});
  for (std::size_t iy = 0; iy < g.ny; ++iy) current(30, iy) = cplx{1.0};
  const auto field = solve(solver, current);

  const std::size_t iy = g.ny / 2;
  double total_phase = 0.0;
  int counted = 0;
  for (std::size_t ix = 45; ix < 80; ++ix) {
    const cplx ratio = field(ix + 1, iy) / field(ix, iy);
    total_phase += std::arg(ratio);
    ++counted;
  }
  const double phase_per_cell = total_phase / counted;
  // Discrete dispersion: q dx = 2 asin(k0 dx / 2).
  const double expected = 2.0 * std::asin(k0_default * g.dx / 2.0);
  EXPECT_NEAR(std::abs(phase_per_cell), expected, 0.01 * expected);
}

class pml_strengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(pml_strengths, thicker_pml_never_reflects_more) {
  // Launch a guided mode at a wall of PML and measure the reflected flux.
  const std::size_t cells = GetParam();
  waveguide_fixture f(70, 48);
  f.pml.cells = cells;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 30, +1);
  // Net flux between source and right PML = incident - reflected; compare
  // against the flux right next to the source (the launched power).
  flux_monitor near(port_axis::vertical, 35, f.span_start(), f.span_count(), f.g.dx,
                    f.g.dy, k0_default);
  flux_monitor far(port_axis::vertical, 69 - cells - 2, f.span_start(), f.span_count(),
                   f.g.dx, f.g.dy, k0_default);
  const double p_near = near.evaluate(field).value;
  const double p_far = far.evaluate(field).value;
  ASSERT_GT(p_near, 0.0);
  // Power is conserved down the guide into the absorber: any PML reflection
  // would show as a standing-wave mismatch between the two planes.
  EXPECT_NEAR(p_far / p_near, 1.0, 0.02) << "pml cells = " << cells;
}

INSTANTIATE_TEST_SUITE_P(thickness, pml_strengths, ::testing::Values(8, 12, 16));

TEST(physics, rectangular_cells_preserve_transmission) {
  // dx != dy: a straight waveguide must still transmit unit power.
  grid2d g;
  g.nx = 90;
  g.ny = 48;
  g.dx = 0.04;
  g.dy = 0.05;
  pml_spec pml;
  pml.cells = 10;
  array2d<double> eps(g.nx, g.ny, 1.0);
  const double eps_si = fab::eps_si(300.0);
  for (std::size_t ix = 0; ix < g.nx; ++ix)
    for (std::size_t iy = 20; iy < 28; ++iy) eps(ix, iy) = eps_si;
  fdfd_solver solver(g, pml, k0_default, eps);

  dvec line(28);
  for (std::size_t t = 0; t < 28; ++t) line[t] = eps(0, 10 + t);
  const auto ms = modes::solve_slab_modes(line, g.dy, k0_default, 2);
  ASSERT_GE(ms.size(), 1u);

  array2d<cplx> current(g.nx, g.ny, cplx{});
  mode_source_spec ss;
  ss.axis = port_axis::vertical;
  ss.line_index = 25;
  ss.span_start = 10;
  ss.direction = +1;
  add_mode_source(current, ss, ms[0], g.dx);
  const auto field = solve(solver, current);

  mode_power_monitor near(port_axis::vertical, 35, 10, ms[0], g.dy, k0_default, g.dx);
  mode_power_monitor far(port_axis::vertical, 70, 10, ms[0], g.dy, k0_default, g.dx);
  const double p_near = near.evaluate(field).value;
  ASSERT_GT(p_near, 0.0);
  EXPECT_NEAR(far.evaluate(field).value / p_near, 1.0, 0.02);
}

TEST(physics, mode_source_is_unidirectional) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 25, +1);
  flux_monitor right(port_axis::vertical, 45, f.span_start(), f.span_count(), f.g.dx, f.g.dy,
                     k0_default);
  flux_monitor left(port_axis::vertical, 14, f.span_start(), f.span_count(), f.g.dx, f.g.dy,
                    k0_default);
  const double p_right = right.evaluate(field).value;
  const double p_left = left.evaluate(field).value;
  EXPECT_GT(p_right, 0.0);
  EXPECT_GT(p_right / std::max(std::abs(p_left), 1e-30), 100.0);
}

TEST(physics, backward_mode_source_mirrors_forward) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 45, -1);
  flux_monitor left(port_axis::vertical, 20, f.span_start(), f.span_count(), f.g.dx, f.g.dy,
                    k0_default);
  const double p_left = left.evaluate(field).value;  // net +x flux; must be negative
  EXPECT_LT(p_left, 0.0);
}

TEST(physics, straight_waveguide_transmits_unit_power) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 20, +1);
  const auto mode = f.mode();
  mode_power_monitor near(port_axis::vertical, 30, f.span_start(), mode, f.g.dy, k0_default,
                          f.g.dx);
  mode_power_monitor far(port_axis::vertical, 55, f.span_start(), mode, f.g.dy, k0_default,
                         f.g.dx);
  const double p_near = near.evaluate(field).value;
  const double p_far = far.evaluate(field).value;
  ASSERT_GT(p_near, 0.0);
  EXPECT_NEAR(p_far / p_near, 1.0, 0.01);
}

TEST(physics, modal_power_matches_poynting_flux) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 20, +1);
  mode_power_monitor mode_mon(port_axis::vertical, 50, f.span_start(), f.mode(), f.g.dy,
                              k0_default, f.g.dx);
  flux_monitor flux_mon(port_axis::vertical, 50, f.span_start(), f.span_count(), f.g.dx,
                        f.g.dy, k0_default);
  const double p_mode = mode_mon.evaluate(field).value;
  const double p_flux = flux_mon.evaluate(field).value;
  EXPECT_NEAR(p_mode / p_flux, 1.0, 0.02);
}

TEST(physics, scatterer_conserves_power) {
  // Power in = transmitted + reflected + radiated: check net flux through a
  // closed box around a scatterer is ~zero (lossless medium).
  waveguide_fixture f(80, 56);
  // A silicon post partially blocking the guide.
  for (std::size_t ix = 40; ix < 44; ++ix)
    for (std::size_t iy = f.wg_lo - 4; iy < f.wg_lo + 2; ++iy) f.eps(ix, iy) = 12.1;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 20, +1);

  const std::size_t lo = f.pml.cells + 1, hi_x = f.g.nx - f.pml.cells - 2,
                    hi_y = f.g.ny - f.pml.cells - 2;
  flux_monitor right(port_axis::vertical, hi_x, lo, hi_y - lo, f.g.dx, f.g.dy, k0_default);
  flux_monitor left(port_axis::vertical, 25, lo, hi_y - lo, f.g.dx, f.g.dy, k0_default);
  flux_monitor top(port_axis::horizontal, hi_y, 26, hi_x - 26, f.g.dy, f.g.dx, k0_default);
  flux_monitor bottom(port_axis::horizontal, lo, 26, hi_x - 26, f.g.dy, f.g.dx, k0_default);

  const double in = left.evaluate(field).value;
  const double out = right.evaluate(field).value + top.evaluate(field).value -
                     bottom.evaluate(field).value;
  ASSERT_GT(in, 0.0);
  EXPECT_NEAR(out / in, 1.0, 0.03);
}

TEST(physics, reciprocity_of_point_sources) {
  // With the symmetric scaled operator, G(p, q) = G(q, p) exactly for
  // interior points (s = 1 at both).
  waveguide_fixture f(60, 44);
  for (std::size_t ix = 28; ix < 33; ++ix)
    for (std::size_t iy = 18; iy < 23; ++iy) f.eps(ix, iy) = 8.0;  // arbitrary scatterer
  const fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const direct_solve direct(solver);

  array2d<cplx> ja(f.g.nx, f.g.ny, cplx{});
  ja(18, 22) = cplx{1.0};
  const auto ea = direct(ja);
  array2d<cplx> jb(f.g.nx, f.g.ny, cplx{});
  jb(42, 24) = cplx{1.0};
  const auto eb = direct(jb);
  EXPECT_NEAR(std::abs(ea(42, 24) - eb(18, 22)), 0.0, 1e-10 * std::abs(ea(42, 24)));
}

// ------------------------------------------------------------ gradients ----

/// Wirtinger FD check: for real F(e), dF = 2 Re(g_i de_i).
template <class Monitor>
void expect_monitor_gradient_matches_fd(const Monitor& mon, array2d<cplx> field) {
  const auto base = mon.evaluate(field);
  const double h = 1e-6;
  ASSERT_FALSE(base.grad.empty());
  for (std::size_t t = 0; t < std::min<std::size_t>(base.grad.size(), 6); ++t) {
    const auto [idx, gval] = base.grad[t];
    // Real perturbation.
    field.raw()[idx] += h;
    const double f_re = mon.evaluate(field).value;
    field.raw()[idx] -= h;
    EXPECT_NEAR((f_re - base.value) / h, 2.0 * gval.real(),
                1e-4 * (std::abs(gval) + 1.0) + 1e-8);
    // Imaginary perturbation.
    field.raw()[idx] += cplx(0.0, h);
    const double f_im = mon.evaluate(field).value;
    field.raw()[idx] -= cplx(0.0, h);
    EXPECT_NEAR((f_im - base.value) / h, -2.0 * gval.imag(),
                1e-4 * (std::abs(gval) + 1.0) + 1e-8);
  }
}

TEST(gradients, flux_monitor_gradient_matches_fd) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 20, +1);
  flux_monitor mon(port_axis::vertical, 40, f.span_start(), f.span_count(), f.g.dx, f.g.dy,
                   k0_default);
  expect_monitor_gradient_matches_fd(mon, field);
}

TEST(gradients, horizontal_flux_monitor_gradient_matches_fd) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 20, +1);
  flux_monitor mon(port_axis::horizontal, f.g.ny - f.pml.cells - 3, 20, 30, f.g.dy, f.g.dx,
                   k0_default);
  expect_monitor_gradient_matches_fd(mon, field);
}

TEST(gradients, mode_monitor_gradient_matches_fd) {
  waveguide_fixture f;
  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, 20, +1);
  mode_power_monitor mon(port_axis::vertical, 45, f.span_start(), f.mode(), f.g.dy,
                         k0_default, f.g.dx);
  expect_monitor_gradient_matches_fd(mon, field);
}

TEST(gradients, adjoint_eps_gradient_matches_fd) {
  // Objective: modal power at the output of a perturbed waveguide.
  waveguide_fixture f(56, 40);
  const auto mode = f.mode();
  const std::size_t src = 16, mon_ix = 44;

  auto objective = [&](const array2d<double>& eps) {
    fdfd_solver solver(f.g, f.pml, k0_default, eps);
    const auto field = f.solve_with_source(solver, src, +1);
    mode_power_monitor mon(port_axis::vertical, mon_ix, f.span_start(), mode, f.g.dy,
                           k0_default, f.g.dx);
    return mon.evaluate(field).value;
  };

  fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const auto field = f.solve_with_source(solver, src, +1);
  mode_power_monitor mon(port_axis::vertical, mon_ix, f.span_start(), mode, f.g.dy,
                         k0_default, f.g.dx);
  const auto res = mon.evaluate(field);
  const auto lambda = direct_solve(solver).adjoint(res.grad);
  array2d<double> grad(f.g.nx, f.g.ny, 0.0);
  solver.accumulate_eps_gradient(field, lambda, grad);

  const double h = 1e-5;
  for (const auto& [ix, iy] : {std::pair<std::size_t, std::size_t>{30, f.wg_lo + 2},
                              std::pair<std::size_t, std::size_t>{32, f.wg_lo - 2},
                              std::pair<std::size_t, std::size_t>{28, f.wg_hi + 1}}) {
    array2d<double> ep = f.eps;
    ep(ix, iy) += h;
    array2d<double> em = f.eps;
    em(ix, iy) -= h;
    const double fd = (objective(ep) - objective(em)) / (2.0 * h);
    EXPECT_NEAR(grad(ix, iy), fd, 2e-3 * (std::abs(fd) + std::abs(grad(ix, iy))) + 1e-12)
        << "cell (" << ix << "," << iy << ")";
  }
}

TEST(fdfd_solver, factorization_matches_banded_oracle_on_all_devices) {
  // The nested-dissection LDLᵀ against the banded LU on every device operator
  // at two resolutions, with a random binary design in the window.
  const double eps_si = fab::eps_si(300.0);
  for (const api::device_entry& device : api::device_table) {
    for (const double res : {0.1, 0.05}) {
      const dev::device_spec spec = device.make(res);
      const grid2d& g = spec.grid;
      array2d<double> eps(g.nx, g.ny);
      for (std::size_t ix = 0; ix < g.nx; ++ix)
        for (std::size_t iy = 0; iy < g.ny; ++iy)
          eps(ix, iy) = 1.0 + (eps_si - 1.0) * spec.background_occupancy(ix, iy);
      rng r(3);
      for (std::size_t ix = 0; ix < spec.design.nx; ++ix)
        for (std::size_t iy = 0; iy < spec.design.ny; ++iy)
          eps(spec.design.ix0 + ix, spec.design.iy0 + iy) = r.uniform(0, 1) < 0.5 ? 1.0 : eps_si;
      const fdfd_solver solver(g, spec.pml, spec.k0, eps);
      const sp::csr_c a = solver.assemble_csr();

      cvec b(g.cell_count());
      for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
      const cvec x = sp::grid_ldlt(solver.stencil()).solve(b);
      sp::banded_lu oracle(a.rows(), g.ny, g.ny);
      for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
          oracle.add(i, a.col_index()[k], a.values()[k]);
      oracle.factor();
      const cvec xb = oracle.solve(b);

      const cvec ax = a.matvec(x);
      double res2 = 0.0, b2 = 0.0, diff2 = 0.0, x2 = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        res2 += std::norm(ax[i] - b[i]);
        b2 += std::norm(b[i]);
        diff2 += std::norm(x[i] - xb[i]);
        x2 += std::norm(xb[i]);
      }
      const std::string where = std::string(device.name) + " @ " + std::to_string(res);
      EXPECT_LT(std::sqrt(res2 / b2), 1e-12) << where;
      EXPECT_LT(std::sqrt(diff2 / x2), 1e-10) << where;
    }
  }
}

TEST(gradients, adjoint_reuses_factorization) {
  // An adjoint solve through the factor that served a forward solve must agree
  // with one through a fresh factorization.
  waveguide_fixture f(48, 36);
  const fdfd_solver solver(f.g, f.pml, k0_default, f.eps);
  const direct_solve direct(solver);
  array2d<cplx> current(f.g.nx, f.g.ny, cplx{});
  current(16, f.g.ny / 2) = cplx{1.0};
  (void)direct(current);
  field_gradient g1{{200, cplx{1.0, 0.5}}};
  const auto l1 = direct.adjoint(g1);
  const fdfd_solver fresh(f.g, f.pml, k0_default, f.eps);
  const auto l2 = direct_solve(fresh).adjoint(g1);
  for (std::size_t i = 0; i < l1.size(); ++i)
    EXPECT_NEAR(std::abs(l1.raw()[i] - l2.raw()[i]), 0.0, 1e-12);
}

}  // namespace
}  // namespace boson::fdfd
