#include "fdfd/solver.h"

#include "common/error.h"

namespace boson::fdfd {

fdfd_solver::fdfd_solver(const grid2d& grid, const pml_spec& pml, double k0,
                         const array2d<double>& eps)
    : grid_(grid), pml_(pml), k0_(k0), eps_(eps) {
  require(grid.nx >= 8 && grid.ny >= 8, "fdfd_solver: grid too small");
  require(eps.nx() == grid.nx && eps.ny() == grid.ny, "fdfd_solver: eps shape mismatch");
  require(k0 > 0.0, "fdfd_solver: k0 must be positive");
  sx_ = build_stretch(grid.nx, grid.dx, k0, pml);
  sy_ = build_stretch(grid.ny, grid.dy, k0, pml);
}

namespace {

/// Stencil coefficients for cell (ix, iy) of the s_x s_y - scaled operator.
struct cell_stencil {
  cplx east, west, north, south, diag;
};

cell_stencil stencil_at(const grid2d& g, double k0, const array2d<double>& eps,
                        const stretch_profile& sx, const stretch_profile& sy,
                        std::size_t ix, std::size_t iy) {
  const double inv_dx2 = 1.0 / (g.dx * g.dx);
  const double inv_dy2 = 1.0 / (g.dy * g.dy);
  const cplx sxc = sx.center[ix];
  const cplx syc = sy.center[iy];
  // iface[i] separates cells i-1 and i.
  const cplx sx_w = sx.iface[ix];
  const cplx sx_e = sx.iface[ix + 1];
  const cplx sy_s = sy.iface[iy];
  const cplx sy_n = sy.iface[iy + 1];

  cell_stencil st;
  st.east = syc / sx_e * inv_dx2;
  st.west = syc / sx_w * inv_dx2;
  st.north = sxc / sy_n * inv_dy2;
  st.south = sxc / sy_s * inv_dy2;
  st.diag = k0 * k0 * eps(ix, iy) * sxc * syc - st.east - st.west - st.north - st.south;
  return st;
}

}  // namespace

void fdfd_solver::build_rhs(const array2d<cplx>& current_density, cvec& b) const {
  require(current_density.nx() == grid_.nx && current_density.ny() == grid_.ny,
          "fdfd_solver::build_rhs: source shape mismatch");
  b.assign(grid_.cell_count(), cplx{});
  const cplx factor = -imag_unit * k0_;
  for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
    for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
      const cplx j = current_density(ix, iy);
      if (j != cplx{}) b[flat(ix, iy)] = factor * j * sx_.center[ix] * sy_.center[iy];
    }
  }
}

void fdfd_solver::build_adjoint_rhs(const field_gradient& g, cvec& b) const {
  b.assign(grid_.cell_count(), cplx{});
  for (const auto& [idx, val] : g) {
    require(idx < b.size(), "fdfd_solver::build_adjoint_rhs: index out of range");
    b[idx] += val;
  }
}

void fdfd_solver::accumulate_eps_gradient(const array2d<cplx>& field,
                                          const array2d<cplx>& adjoint_field,
                                          array2d<double>& grad) const {
  require(field.same_shape(eps_) && adjoint_field.same_shape(eps_) && grad.same_shape(eps_),
          "fdfd_solver::accumulate_eps_gradient: shape mismatch");
  const double k02 = k0_ * k0_;
  for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
    const cplx sxc = sx_.center[ix];
    for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
      const cplx scale = k02 * sxc * sy_.center[iy];
      grad(ix, iy) += -2.0 * std::real(adjoint_field(ix, iy) * scale * field(ix, iy));
    }
  }
}

sp::grid_stencil fdfd_solver::stencil() const {
  const std::size_t n = grid_.cell_count();
  sp::grid_stencil a{grid_.nx, grid_.ny, cvec(n), cvec(n), cvec(n)};
  for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
    for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
      const cell_stencil st = stencil_at(grid_, k0_, eps_, sx_, sy_, ix, iy);
      const std::size_t c = flat(ix, iy);
      a.diag[c] = st.diag;
      if (iy + 1 < grid_.ny) a.y[c] = st.north;
      if (ix + 1 < grid_.nx) a.x[c] = st.east;
    }
  }
  return a;
}

sp::csr_c fdfd_solver::assemble_csr() const {
  const std::size_t n = grid_.cell_count();
  std::vector<sp::triplet<cplx>> entries;
  entries.reserve(5 * n);
  for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
    for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
      const cell_stencil st = stencil_at(grid_, k0_, eps_, sx_, sy_, ix, iy);
      const std::size_t row = flat(ix, iy);
      // Column order within the row, so the CSR build skips its sort.
      if (ix > 0) entries.push_back({row, flat(ix - 1, iy), st.west});
      if (iy > 0) entries.push_back({row, flat(ix, iy - 1), st.south});
      entries.push_back({row, row, st.diag});
      if (iy + 1 < grid_.ny) entries.push_back({row, flat(ix, iy + 1), st.north});
      if (ix + 1 < grid_.nx) entries.push_back({row, flat(ix + 1, iy), st.east});
    }
  }
  return sp::csr_c(n, n, std::move(entries));
}

}  // namespace boson::fdfd
