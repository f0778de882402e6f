#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "grid/grid2d.h"
#include "grid/pml.h"
#include "sparse/csr.h"
#include "sparse/multifrontal.h"

namespace boson::fdfd {

/// Sparse Wirtinger gradient of a real scalar with respect to the field:
/// pairs (flat cell index, dF/dE at that cell). The total differential is
/// dF = 2 Re(sum_i g_i dE_i).
using field_gradient = std::vector<std::pair<std::size_t, cplx>>;

/// 2-D frequency-domain Helmholtz discretization (Ez polarization) with
/// stretched-coordinate PML: the operator, its right-hand sides and the
/// permittivity gradient. It holds no solve state; `sim::simulation_engine`
/// factors and solves the operator.
///
/// The discrete operator is scaled by s_x(i) s_y(j) per row, which makes it
/// *complex symmetric* (A = Aᵀ, unconjugated, bit for bit: mirrored entries
/// come from the same expression). A single L D Lᵀ factorization of its
/// `stencil()` (`sp::grid_ldlt`) therefore serves both the forward solve
/// A e = b and every adjoint solve A lambda = g.
/// Unknowns are ordered ix * ny + iy.
///
/// Units: lengths in um, c = eps0 = mu0 = 1, k0 = omega = 2 pi / lambda.
class fdfd_solver {
 public:
  /// `eps` holds the relative permittivity per cell (shape nx x ny).
  fdfd_solver(const grid2d& grid, const pml_spec& pml, double k0,
              const array2d<double>& eps);

  const grid2d& grid() const { return grid_; }
  const pml_spec& pml() const { return pml_; }
  double k0() const { return k0_; }
  const array2d<double>& eps() const { return eps_; }

  /// Build the scaled right-hand side b = -i k0 J s_x s_y of A e = b for
  /// current density J. `b` is assigned (resized and overwritten).
  void build_rhs(const array2d<cplx>& current_density, cvec& b) const;

  /// Build the adjoint right-hand side by scattering a sparse field
  /// gradient; same buffer contract as `build_rhs`.
  void build_adjoint_rhs(const field_gradient& g, cvec& b) const;

  /// Accumulate dF/deps(i,j) += -2 Re(lambda_ij k0^2 s_xc(i) s_yc(j) e_ij)
  /// given the forward field and one adjoint field.
  void accumulate_eps_gradient(const array2d<cplx>& field,
                               const array2d<cplx>& adjoint_field,
                               array2d<double>& grad) const;

  /// The scaled operator A as a 5-point stencil: the factorization's input.
  /// Each coupling is computed once, at the lower of its two cells.
  sp::grid_stencil stencil() const;

  /// The same operator assembled in CSR form, every row from its own cell's
  /// coefficients: the tests' residual and banded-oracle operator.
  sp::csr_c assemble_csr() const;

  /// Per-axis complex stretch profiles (exposed for monitors and tests).
  const stretch_profile& stretch_x() const { return sx_; }
  const stretch_profile& stretch_y() const { return sy_; }

 private:
  std::size_t flat(std::size_t ix, std::size_t iy) const { return ix * grid_.ny + iy; }

  grid2d grid_;
  pml_spec pml_;
  double k0_;
  array2d<double> eps_;
  stretch_profile sx_;
  stretch_profile sy_;
};

}  // namespace boson::fdfd
