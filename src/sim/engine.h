/// \file engine.h
/// The simulation engine: one assembled FDFD operator (grid + PML + k0 +
/// permittivity) and the factorization that solves it. All excitations and
/// adjoints of one variation corner are solved through a single
/// factorization, one substitution per right-hand side, and the engine is
/// immutable after construction so one instance can serve several threads.

#pragma once

#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "fdfd/solver.h"
#include "grid/grid2d.h"
#include "grid/pml.h"
#include "sparse/multifrontal.h"

namespace boson::sim {

/// Per-engine solver configuration. It has no settings left; the type stays
/// only because the end-to-end benchmark's ledger (`e2ebench/ledger.cpp`)
/// still assigns `core::run_options::engine` to `core::eval_options::engine`.
struct engine_settings {};

/// One prepared FDFD simulation. All solve methods are const and
/// thread-safe.
///
/// The constructor factors the operator's stencil (nested-dissection
/// L D Lᵀ, `sp::grid_ldlt`) under the `sim.factorize` span. The operator is
/// complex symmetric, so that one factor serves the forward and the adjoint
/// solves. Factorizations and right-hand sides are counted in the
/// `sim.factorizations` / `sim.solves` metrics.
class simulation_engine {
 public:
  simulation_engine(const grid2d& grid, const pml_spec& pml, double k0,
                    const array2d<double>& eps);

  simulation_engine(const simulation_engine&) = delete;
  simulation_engine& operator=(const simulation_engine&) = delete;

  /// Forward solves: one field per excitation, all through the prepared
  /// factor.
  std::vector<array2d<cplx>> solve_excitations(
      const std::vector<array2d<cplx>>& current_densities) const;

  /// Adjoint solves A lambda = g for the monitor gradients of one corner.
  std::vector<array2d<cplx>> solve_adjoints(
      const std::vector<fdfd::field_gradient>& gradients) const;

  /// Accumulate dF/deps from one (forward, adjoint) field pair.
  void accumulate_eps_gradient(const array2d<cplx>& field,
                               const array2d<cplx>& adjoint_field,
                               array2d<double>& grad) const {
    solver_.accumulate_eps_gradient(field, adjoint_field, grad);
  }

 private:
  std::vector<array2d<cplx>> solve_batch(const std::vector<cvec>& rhs) const;

  fdfd::fdfd_solver solver_;
  sp::grid_ldlt factor_;
};

}  // namespace boson::sim
