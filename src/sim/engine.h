/// \file engine.h
/// The simulation engine: one assembled FDFD operator (grid + PML + k0 +
/// permittivity) and the factorization that solves it. The engine batches all
/// excitations and adjoints of one variation corner through a single
/// factorization (blocked multi-RHS substitution), and is immutable after
/// construction so one instance can serve several threads.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "fdfd/solver.h"
#include "grid/grid2d.h"
#include "grid/pml.h"
#include "sparse/csr.h"
#include "sparse/multifrontal.h"

namespace boson::sim {

/// Per-engine solver configuration.
struct engine_settings {
  double tol = 1e-10;  ///< nearby engine's relative-residual target
};

/// One prepared FDFD simulation. All solve methods are const and
/// thread-safe.
///
/// A direct engine factors its operator (nested-dissection L D Lᵀ,
/// `sp::grid_ldlt`) in the constructor, under the `sim.factorize` span. The
/// operator is complex symmetric, so that one factor serves the forward and
/// the adjoint solves.
///
/// A nearby engine never factors its (perturbed) operator up front: the
/// nominal engine's factor left-preconditions a short GMRES outer loop on the
/// perturbed CSR operator, started from zero so the first Krylov vector is the
/// nominal solution (M^{-1} A is a low-rank perturbation of the identity when
/// the permittivity change is localized, so a handful of iterations reach the
/// tolerance). Acceptance is checked on the *true* residual; a right-hand side
/// that misses it within a fixed iteration cap triggers a one-time full
/// factorization of the perturbed operator, which then serves this and every
/// later batch. Both outcomes depend only on the two operators and the
/// right-hand sides. The outer iterations and fallbacks are counted in the
/// `sim.reuse.refinement_iterations` / `sim.reuse.fallbacks` metrics.
class simulation_engine {
 public:
  simulation_engine(const grid2d& grid, const pml_spec& pml, double k0,
                    const array2d<double>& eps, engine_settings settings = {});

  /// Nearby engine for `eps`, preconditioned by `nominal`'s factor; `nominal`
  /// must be a direct engine (else `bad_argument`). Grid, PML, k0 and
  /// settings are inherited from it, and it is kept alive for the lifetime
  /// of this one.
  simulation_engine(std::shared_ptr<const simulation_engine> nominal,
                    const array2d<double>& eps);

  ~simulation_engine();

  simulation_engine(const simulation_engine&) = delete;
  simulation_engine& operator=(const simulation_engine&) = delete;

  /// Batched forward solves: one field per excitation, all pushed through
  /// the prepared operator together.
  std::vector<array2d<cplx>> solve_excitations(
      const std::vector<array2d<cplx>>& current_densities) const;

  /// Batched adjoint solves A lambda = g for the monitor gradients of one
  /// corner.
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
  std::vector<cvec> solve_nearby(const std::vector<cvec>& rhs) const;
  void factor() const;

  engine_settings settings_;
  fdfd::fdfd_solver solver_;
  /// Nearby engines only: the preconditioning engine and the perturbed
  /// operator.
  std::shared_ptr<const simulation_engine> nominal_;
  sp::csr_c a_;
  /// This operator's factor: set in a direct engine's constructor, or once by a
  /// nearby engine's fallback. `factored_` is released after it is set.
  mutable std::unique_ptr<const sp::grid_ldlt> factor_;
  mutable std::once_flag fallback_once_;
  mutable std::atomic<bool> factored_{false};
};

}  // namespace boson::sim
