/// \file engine.h
/// The simulation engine: one assembled FDFD operator (grid + PML + k0 +
/// permittivity) prepared behind a pluggable linear backend. The engine
/// batches all excitations and adjoints of one variation corner through a
/// single preparation (multi-RHS substitution on the banded path), and is
/// immutable after construction so one instance can serve several threads.

#pragma once

#include <memory>
#include <vector>

#include "common/array2d.h"
#include "common/types.h"
#include "fdfd/solver.h"
#include "grid/grid2d.h"
#include "grid/pml.h"
#include "sim/backend.h"

namespace boson::sim {

/// One prepared FDFD simulation: operator state plus a ready linear backend.
/// All solve methods are const and thread-safe; construction does the
/// expensive work (assembly + factorization / ILU setup) eagerly.
class simulation_engine {
 public:
  simulation_engine(const grid2d& grid, const pml_spec& pml, double k0,
                    const array2d<double>& eps, engine_settings settings = {});

  /// Nearby operator: prepare `eps` without factoring it, serving solves
  /// through `nominal`'s banded LU as the preconditioner of a short GMRES
  /// outer loop (see `make_nearby_backend`). Grid, PML, k0 and settings are
  /// inherited from the nominal engine, which is kept alive for the lifetime
  /// of this one.
  simulation_engine(std::shared_ptr<const simulation_engine> nominal,
                    const array2d<double>& eps);

  ~simulation_engine();

  simulation_engine(const simulation_engine&) = delete;
  simulation_engine& operator=(const simulation_engine&) = delete;

  const grid2d& grid() const { return solver_.grid(); }
  const pml_spec& pml() const { return pml_; }
  double k0() const { return solver_.k0(); }
  const array2d<double>& eps() const { return solver_.eps(); }
  const engine_settings& settings() const { return settings_; }
  const char* backend_name() const { return backend_->name(); }

  /// The wrapped FDFD solver (stretch profiles, CSR assembly, gradients).
  const fdfd::fdfd_solver& solver() const { return solver_; }

  /// Solve A e = b for one current-density excitation.
  array2d<cplx> solve_excitation(const array2d<cplx>& current_density) const;

  /// Batched forward solves: one field per excitation, all pushed through
  /// the prepared operator together.
  std::vector<array2d<cplx>> solve_excitations(
      const std::vector<array2d<cplx>>& current_densities) const;

  /// Solve the adjoint system A lambda = g for one sparse field gradient.
  array2d<cplx> solve_adjoint(const fdfd::field_gradient& g) const;

  /// Batched adjoint solves for the monitor gradients of one corner.
  std::vector<array2d<cplx>> solve_adjoints(
      const std::vector<fdfd::field_gradient>& gradients) const;

  /// Accumulate dF/deps from one (forward, adjoint) field pair.
  void accumulate_eps_gradient(const array2d<cplx>& field,
                               const array2d<cplx>& adjoint_field,
                               array2d<double>& grad) const {
    solver_.accumulate_eps_gradient(field, adjoint_field, grad);
  }

 private:
  std::vector<array2d<cplx>> solve_batch(std::vector<cvec> rhs) const;

  pml_spec pml_;
  engine_settings settings_;
  fdfd::fdfd_solver solver_;
  std::unique_ptr<linear_backend> backend_;
};

}  // namespace boson::sim
