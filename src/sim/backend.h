/// \file backend.h
/// Linear-solver backends for the FDFD simulation engine. One
/// `linear_backend` wraps one prepared operator and answers batched solves:
/// the direct backend factors it (nested-dissection LU, `sp::grid_lu`), the
/// nearby backend serves a perturbed operator through a nominal engine's
/// factorization.

#pragma once

#include <memory>
#include <vector>

#include "common/types.h"

namespace boson::fdfd {
class fdfd_solver;
}

namespace boson::sim {

/// Per-engine solver configuration.
struct engine_settings {
  double tol = 1e-10;  ///< nearby backend's relative-residual target
};

/// A prepared linear solver for one FDFD operator. Preparation happens in
/// `make_backend` / `make_nearby_backend`; `solve` is const and safe to call
/// from several threads concurrently.
class linear_backend {
 public:
  virtual ~linear_backend() = default;

  virtual const char* name() const = 0;

  /// Solve A x = b for every right-hand side of one batch; returns the
  /// solutions in order.
  virtual std::vector<cvec> solve(const std::vector<cvec>& rhs) const = 0;
};

/// Factor the solver's operator (span `sim.factorize`) and serve its solves
/// through the blocked multi-RHS substitution. The returned backend
/// references `solver` and must not outlive it.
std::unique_ptr<linear_backend> make_backend(const fdfd::fdfd_solver& solver);

class simulation_engine;

/// Nearby-operator backend: serves `solver`'s (perturbed) operator without
/// factoring it, by applying the `nominal` engine's LU as a left
/// preconditioner inside a short GMRES outer loop on the perturbed CSR
/// operator. A right-hand side that misses the true-residual target within
/// a fixed iteration cap falls back to a full factorization of the perturbed
/// operator; both outcomes depend only on the two operators and the
/// right-hand sides. The outer iterations and fallbacks are counted in the
/// `sim.reuse.refinement_iterations` / `sim.reuse.fallbacks` metrics. The
/// returned backend references `solver` and keeps `nominal` alive.
std::unique_ptr<linear_backend> make_nearby_backend(
    const fdfd::fdfd_solver& solver, const engine_settings& settings,
    std::shared_ptr<const simulation_engine> nominal);

}  // namespace boson::sim
