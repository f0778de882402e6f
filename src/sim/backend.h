/// \file backend.h
/// Pluggable linear-solver backends for the FDFD simulation engine. One
/// `linear_backend` wraps one prepared operator (banded LU factorization or
/// CSR + ILU(0)) and answers batched solves; `backend_kind` selects among the
/// banded direct solver and the ILU(0)-preconditioned Krylov methods, with a
/// `BOSON_BACKEND` environment override for experiments.

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace boson::fdfd {
class fdfd_solver;
}

namespace boson::sim {

/// Which linear solver answers the FDFD systems of one engine.
enum class backend_kind {
  banded,    ///< direct banded LU with partial pivoting (default)
  bicgstab,  ///< ILU(0)-preconditioned BiCGSTAB on the CSR operator
  gmres,     ///< ILU(0)-preconditioned restarted GMRES on the CSR operator
};

const char* to_string(backend_kind kind);

/// Parse a backend name ("banded"/"direct"/"lu", "bicgstab", "gmres").
/// Throws `bad_argument` on anything else.
backend_kind backend_from_string(const std::string& name);

/// Backend selected by the BOSON_BACKEND environment variable, `banded` when
/// unset. Re-read on every call so drivers and tests can switch at runtime.
backend_kind default_backend();

/// Per-engine solver configuration. The iterative controls are ignored by
/// the banded direct backend.
struct engine_settings {
  backend_kind backend = default_backend();
  double tol = 1e-10;                ///< iterative relative-residual target
  std::size_t max_iterations = 4000; ///< iterative iteration cap
  std::size_t gmres_restart = 80;    ///< GMRES restart length
};

/// A prepared linear solver for one FDFD operator. Preparation (banded
/// factorization or ILU(0) setup) happens in `make_backend`; `solve` is
/// const and safe to call from several threads concurrently.
class linear_backend {
 public:
  virtual ~linear_backend() = default;

  virtual const char* name() const = 0;

  /// Solve A x = b for every right-hand side of one batch; returns the
  /// solutions in order. Iterative backends throw `numeric_error` when a
  /// solve fails to reach the residual target.
  virtual std::vector<cvec> solve(const std::vector<cvec>& rhs) const = 0;
};

/// Prepare the backend selected by `settings` for the solver's operator.
/// The returned backend references `solver` and must not outlive it.
std::unique_ptr<linear_backend> make_backend(const fdfd::fdfd_solver& solver,
                                             const engine_settings& settings);

class simulation_engine;

/// Nearby-operator backend: serves `solver`'s (perturbed) operator without
/// factoring it, by applying the `nominal` engine's banded LU as a left
/// preconditioner inside a short GMRES outer loop on the perturbed CSR
/// operator. A right-hand side that misses the true-residual target within
/// a fixed iteration cap falls back to a full preparation of the perturbed
/// operator; both outcomes depend only on the two operators and the
/// right-hand sides. The outer iterations and fallbacks are counted in the
/// `sim.reuse.refinement_iterations` / `sim.reuse.fallbacks` metrics. The
/// returned backend references `solver` and keeps `nominal` alive.
std::unique_ptr<linear_backend> make_nearby_backend(
    const fdfd::fdfd_solver& solver, const engine_settings& settings,
    std::shared_ptr<const simulation_engine> nominal);

}  // namespace boson::sim
