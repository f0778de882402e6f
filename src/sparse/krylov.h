#pragma once

#include <cstddef>
#include <functional>

#include "common/types.h"

namespace boson::sp {

/// Matrix-free linear operator (or preconditioner application): the nearby
/// engine passes the perturbed operator as a CSR matvec and a *nominal*
/// factor's solve as the preconditioner. An empty function means the identity.
using linear_op = std::function<cvec(const cvec&)>;

/// Outcome of an iterative solve.
struct krylov_result {
  bool converged = false;
  std::size_t iterations = 0;
  double relative_residual = 0.0;
};

/// Matrix-free restarted GMRES(m) with optional left preconditioning (empty
/// `precond` = none). This is the outer loop of the nearby engine: with
/// M = L D Lᵀ of a *nominal* operator and A a diagonally-perturbed corner
/// operator, M^{-1} A is a low-rank perturbation of the identity and the
/// iteration converges in roughly one step per perturbed cell or better.
/// `x` carries the initial guess in and the solution out; the convergence
/// test is on the preconditioned residual (callers that need the true
/// residual check it on return).
krylov_result gmres(const linear_op& a, const cvec& b, cvec& x, const linear_op& precond,
                    std::size_t restart = 60, double tol = 1e-8,
                    std::size_t max_iterations = 2000);

}  // namespace boson::sp
