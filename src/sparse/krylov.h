#pragma once

#include <cstddef>
#include <functional>

#include "common/types.h"
#include "sparse/csr.h"

namespace boson::sp {

/// Matrix-free linear operator (or preconditioner application) used by the
/// flexible solver entry points: the nearby-operator reuse path passes the
/// perturbed operator as a CSR matvec and a *nominal* banded LU solve as the
/// preconditioner. An empty function means the identity.
using linear_op = std::function<cvec(const cvec&)>;

/// Zero-fill incomplete LU factorization of a complex CSR matrix, used to
/// precondition BiCGSTAB. Kept as an alternative solve path for grids whose
/// bandwidth makes the direct banded factorization unattractive.
class ilu0 {
 public:
  explicit ilu0(const csr_c& a);

  /// Apply z = (LU)^{-1} r.
  cvec apply(const cvec& r) const;

 private:
  csr_c factors_;               // L (unit diagonal, strictly lower) and U share the pattern of A
  std::vector<std::size_t> diag_;  // position of the diagonal entry in each row
};

/// Outcome of an iterative solve.
struct krylov_result {
  bool converged = false;
  std::size_t iterations = 0;
  double relative_residual = 0.0;
};

/// Preconditioned BiCGSTAB for complex non-Hermitian systems. `x` carries the
/// initial guess in and the solution out.
krylov_result bicgstab(const csr_c& a, const cvec& b, cvec& x, const ilu0* precond,
                       double tol = 1e-8, std::size_t max_iterations = 2000);

/// Restarted GMRES(m) with optional left ILU(0) preconditioning. More robust
/// than BiCGSTAB on strongly indefinite Helmholtz systems at the cost of
/// storing `restart` basis vectors.
krylov_result gmres(const csr_c& a, const cvec& b, cvec& x, const ilu0* precond,
                    std::size_t restart = 60, double tol = 1e-8,
                    std::size_t max_iterations = 2000);

/// Matrix-free restarted GMRES(m) with optional left preconditioning (empty
/// `precond` = none). This is the outer loop of the nearby-operator reuse
/// path: with M = LU of a *nominal* operator and A a diagonally-perturbed
/// corner operator, M^{-1} A is a low-rank perturbation of the identity and
/// the iteration converges in roughly one step per perturbed cell or better.
/// `x` carries the initial guess in and the solution out; the convergence
/// test is on the preconditioned residual (callers that need the true
/// residual check it on return).
krylov_result gmres(const linear_op& a, const cvec& b, cvec& x, const linear_op& precond,
                    std::size_t restart = 60, double tol = 1e-8,
                    std::size_t max_iterations = 2000);

}  // namespace boson::sp
