#include "sparse/krylov.h"

#include <cmath>

#include "common/error.h"
#include "linalg/vec.h"

namespace boson::sp {

krylov_result gmres(const linear_op& a, const cvec& b, cvec& x, const linear_op& precond,
                    std::size_t restart, double tol, std::size_t max_iterations) {
  require(static_cast<bool>(a), "gmres: operator required");
  require(restart >= 2, "gmres: restart must be >= 2");
  const std::size_t n = b.size();
  if (x.size() != n) x.assign(n, cplx{});

  auto apply = [&](const cvec& v) {
    cvec av = a(v);
    return precond ? precond(av) : av;
  };
  const cvec pb = precond ? precond(b) : b;
  const double pb_norm = la::nrm2(pb);
  krylov_result result;
  if (pb_norm == 0.0) {
    x.assign(n, cplx{});
    result.converged = true;
    return result;
  }

  // A zero initial guess needs no operator application for its residual.
  bool x_is_zero = true;
  for (const cplx& v : x) x_is_zero = x_is_zero && v == cplx{};

  std::size_t total_iterations = 0;
  while (total_iterations < max_iterations) {
    // Arnoldi basis and Hessenberg factor for this cycle.
    cvec r = pb;
    if (!x_is_zero) {
      const cvec ax = apply(x);
      for (std::size_t i = 0; i < n; ++i) r[i] -= ax[i];
    }
    x_is_zero = false;
    const double beta = la::nrm2(r);
    result.relative_residual = beta / pb_norm;
    if (result.relative_residual < tol) {
      result.converged = true;
      return result;
    }

    std::vector<cvec> basis;
    basis.reserve(restart + 1);
    basis.push_back(r);
    for (auto& v : basis[0]) v /= beta;

    std::vector<cvec> hessenberg;  // column j holds the rotated H(0..j, j)
    std::vector<cplx> givens_c(restart), givens_s(restart);
    cvec g(restart + 1, cplx{});
    g[0] = beta;

    std::size_t k = 0;
    while (k < restart && total_iterations < max_iterations) {
      ++total_iterations;
      cvec w = apply(basis[k]);
      cvec h(k + 2, cplx{});
      for (std::size_t j = 0; j <= k; ++j) {  // modified Gram-Schmidt
        h[j] = la::dot(basis[j], w);
        for (std::size_t i = 0; i < n; ++i) w[i] -= h[j] * basis[j][i];
      }
      const double w_norm = la::nrm2(w);
      h[k + 1] = w_norm;

      // Apply the accumulated Givens rotations to the new column.
      for (std::size_t j = 0; j < k; ++j) {
        const cplx t = givens_c[j] * h[j] + givens_s[j] * h[j + 1];
        h[j + 1] = -std::conj(givens_s[j]) * h[j] + givens_c[j] * h[j + 1];
        h[j] = t;
      }
      // New rotation annihilating h[k+1].
      const double denom = std::sqrt(std::norm(h[k]) + std::norm(h[k + 1]));
      check_numeric(denom > 1e-300, "gmres: Arnoldi breakdown with zero column");
      givens_c[k] = std::abs(h[k]) / denom;
      const cplx phase = h[k] != cplx{} ? h[k] / std::abs(h[k]) : cplx{1.0};
      givens_s[k] = phase * std::conj(h[k + 1]) / denom;
      h[k] = givens_c[k] * h[k] + givens_s[k] * h[k + 1];
      h[k + 1] = cplx{};
      const cplx gk = g[k];
      g[k] = givens_c[k] * gk;
      g[k + 1] = -std::conj(givens_s[k]) * gk;
      hessenberg.push_back(std::move(h));
      ++k;

      result.relative_residual = std::abs(g[k]) / pb_norm;
      if (result.relative_residual < tol) break;       // converged this cycle
      if (w_norm < 1e-300) break;                      // happy breakdown
      if (k < restart) {
        for (auto& v : w) v /= w_norm;
        basis.push_back(std::move(w));
      }
    }

    // Solve the small triangular system and update x.
    cvec y(k, cplx{});
    for (std::size_t jj = k; jj-- > 0;) {
      cplx acc = g[jj];
      for (std::size_t l = jj + 1; l < k; ++l) acc -= hessenberg[l][jj] * y[l];
      y[jj] = acc / hessenberg[jj][jj];
    }
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t i = 0; i < n; ++i) x[i] += y[j] * basis[j][i];

    if (result.relative_residual < tol) {
      result.converged = true;
      result.iterations = total_iterations;
      return result;
    }
  }

  result.iterations = total_iterations;
  cvec r_final = a(x);
  for (std::size_t i = 0; i < n; ++i) r_final[i] = b[i] - r_final[i];
  result.relative_residual = la::nrm2(r_final) / la::nrm2(b);
  result.converged = result.relative_residual < tol;
  return result;
}

}  // namespace boson::sp
