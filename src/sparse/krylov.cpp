#include "sparse/krylov.h"

#include <cmath>

#include "common/error.h"
#include "linalg/vec.h"

namespace boson::sp {

ilu0::ilu0(const csr_c& a) : factors_(a), diag_(a.rows(), 0) {
  require(a.rows() == a.cols(), "ilu0: matrix must be square");
  const auto& row_ptr = factors_.row_ptr();
  const auto& col = factors_.col_index();
  auto& val = factors_.values();
  const std::size_t n = factors_.rows();

  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if (col[k] == i) {
        diag_[i] = k;
        found = true;
        break;
      }
    }
    check_numeric(found, "ilu0: missing diagonal entry");
  }

  // IKJ-variant incomplete factorization restricted to the pattern of A.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1] && col[k] < i; ++k) {
      const std::size_t j = col[k];
      const cplx pivot = val[diag_[j]];
      check_numeric(std::abs(pivot) > 1e-300, "ilu0: zero pivot");
      const cplx lij = val[k] / pivot;
      val[k] = lij;
      // Subtract lij * U(j, *) from row i, only where row i has entries.
      std::size_t pj = diag_[j] + 1;
      std::size_t pi = k + 1;
      while (pj < row_ptr[j + 1] && pi < row_ptr[i + 1]) {
        if (col[pj] == col[pi]) {
          val[pi] -= lij * val[pj];
          ++pj;
          ++pi;
        } else if (col[pj] < col[pi]) {
          ++pj;
        } else {
          ++pi;
        }
      }
    }
  }
}

cvec ilu0::apply(const cvec& r) const {
  const auto& row_ptr = factors_.row_ptr();
  const auto& col = factors_.col_index();
  const auto& val = factors_.values();
  const std::size_t n = factors_.rows();
  require(r.size() == n, "ilu0::apply: size mismatch");

  cvec z = r;
  // L z = r (unit lower triangular)
  for (std::size_t i = 0; i < n; ++i) {
    cplx acc = z[i];
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1] && col[k] < i; ++k)
      acc -= val[k] * z[col[k]];
    z[i] = acc;
  }
  // U x = z
  for (std::size_t ii = n; ii-- > 0;) {
    cplx acc = z[ii];
    for (std::size_t k = diag_[ii] + 1; k < row_ptr[ii + 1]; ++k)
      acc -= val[k] * z[col[k]];
    z[ii] = acc / val[diag_[ii]];
  }
  return z;
}

krylov_result bicgstab(const csr_c& a, const cvec& b, cvec& x, const ilu0* precond,
                       double tol, std::size_t max_iterations) {
  require(a.rows() == a.cols(), "bicgstab: matrix must be square");
  require(b.size() == a.rows(), "bicgstab: rhs size mismatch");
  if (x.size() != b.size()) x.assign(b.size(), cplx{});

  const double b_norm = la::nrm2(b);
  krylov_result result;
  if (b_norm == 0.0) {
    x.assign(b.size(), cplx{});
    result.converged = true;
    return result;
  }

  cvec r = a.matvec(x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  cvec r_hat = r;
  cvec p(r.size(), cplx{});
  cvec v(r.size(), cplx{});
  cplx rho_prev{1.0};
  cplx alpha{1.0};
  cplx omega{1.0};

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const cplx rho = la::dot(r_hat, r);
    if (std::abs(rho) < 1e-300) break;  // breakdown
    if (iter == 0) {
      p = r;
    } else {
      const cplx beta = (rho / rho_prev) * (alpha / omega);
      for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    const cvec p_hat = precond ? precond->apply(p) : p;
    v = a.matvec(p_hat);
    const cplx denom = la::dot(r_hat, v);
    if (std::abs(denom) < 1e-300) break;
    alpha = rho / denom;

    cvec s = r;
    for (std::size_t i = 0; i < s.size(); ++i) s[i] -= alpha * v[i];
    if (la::nrm2(s) / b_norm < tol) {
      for (std::size_t i = 0; i < x.size(); ++i) x[i] += alpha * p_hat[i];
      result.converged = true;
      result.iterations = iter + 1;
      result.relative_residual = la::nrm2(s) / b_norm;
      return result;
    }

    const cvec s_hat = precond ? precond->apply(s) : s;
    const cvec t = a.matvec(s_hat);
    const double t_norm2 = la::nrm2(t);
    if (t_norm2 < 1e-300) break;
    omega = la::dot(t, s) / (t_norm2 * t_norm2);

    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] += alpha * p_hat[i] + omega * s_hat[i];
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = s[i] - omega * t[i];

    const double rel = la::nrm2(r) / b_norm;
    result.iterations = iter + 1;
    result.relative_residual = rel;
    if (rel < tol) {
      result.converged = true;
      return result;
    }
    if (std::abs(omega) < 1e-300) break;
    rho_prev = rho;
  }

  // Report the final residual even when not converged.
  cvec r_final = a.matvec(x);
  for (std::size_t i = 0; i < r_final.size(); ++i) r_final[i] = b[i] - r_final[i];
  result.relative_residual = la::nrm2(r_final) / b_norm;
  result.converged = result.relative_residual < tol;
  return result;
}

krylov_result gmres(const csr_c& a, const cvec& b, cvec& x, const ilu0* precond,
                    std::size_t restart, double tol, std::size_t max_iterations) {
  require(a.rows() == a.cols(), "gmres: matrix must be square");
  require(b.size() == a.rows(), "gmres: rhs size mismatch");
  const linear_op op = [&a](const cvec& v) { return a.matvec(v); };
  linear_op m;
  if (precond != nullptr) m = [precond](const cvec& r) { return precond->apply(r); };
  return gmres(op, b, x, m, restart, tol, max_iterations);
}

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
