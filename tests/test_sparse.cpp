#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/dense.h"
#include "linalg/vec.h"
#include "sparse/banded.h"
#include "sparse/csr.h"
#include "sparse/krylov.h"

namespace boson::sp {
namespace {

// ------------------------------------------------------------------ csr ----

TEST(csr, builds_and_sums_duplicates) {
  std::vector<triplet<double>> t{{0, 0, 1.0}, {0, 0, 2.0}, {1, 2, 4.0}};
  csr_d a(2, 3, t);
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

TEST(csr, matvec_matches_dense) {
  rng r(5);
  const std::size_t n = 12;
  std::vector<triplet<cplx>> t;
  la::cmat dense(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (r.uniform(0, 1) < 0.3) {
        const cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
        t.push_back({i, j, v});
        dense(i, j) = v;
      }
  csr_c a(n, n, t);
  cvec x(n);
  for (auto& v : x) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto ys = a.matvec(x);
  const auto yd = dense.matvec(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(ys[i] - yd[i]), 0.0, 1e-12);
}

TEST(csr, matvec_transpose_is_adjoint_of_matvec) {
  rng r(6);
  const std::size_t n = 10;
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (r.uniform(0, 1) < 0.4) t.push_back({i, j, cplx(r.uniform(-1, 1), r.uniform(-1, 1))});
  csr_c a(n, n, t);
  cvec x(n), y(n);
  for (auto& v : x) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  for (auto& v : y) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  // <A x, y>_u = <x, A^T y>_u with the unconjugated pairing.
  const cplx lhs = la::dotu(a.matvec(x), y);
  const cplx rhs = la::dotu(x, a.matvec_transpose(y));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-12);
}

TEST(csr, rejects_out_of_range_entries) {
  std::vector<triplet<double>> t{{2, 0, 1.0}};
  EXPECT_THROW(csr_d(2, 2, t), bad_argument);
}

TEST(csr, asymmetry_of_symmetric_matrix_is_zero) {
  std::vector<triplet<cplx>> t{
      {0, 1, {1.0, 2.0}}, {1, 0, {1.0, 2.0}}, {0, 0, {3.0, 0.0}}, {1, 1, {4.0, 1.0}}};
  csr_c a(2, 2, t);
  EXPECT_NEAR(a.asymmetry(), 0.0, 1e-15);
  std::vector<triplet<cplx>> t2{{0, 1, {1.0, 0.0}}, {1, 0, {2.0, 0.0}}};
  // Need diagonals for at() lookups to stay in range — they are optional.
  csr_c b(2, 2, t2);
  EXPECT_NEAR(b.asymmetry(), 1.0, 1e-15);
}

// --------------------------------------------------------------- banded ----

struct band_case {
  std::size_t n;
  std::size_t kl;
  std::size_t ku;
};

class banded_sizes : public ::testing::TestWithParam<band_case> {};

TEST_P(banded_sizes, lu_matches_dense_solution) {
  const auto [n, kl, ku] = GetParam();
  rng r(1000 + n + kl);
  banded_lu banded(n, kl, ku);
  la::cmat dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kl < i || i + ku < j) continue;
      cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      if (i == j) v += cplx(4.0, 0.0);
      banded.add(i, j, v);
      dense(i, j) = v;
    }
  }
  cvec b(n);
  for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));

  banded.factor();
  const cvec x = banded.solve(b);
  const cvec x_ref = la::lu_solve(dense, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_ref[i]), 0.0, 1e-9);
}

TEST_P(banded_sizes, residual_is_small_without_diagonal_dominance) {
  const auto [n, kl, ku] = GetParam();
  rng r(2000 + n + ku);
  banded_lu banded(n, kl, ku);
  la::cmat dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kl < i || i + ku < j) continue;
      const cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      banded.add(i, j, v);
      dense(i, j) = v;
    }
  }
  cvec b(n);
  for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  banded.factor();  // partial pivoting must handle weak diagonals
  const cvec x = banded.solve(b);
  const auto ax = dense.matvec(x);
  double res = 0.0;
  for (std::size_t i = 0; i < n; ++i) res = std::max(res, std::abs(ax[i] - b[i]));
  EXPECT_LT(res, 1e-8 * (1.0 + la::max_abs(x)));
}

INSTANTIATE_TEST_SUITE_P(shapes, banded_sizes,
                         ::testing::Values(band_case{6, 1, 1}, band_case{20, 3, 3},
                                           band_case{40, 5, 2}, band_case{40, 2, 5},
                                           band_case{100, 10, 10}, band_case{64, 8, 8}));

TEST(banded, multi_rhs_solve_matches_single_rhs_solves) {
  rng r(321);
  const std::size_t n = 60, kl = 6, ku = 4, nrhs = 5;
  banded_lu banded(n, kl, ku);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kl < i || i + ku < j) continue;
      cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      if (i == j) v += cplx(3.0, 0.0);
      banded.add(i, j, v);
    }
  }
  banded.factor();

  std::vector<cvec> bs(nrhs, cvec(n));
  for (auto& b : bs)
    for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));

  const std::vector<cvec> xs = banded.solve(bs);
  ASSERT_EQ(xs.size(), nrhs);
  for (std::size_t k = 0; k < nrhs; ++k) {
    const cvec x_single = banded.solve(bs[k]);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(xs[k][i] - x_single[i]), 0.0, 1e-10)
          << "rhs " << k << " row " << i;
  }
}

TEST(banded, multi_rhs_solve_handles_empty_and_singleton_batches) {
  banded_lu banded(4, 1, 1);
  for (std::size_t i = 0; i < 4; ++i) banded.add(i, i, cplx{2.0});
  banded.factor();
  EXPECT_TRUE(banded.solve(std::vector<cvec>{}).empty());
  const auto xs = banded.solve(std::vector<cvec>{cvec(4, cplx{1.0})});
  ASSERT_EQ(xs.size(), 1u);
  for (const auto& v : xs[0]) EXPECT_NEAR(std::abs(v - cplx{0.5}), 0.0, 1e-14);
}

TEST(banded, matvec_matches_dense) {
  const std::size_t n = 15, k = 3;
  rng r(9);
  banded_lu banded(n, k, k);
  la::cmat dense(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = (i > k ? i - k : 0); j <= std::min(i + k, n - 1); ++j) {
      const cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      banded.add(i, j, v);
      dense(i, j) = v;
    }
  cvec x(n);
  for (auto& v : x) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto yb = banded.matvec(x);
  const auto yd = dense.matvec(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(yb[i] - yd[i]), 0.0, 1e-12);
}

TEST(banded, add_outside_band_throws) {
  banded_lu a(10, 2, 2);
  EXPECT_THROW(a.add(0, 5, cplx{1.0}), bad_argument);
  EXPECT_THROW(a.add(5, 0, cplx{1.0}), bad_argument);
  EXPECT_NO_THROW(a.add(0, 2, cplx{1.0}));
}

TEST(banded, solve_requires_factorization) {
  banded_lu a(4, 1, 1);
  for (std::size_t i = 0; i < 4; ++i) a.add(i, i, cplx{1.0});
  EXPECT_THROW(a.solve(cvec(4)), bad_argument);
  a.factor();
  EXPECT_TRUE(a.factored());
  EXPECT_THROW(a.add(0, 0, cplx{1.0}), bad_argument);  // frozen after factor
}

TEST(banded, singular_matrix_throws) {
  banded_lu a(3, 1, 1);
  a.add(0, 0, cplx{1.0});
  a.add(2, 2, cplx{1.0});  // row/col 1 entirely zero
  EXPECT_THROW(a.factor(), numeric_error);
}

TEST(banded, identity_solve_is_identity) {
  const std::size_t n = 8;
  banded_lu a(n, 2, 2);
  for (std::size_t i = 0; i < n; ++i) a.add(i, i, cplx{1.0});
  a.factor();
  cvec b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = cplx(static_cast<double>(i), -1.0);
  const auto x = a.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - b[i]), 0.0, 1e-14);
}

TEST(banded, pivoting_handles_zero_leading_diagonal) {
  // [[0, 1], [1, 0]] requires an interchange at the first step.
  banded_lu a(2, 1, 1);
  a.add(0, 1, cplx{1.0});
  a.add(1, 0, cplx{1.0});
  a.factor();
  const auto x = a.solve(cvec{cplx{3.0}, cplx{5.0}});
  EXPECT_NEAR(std::abs(x[0] - cplx{5.0}), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(x[1] - cplx{3.0}), 0.0, 1e-14);
}

// --------------------------------------------------------------- krylov ----

csr_c random_banded_csr(std::size_t n, std::size_t band, std::uint64_t seed,
                        double diag_boost) {
  rng r(seed);
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > band ? i - band : 0); j <= std::min(i + band, n - 1); ++j) {
      cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      if (i == j) v += cplx(diag_boost, 0.0);
      t.push_back({i, j, v});
    }
  }
  return csr_c(n, n, t);
}

TEST(krylov, bicgstab_unpreconditioned_converges) {
  const std::size_t n = 60;
  const auto a = random_banded_csr(n, 2, 31, 6.0);
  rng r(32);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);
  cvec x;
  const auto res = bicgstab(a, b, x, nullptr, 1e-10, 500);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-6);
}

TEST(krylov, ilu0_preconditioning_reduces_iterations) {
  const std::size_t n = 150;
  const auto a = random_banded_csr(n, 3, 77, 4.0);
  rng r(78);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);

  cvec x_plain, x_prec;
  const auto plain = bicgstab(a, b, x_plain, nullptr, 1e-10, 2000);
  const ilu0 prec(a);
  const auto preconditioned = bicgstab(a, b, x_prec, &prec, 1e-10, 2000);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(preconditioned.converged);
  EXPECT_LT(preconditioned.iterations, plain.iterations);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x_prec[i] - x_true[i]), 0.0, 1e-6);
}

TEST(krylov, ilu0_exact_for_triangular_pattern) {
  // For a lower-triangular matrix ILU(0) is an exact factorization, so one
  // application solves the system.
  const std::size_t n = 20;
  rng r(55);
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({i, i, cplx(3.0 + r.uniform(0, 1), r.uniform(-1, 1))});
    if (i > 0) t.push_back({i, i - 1, cplx(r.uniform(-1, 1), 0.0)});
  }
  csr_c a(n, n, t);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);
  const ilu0 prec(a);
  const auto x = prec.apply(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-10);
}

TEST(krylov, zero_rhs_returns_zero) {
  const auto a = random_banded_csr(10, 2, 3, 5.0);
  cvec x(10, cplx{1.0});
  const auto res = bicgstab(a, cvec(10), x, nullptr);
  EXPECT_TRUE(res.converged);
  for (const auto& v : x) EXPECT_EQ(v, cplx{});
}

TEST(krylov, ilu0_requires_diagonal) {
  std::vector<triplet<cplx>> t{{0, 1, cplx{1.0}}, {1, 0, cplx{1.0}}};
  csr_c a(2, 2, t);
  EXPECT_THROW(ilu0 prec(a), numeric_error);
}

class gmres_systems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(gmres_systems, converges_and_matches_truth) {
  const std::size_t n = GetParam();
  const auto a = random_banded_csr(n, 3, 400 + n, 5.0);
  rng r(401 + n);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);
  cvec x;
  const auto res = gmres(a, b, x, nullptr, 40, 1e-10, 2000);
  ASSERT_TRUE(res.converged) << "residual " << res.relative_residual;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(sizes, gmres_systems, ::testing::Values(10, 50, 120));

TEST(krylov, gmres_with_ilu0_preconditioning) {
  const std::size_t n = 150;
  const auto a = random_banded_csr(n, 3, 501, 4.0);
  rng r(502);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);
  const ilu0 prec(a);
  cvec x_plain, x_prec;
  const auto plain = gmres(a, b, x_plain, nullptr, 30, 1e-10, 2000);
  const auto preconditioned = gmres(a, b, x_prec, &prec, 30, 1e-10, 2000);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(preconditioned.converged);
  EXPECT_LE(preconditioned.iterations, plain.iterations);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x_prec[i] - x_true[i]), 0.0, 1e-6);
}

TEST(krylov, gmres_restart_still_converges) {
  // A restart shorter than the natural Krylov dimension must still reach the
  // solution through repeated cycles.
  const std::size_t n = 80;
  const auto a = random_banded_csr(n, 2, 600, 6.0);
  rng r(601);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);
  cvec x;
  const auto res = gmres(a, b, x, nullptr, 5, 1e-9, 4000);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-5);
}

TEST(krylov, gmres_zero_rhs_returns_zero) {
  const auto a = random_banded_csr(12, 2, 700, 5.0);
  cvec x(12, cplx{1.0});
  const auto res = gmres(a, cvec(12), x, nullptr);
  EXPECT_TRUE(res.converged);
  for (const auto& v : x) EXPECT_EQ(v, cplx{});
}

TEST(krylov, gmres_and_bicgstab_agree) {
  const std::size_t n = 60;
  const auto a = random_banded_csr(n, 3, 800, 5.0);
  rng r(801);
  cvec b(n);
  for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  cvec xg, xb;
  ASSERT_TRUE(gmres(a, b, xg, nullptr, 40, 1e-11, 2000).converged);
  ASSERT_TRUE(bicgstab(a, b, xb, nullptr, 1e-11, 2000).converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(xg[i] - xb[i]), 0.0, 1e-6);
}

// ------------------------------------------------ batched solve identities ----

/// Random well-conditioned banded operator shared by the bit-identity tests.
banded_lu random_banded_lu(std::size_t n, std::size_t kl, std::size_t ku,
                           std::uint64_t seed) {
  rng r(seed);
  banded_lu a(n, kl, ku);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kl < i || i + ku < j) continue;
      cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      if (i == j) v += cplx(4.0, 0.5);
      a.add(i, j, v);
    }
  }
  a.factor();
  return a;
}

TEST(banded, empty_batch_returns_empty_batch) {
  const banded_lu a = random_banded_lu(24, 4, 3, 1234);
  EXPECT_TRUE(a.solve(std::vector<cvec>{}).empty());
}

TEST(banded, singleton_batch_is_bit_identical_to_scalar_solve) {
  const banded_lu a = random_banded_lu(48, 6, 6, 77);
  rng r(78);
  cvec b(48);
  for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const cvec scalar = a.solve(b);
  const auto batch = a.solve(std::vector<cvec>{b});
  ASSERT_EQ(batch.size(), 1u);
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(batch[0][i], scalar[i]) << "row " << i;
}

TEST(banded, packed_batch_matches_scalar_solves_to_rounding) {
  // The packed block substitution streams each LU coefficient across the
  // whole batch, so the accumulation order differs from the scalar path by
  // rounding only (the m == 1 case above is the bit-exact delegation).
  const banded_lu a = random_banded_lu(64, 8, 8, 555);
  rng r(556);
  std::vector<cvec> bs(7, cvec(64));
  for (auto& b : bs)
    for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto batch = a.solve(bs);
  ASSERT_EQ(batch.size(), bs.size());
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const cvec scalar = a.solve(bs[k]);
    for (std::size_t i = 0; i < scalar.size(); ++i)
      EXPECT_NEAR(std::abs(batch[k][i] - scalar[i]), 0.0, 1e-12)
          << "rhs " << k << " row " << i;
  }
}

// -------------------------------------------------- matrix-free gmres ------

TEST(krylov, matrix_free_gmres_matches_csr_overload) {
  const std::size_t n = 50;
  const auto a = random_banded_csr(n, 3, 900, 5.0);
  rng r(901);
  cvec b(n);
  for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));

  cvec x_csr, x_op;
  const auto res_csr = gmres(a, b, x_csr, nullptr, 30, 1e-10, 2000);
  const linear_op op = [&a](const cvec& v) { return a.matvec(v); };
  const auto res_op = gmres(op, b, x_op, linear_op{}, 30, 1e-10, 2000);
  ASSERT_TRUE(res_csr.converged);
  ASSERT_TRUE(res_op.converged);
  EXPECT_EQ(res_op.iterations, res_csr.iterations);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_op[i], x_csr[i]) << "row " << i;
}

TEST(krylov, gmres_accepts_converged_initial_guess_without_touching_x) {
  const std::size_t n = 40;
  const auto a = random_banded_csr(n, 2, 910, 6.0);
  rng r(911);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const cvec b = a.matvec(x_true);
  cvec x = x_true;  // start at the answer
  const linear_op op = [&a](const cvec& v) { return a.matvec(v); };
  const auto res = gmres(op, b, x, linear_op{}, 30, 1e-10, 2000);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(x[i], x_true[i]) << "x must be returned untouched at row " << i;
}

TEST(krylov, nominal_lu_preconditioner_resolves_diagonal_perturbation_quickly) {
  // The nearby-operator reuse identity: with M = LU(A_nom) and
  // A = A_nom + D where D hits c diagonal entries, M^{-1} A is a rank-c
  // perturbation of the identity, so left-preconditioned GMRES needs about
  // c + 1 iterations regardless of the grid size.
  const std::size_t n = 100, band = 5, c = 4;
  rng r(920);
  banded_lu nominal(n, band, band);
  std::vector<triplet<cplx>> entries;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > band ? i - band : 0); j <= std::min(i + band, n - 1);
         ++j) {
      cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      if (i == j) v += cplx(5.0, 0.5);
      nominal.add(i, j, v);
      entries.push_back({i, j, v});
    }
  }
  for (std::size_t k = 0; k < c; ++k)  // perturbed operator: c diagonal bumps
    entries.push_back({11 + 13 * k, 11 + 13 * k, cplx(2.5, -0.75)});
  const csr_c perturbed(n, n, entries);
  nominal.factor();

  cvec b(n);
  for (auto& v : b) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  cvec x = nominal.solve(b);  // warm start from the nominal factorization
  const linear_op op = [&perturbed](const cvec& v) { return perturbed.matvec(v); };
  const linear_op pre = [&nominal](const cvec& v) { return nominal.solve(v); };
  const auto res = gmres(op, b, x, pre, 32, 1e-11, 32);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.iterations, c + 2);

  cvec ax = perturbed.matvec(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, std::abs(ax[i] - b[i]));
  EXPECT_LT(worst, 1e-8 * (1.0 + la::nrm2(b)));
}

}  // namespace
}  // namespace boson::sp
