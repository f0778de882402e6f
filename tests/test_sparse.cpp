#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/dense.h"
#include "linalg/vec.h"
#include "sparse/banded.h"
#include "sparse/csr.h"
#include "sparse/krylov.h"
#include "sparse/multifrontal.h"

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

/// The operator as a matrix-free linear_op.
linear_op as_op(const csr_c& a) {
  return [&a](const cvec& v) { return a.matvec(v); };
}

TEST(krylov, zero_rhs_returns_zero) {
  // A zero right-hand side stays zero through the preconditioner too.
  const auto a = random_banded_csr(10, 2, 3, 5.0);
  cvec x(10, cplx{1.0});
  const linear_op jacobi = [&a](const cvec& r) {
    cvec z(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / a.at(i, i);
    return z;
  };
  const auto res = gmres(as_op(a), cvec(10), x, jacobi);
  EXPECT_TRUE(res.converged);
  for (const auto& v : x) EXPECT_EQ(v, cplx{});
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
  const auto res = gmres(as_op(a), b, x, linear_op{}, 40, 1e-10, 2000);
  ASSERT_TRUE(res.converged) << "residual " << res.relative_residual;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(sizes, gmres_systems, ::testing::Values(10, 50, 120));

TEST(krylov, gmres_left_preconditioning_reduces_iterations) {
  // A strongly varying diagonal slows plain GMRES; Jacobi left
  // preconditioning clusters the spectrum.
  const std::size_t n = 150;
  std::vector<triplet<cplx>> t;
  rng r(501);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > 3 ? i - 3 : 0); j <= std::min(i + 3, n - 1); ++j) {
      cplx v(r.uniform(-1, 1), r.uniform(-1, 1));
      if (i == j) v += cplx(8.0 * (1.0 + static_cast<double>(i % 17)), 0.0);
      t.push_back({i, j, v});
    }
  }
  const csr_c a(n, n, t);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const auto b = a.matvec(x_true);
  const linear_op jacobi = [&a](const cvec& v) {
    cvec z(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) z[i] = v[i] / a.at(i, i);
    return z;
  };
  cvec x_plain, x_prec;
  const auto plain = gmres(as_op(a), b, x_plain, linear_op{}, 30, 1e-10, 2000);
  const auto preconditioned = gmres(as_op(a), b, x_prec, jacobi, 30, 1e-10, 2000);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(preconditioned.converged);
  EXPECT_LT(preconditioned.iterations, plain.iterations);
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
  const auto res = gmres(as_op(a), b, x, linear_op{}, 5, 1e-9, 4000);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 5u) << "the solve must span more than one restart cycle";
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-5);
}

TEST(krylov, gmres_zero_rhs_returns_zero) {
  const auto a = random_banded_csr(12, 2, 700, 5.0);
  cvec x(12, cplx{1.0});
  const auto res = gmres(as_op(a), cvec(12), x, linear_op{});
  EXPECT_TRUE(res.converged);
  for (const auto& v : x) EXPECT_EQ(v, cplx{});
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

// ---------------------------------------------- nested-dissection LDLᵀ ----

/// Complex-symmetric 5-point operator on an nx x ny grid (unknown ix*ny+iy),
/// Helmholtz-like: an indefinite real part and a positive imaginary diagonal
/// (which keeps it nonsingular), with real symmetric couplings.
csr_c random_grid_operator(std::size_t nx, std::size_t ny, std::uint64_t seed) {
  rng r(seed);
  std::vector<triplet<cplx>> t;
  const auto couple = [&](std::size_t i, std::size_t j) {
    const cplx v(-1.0 + 0.3 * r.uniform(-1, 1), 0.0);
    t.push_back({i, j, v});
    t.push_back({j, i, v});
  };
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t i = ix * ny + iy;
      t.push_back({i, i, cplx(r.uniform(-4.0, 4.0), r.uniform(0.1, 1.0))});
      if (iy + 1 < ny) couple(i, i + 1);
      if (ix + 1 < nx) couple(i, i + ny);
    }
  }
  return csr_c(nx * ny, nx * ny, std::move(t));
}

/// The banded LU of the same operator (bandwidth ny): the test oracle.
banded_lu banded_oracle(const csr_c& a, std::size_t ny) {
  banded_lu lu(a.rows(), ny, ny);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
      lu.add(i, a.col_index()[k], a.values()[k]);
  lu.factor();
  return lu;
}

cvec random_cvec(std::size_t n, std::uint64_t seed) {
  rng r(seed);
  cvec v(n);
  for (auto& x : v) x = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  return v;
}

/// Relative 2-norm distance |x - y| / |y|.
double rel_diff(const cvec& x, const cvec& y) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += std::norm(x[i] - y[i]);
    den += std::norm(y[i]);
  }
  return std::sqrt(num / den);
}

/// `a` with the diagonal zeroed on the cells (ix, iy) with ix, iy < corner.
csr_c zero_corner_diagonal(const csr_c& a, std::size_t ny, std::size_t corner) {
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const bool zero = i / ny < corner && i % ny < corner;
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
      t.push_back({i, a.col_index()[k], zero && a.col_index()[k] == i ? cplx{} : a.values()[k]});
  }
  return csr_c(a.rows(), a.cols(), std::move(t));
}

struct grid_case {
  std::size_t nx;
  std::size_t ny;
  /// Zero the diagonal on this corner square. On a 9 x 9 grid, 4 covers
  /// exactly the first leaf region, whose own block then admits no 1x1 pivot
  /// at its first step: the factorization must take a 2x2 one.
  std::size_t zero_corner = 0;
};

class grid_ldlt_grids : public ::testing::TestWithParam<grid_case> {};

TEST_P(grid_ldlt_grids, matches_banded_oracle) {
  const auto [nx, ny, zero_corner] = GetParam();
  const csr_c a =
      zero_corner_diagonal(random_grid_operator(nx, ny, 1000 + nx * ny), ny, zero_corner);
  const grid_ldlt lu(nx, ny, a);
  EXPECT_EQ(lu.size(), nx * ny);
  const cvec b = random_cvec(nx * ny, 7 + nx);
  const cvec x = lu.solve(b);
  const cvec oracle = banded_oracle(a, ny).solve(b);
  EXPECT_LT(rel_diff(x, oracle), 1e-10);
  EXPECT_LT(rel_diff(a.matvec(x), b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(shapes, grid_ldlt_grids,
                         ::testing::Values(grid_case{8, 8}, grid_case{9, 13}, grid_case{17, 64},
                                           grid_case{56, 36}, grid_case{44, 44},
                                           grid_case{9, 9, 4}),
                         [](const ::testing::TestParamInfo<grid_case>& info) {
                           return std::to_string(info.param.nx) + "x" +
                                  std::to_string(info.param.ny) +
                                  (info.param.zero_corner > 0 ? "_zero_leaf_diagonal" : "");
                         });

TEST(grid_ldlt, singleton_batch_is_bit_identical_to_scalar_solve) {
  const csr_c a = random_grid_operator(20, 16, 41);
  const grid_ldlt lu(20, 16, a);
  const cvec b = random_cvec(a.rows(), 42);
  const cvec scalar = lu.solve(b);
  const auto batch = lu.solve(std::vector<cvec>{b});
  ASSERT_EQ(batch.size(), 1u);
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(batch[0][i], scalar[i]) << "row " << i;
}

TEST(grid_ldlt, batch_is_bit_identical_to_scalar_solves) {
  const csr_c a = random_grid_operator(24, 19, 43);
  const grid_ldlt lu(24, 19, a);
  std::vector<cvec> bs;
  for (std::uint64_t k = 0; k < 5; ++k) bs.push_back(random_cvec(a.rows(), 44 + k));
  const auto batch = lu.solve(bs);
  ASSERT_EQ(batch.size(), bs.size());
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const cvec scalar = lu.solve(bs[k]);
    for (std::size_t i = 0; i < scalar.size(); ++i)
      ASSERT_EQ(batch[k][i], scalar[i]) << "rhs " << k << " row " << i;
  }
}

TEST(grid_ldlt, empty_batch_returns_empty_batch) {
  const csr_c a = random_grid_operator(8, 8, 45);
  const grid_ldlt lu(8, 8, a);
  EXPECT_TRUE(lu.solve(std::vector<cvec>{}).empty());
}

TEST(grid_ldlt, singular_operator_throws) {
  // Zero every entry of one cell's row and column: the matrix stays
  // symmetric but is singular, and the restricted pivoting reaches an
  // exactly-zero pivot column.
  const csr_c good = random_grid_operator(12, 10, 46);
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < good.rows(); ++i)
    for (std::size_t k = good.row_ptr()[i]; k < good.row_ptr()[i + 1]; ++k)
      t.push_back({i, good.col_index()[k],
                   i == 57 || good.col_index()[k] == 57 ? cplx{} : good.values()[k]});
  const csr_c a(good.rows(), good.cols(), std::move(t));
  EXPECT_THROW(grid_ldlt(12, 10, a), numeric_error);
}

TEST(grid_ldlt, pivoting_handles_zero_leading_diagonal) {
  const csr_c good = random_grid_operator(10, 9, 47);
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < good.rows(); ++i)
    for (std::size_t k = good.row_ptr()[i]; k < good.row_ptr()[i + 1]; ++k)
      t.push_back({i, good.col_index()[k], good.col_index()[k] == 0 && i == 0
                                               ? cplx{}
                                               : good.values()[k]});
  const csr_c a(good.rows(), good.cols(), std::move(t));
  ASSERT_EQ(a.at(0, 0), cplx{});
  const grid_ldlt lu(10, 9, a);
  const cvec b = random_cvec(a.rows(), 48);
  EXPECT_LT(rel_diff(lu.solve(b), banded_oracle(a, 9).solve(b)), 1e-10);
}

TEST(grid_ldlt, rejects_operators_outside_the_stencil) {
  // Unknowns ny - 1 and ny are adjacent in the flat order, but they are
  // cells (0, ny - 1) and (1, 0), which are not grid neighbours.
  const std::size_t nx = 8, ny = 8;
  std::vector<triplet<cplx>> t{{ny - 1, ny, cplx{1.0}}};
  for (std::size_t i = 0; i < nx * ny; ++i) t.push_back({i, i, cplx{2.0}});
  EXPECT_THROW(grid_ldlt(nx, ny, csr_c(nx * ny, nx * ny, t)), bad_argument);
  const csr_c empty(nx * ny, nx * ny, std::vector<triplet<cplx>>{});
  EXPECT_THROW(grid_ldlt(nx, ny + 1, empty), bad_argument);
}

TEST(grid_ldlt, rejects_asymmetric_operators) {
  // Only the lower triangle is read, so one upper entry off by one ulp must
  // be rejected rather than silently mirrored.
  const csr_c good = random_grid_operator(9, 7, 50);
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < good.rows(); ++i)
    for (std::size_t k = good.row_ptr()[i]; k < good.row_ptr()[i + 1]; ++k) {
      const std::size_t j = good.col_index()[k];
      const cplx v = good.values()[k];
      t.push_back({i, j, i == 19 && j == 20 ? cplx(std::nextafter(v.real(), 0.0), v.imag()) : v});
    }
  EXPECT_THROW(grid_ldlt(9, 7, csr_c(good.rows(), good.cols(), std::move(t))), bad_argument);
  EXPECT_NO_THROW(grid_ldlt(9, 7, good));
}

TEST(grid_ldlt, stores_far_less_than_the_banded_factors) {
  // Exactly each node's m x s lower trapezoid, sum of m*s - s*(s-1)/2: the
  // LU on the same tree stored 465 646 entries here, the banded LU 8 x more.
  const std::size_t side = 88;
  const grid_ldlt ldlt(side, side, random_grid_operator(side, side, 49));
  const std::size_t banded_storage = side * side * (3 * side + 1);
  EXPECT_EQ(ldlt.fill(), 236695u);
  EXPECT_LT(ldlt.fill(), banded_storage / 8);
}

// -------------------------------------------------- matrix-free gmres ------

TEST(krylov, gmres_accepts_converged_initial_guess_without_touching_x) {
  const std::size_t n = 40;
  const auto a = random_banded_csr(n, 2, 910, 6.0);
  rng r(911);
  cvec x_true(n);
  for (auto& v : x_true) v = cplx(r.uniform(-1, 1), r.uniform(-1, 1));
  const cvec b = a.matvec(x_true);
  cvec x = x_true;  // start at the answer
  const auto res = gmres(as_op(a), b, x, linear_op{}, 30, 1e-10, 2000);
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
