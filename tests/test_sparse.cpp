#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "banded.h"
#include "common/rng.h"
#include "linalg/dense.h"
#include "linalg/vec.h"
#include "sparse/csr.h"
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

// ---------------------------------------------- nested-dissection LDLᵀ ----

/// Helmholtz-like random stencil on an nx x ny grid: an indefinite real
/// diagonal with a positive imaginary part (which keeps it nonsingular), and
/// real couplings.
grid_stencil random_grid_stencil(std::size_t nx, std::size_t ny, std::uint64_t seed) {
  rng r(seed);
  const std::size_t n = nx * ny;
  grid_stencil a{nx, ny, cvec(n), cvec(n), cvec(n)};
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const std::size_t i = ix * ny + iy;
      a.diag[i] = cplx(r.uniform(-4.0, 4.0), r.uniform(0.1, 1.0));
      if (iy + 1 < ny) a.y[i] = cplx(-1.0 + 0.3 * r.uniform(-1, 1), 0.0);
      if (ix + 1 < nx) a.x[i] = cplx(-1.0 + 0.3 * r.uniform(-1, 1), 0.0);
    }
  }
  return a;
}

/// The stencil's operator in CSR form, both triangles: the residual operator.
csr_c to_csr(const grid_stencil& a) {
  const std::size_t n = a.nx * a.ny;
  std::vector<triplet<cplx>> t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({i, i, a.diag[i]});
    if ((i + 1) % a.ny != 0) {
      t.push_back({i, i + 1, a.y[i]});
      t.push_back({i + 1, i, a.y[i]});
    }
    if (i + a.ny < n) {
      t.push_back({i, i + a.ny, a.x[i]});
      t.push_back({i + a.ny, i, a.x[i]});
    }
  }
  return csr_c(n, n, std::move(t));
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
  grid_stencil st = random_grid_stencil(nx, ny, 1000 + nx * ny);
  for (std::size_t ix = 0; ix < zero_corner; ++ix)
    for (std::size_t iy = 0; iy < zero_corner; ++iy) st.diag[ix * ny + iy] = cplx{};
  const grid_ldlt lu(st);
  EXPECT_EQ(lu.size(), nx * ny);
  const csr_c a = to_csr(st);
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

TEST(grid_ldlt, singular_operator_throws) {
  // Zero every entry of one cell's row and column: the matrix stays
  // symmetric but is singular, and the restricted pivoting reaches an
  // exactly-zero pivot column.
  const std::size_t ny = 10, cell = 57;
  grid_stencil st = random_grid_stencil(12, ny, 46);
  st.diag[cell] = st.y[cell] = st.y[cell - 1] = st.x[cell] = st.x[cell - ny] = cplx{};
  EXPECT_THROW(grid_ldlt{st}, numeric_error);
}

TEST(grid_ldlt, pivoting_handles_zero_leading_diagonal) {
  grid_stencil st = random_grid_stencil(10, 9, 47);
  st.diag[0] = cplx{};
  const grid_ldlt lu(st);
  const cvec b = random_cvec(lu.size(), 48);
  EXPECT_LT(rel_diff(lu.solve(b), banded_oracle(to_csr(st), 9).solve(b)), 1e-10);
}

TEST(grid_ldlt, rejects_stencil_size_mismatch) {
  const grid_stencil good = random_grid_stencil(8, 8, 50);
  EXPECT_NO_THROW(grid_ldlt{good});
  for (cvec grid_stencil::*field : {&grid_stencil::diag, &grid_stencil::y, &grid_stencil::x}) {
    grid_stencil st = good;
    (st.*field).pop_back();
    EXPECT_THROW(grid_ldlt{st}, bad_argument);
  }
  grid_stencil wider = good;
  wider.ny += 1;
  EXPECT_THROW(grid_ldlt{wider}, bad_argument);
  EXPECT_THROW(grid_ldlt{grid_stencil{}}, bad_argument);
}

TEST(grid_ldlt, rejects_couplings_past_the_grid_edge) {
  // Unknowns ny - 1 and ny are adjacent in the flat order, but they are
  // cells (0, ny - 1) and (1, 0), which are not grid neighbours; nor does
  // the last column couple to anything in x.
  const std::size_t nx = 8, ny = 7;
  const grid_stencil good = random_grid_stencil(nx, ny, 51);
  grid_stencil past_row = good;
  past_row.y[ny - 1] = cplx{1.0};
  EXPECT_THROW(grid_ldlt{past_row}, bad_argument);
  grid_stencil past_column = good;
  past_column.x[(nx - 1) * ny + 3] = cplx{0.0, 1.0};
  EXPECT_THROW(grid_ldlt{past_column}, bad_argument);
}

TEST(grid_ldlt, stores_far_less_than_the_banded_factors) {
  // Exactly each node's m x s lower trapezoid, sum of m*s - s*(s-1)/2: the
  // LU on the same tree stored 465 646 entries here, the banded LU 8 x more.
  const std::size_t side = 88;
  const grid_ldlt ldlt(random_grid_stencil(side, side, 49));
  const std::size_t banded_storage = side * side * (3 * side + 1);
  EXPECT_EQ(ldlt.fill(), 236695u);
  EXPECT_LT(ldlt.fill(), banded_storage / 8);
}

}  // namespace
}  // namespace boson::sp
