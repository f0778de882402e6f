#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace boson::sp {

/// A complex-symmetric (A = Aᵀ, unconjugated) 5-point operator on an
/// nx x ny grid (unknown c = ix * ny + iy), stored as its diagonal and its
/// two upward couplings. Each coupling is stored once, so the operator is
/// symmetric by construction.
struct grid_stencil {
  std::size_t nx = 0;
  std::size_t ny = 0;
  cvec diag;  ///< A(c, c)
  cvec y;     ///< A(c, c + 1) = A(c + 1, c); zero on the last row (iy = ny - 1)
  cvec x;     ///< A(c, c + ny) = A(c + ny, c); zero on the last column (ix = nx - 1)
};

/// Sparse L D Lᵀ factorization of a `grid_stencil` operator, ordered by
/// geometric nested dissection and factored by the multifrontal method. This
/// is the direct solver behind every FDFD simulation: the forward and the
/// adjoint solves share one factor.
///
/// Symbolic step: the grid is bisected recursively from (nx, ny) alone. Each
/// region is cut across its longer side by a one-cell-wide separator until it
/// holds at most `leaf_cells` cells. Nodes are numbered in postorder
/// (children before their separator). A node's front lists its own cells
/// (the separator, or every cell of a leaf) followed by the ring of cells
/// bordering its region; ring cells always lie in ancestor separators.
///
/// Numeric step, serially in postorder: each node assembles the lower
/// triangle of a dense front from the operator entries of its own cells plus
/// its children's contribution blocks (extend-add). It factors the own (fully
/// summed) block as P F11 Pᵀ = L11 D L11ᵀ, D block diagonal with 1x1 and 2x2
/// blocks chosen by Bunch–Kaufman pivoting restricted to the own cells, forms
/// L21, and leaves the lower triangle of the Schur complement
/// F22 - L21 D L21ᵀ on the ring as its contribution block to the parent. The
/// fixed tree and the fixed assembly order make the factors deterministic by
/// construction. Cost: O(n^1.5) flops and O(n log n) stored entries, about
/// half of an LU on the same tree, against O(n ny^2) for a banded LU.
class grid_ldlt {
 public:
  /// Largest leaf region of the separator tree, in cells.
  static constexpr std::size_t leaf_cells = 16;

  /// Factor `a`. Its three arrays must hold nx * ny entries each, and a
  /// coupling past the grid edge must be zero (else `bad_argument`). Throws
  /// `numeric_error` when a front's own block is singular.
  explicit grid_ldlt(const grid_stencil& a);

  std::size_t size() const { return nx_ * ny_; }

  /// Stored complex entries: every node's lower trapezoid of L and D.
  std::size_t fill() const { return factors_.size(); }

  /// Solve A x = b; returns x.
  cvec solve(const cvec& b) const;

 private:
  /// "No index": absent children, cells outside the current front, and the
  /// pivot entry of the first row of a 2x2 block.
  static constexpr std::size_t none = static_cast<std::size_t>(-1);

  /// One separator-tree node after factorization (m = s + r front cells).
  /// Its factor lives in `factors_` from `offset`: the m x s lower
  /// trapezoid, column-major, column k holding rows k..m-1. A 1x1 block keeps
  /// D on the diagonal and L below it. A 2x2 block on (k, k+1) keeps D in
  /// (k, k), (k+1, k) and (k+1, k+1), and its L columns start at row k+2.
  /// Its pivots (s entries from `pivot_begin`, in step order, LAPACK
  /// `sytrf` style) name the own row swapped with row k just before step k;
  /// for a 2x2 block the first entry is `none` and the second holds the swap
  /// of row k+1.
  struct node {
    std::size_t front_begin = 0;  ///< into front_cells_
    std::size_t own = 0;          ///< s: fully summed cells
    std::size_t ring = 0;         ///< r: update cells
    std::size_t pivot_begin = 0;  ///< into pivots_
    std::size_t offset = 0;       ///< into factors_
    std::size_t children[2] = {none, none};
  };

  /// Symbolic step for the region [x0, x1) x [y0, y1): appends its subtree
  /// to nodes_ in postorder and each node's front to front_cells_; returns
  /// the index of the region's node.
  std::size_t bisect(std::size_t x0, std::size_t x1, std::size_t y0, std::size_t y1);

  /// Column k of a node's trapezoid, starting at its diagonal entry.
  const cplx* column(const node& nd, std::size_t k) const {
    const std::size_t m = nd.own + nd.ring;
    return factors_.data() + nd.offset + k * (2 * m + 1 - k) / 2;
  }

  std::size_t nx_;
  std::size_t ny_;
  std::vector<node> nodes_;               // postorder
  std::vector<std::size_t> front_cells_;  // each node's own cells, then its ring
  std::vector<std::size_t> pivots_;       // node-local pivot steps
  cvec factors_;
};

}  // namespace boson::sp
