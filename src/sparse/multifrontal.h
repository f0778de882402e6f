#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "sparse/csr.h"

namespace boson::sp {

/// Sparse LU of a 5-point operator on an nx x ny grid (unknown ix * ny + iy),
/// ordered by geometric nested dissection and factored by the multifrontal
/// method. This is the direct solver behind every FDFD simulation.
///
/// Symbolic step: the grid is bisected recursively from (nx, ny) alone. Each
/// region is cut across its longer side by a one-cell-wide separator until it
/// holds at most `leaf_cells` cells. Nodes are numbered in postorder
/// (children before their separator). A node's front lists its own cells
/// (the separator, or every cell of a leaf) followed by the ring of cells
/// bordering its region; ring cells always lie in ancestor separators.
///
/// Numeric step, serially in postorder: each node assembles a dense front
/// from the operator entries of its own cells plus its children's
/// contribution blocks (extend-add), LU-factors the own (fully summed) rows
/// with row pivoting restricted to them, and leaves the Schur complement on
/// the ring as its contribution block to the parent. The fixed tree and the
/// fixed assembly order make the factors deterministic by construction.
/// Cost: O(n^1.5) flops and O(n log n) stored entries, against O(n ny^2) for
/// a banded LU.
class grid_lu {
 public:
  /// Largest leaf region of the separator tree, in cells.
  static constexpr std::size_t leaf_cells = 16;

  /// Factor the n x n operator `a` (n = nx * ny). Every entry must couple a
  /// cell with itself or one of its four grid neighbours (else
  /// `bad_argument`). Throws `numeric_error` on a zero pivot.
  grid_lu(std::size_t nx, std::size_t ny, const csr_c& a);

  std::size_t size() const { return nx_ * ny_; }

  /// Stored complex entries of the L and U factors.
  std::size_t fill() const { return factors_.size(); }

  /// Solve A x = b; returns x.
  cvec solve(const cvec& b) const;

  /// Multi-RHS solve, node by node over the whole batch: each node's factors
  /// are fetched once per batch and stay in cache across its right-hand
  /// sides. Every right-hand side sees exactly the operations of the scalar
  /// `solve`, so the batch is bit-identical to one scalar solve per
  /// right-hand side (a one-RHS batch included). An empty batch returns an
  /// empty result.
  std::vector<cvec> solve(const std::vector<cvec>& bs) const;

 private:
  /// "No index": absent children, cells outside the current front.
  static constexpr std::size_t none = static_cast<std::size_t>(-1);

  /// One separator-tree node after factorization. Its factors live in
  /// `factors_` from `offset`: first the m x s column-major panel holding
  /// U11 on and above the diagonal and the unit-lower L11 / L21 below it,
  /// then U12 as an s x r column-major block (m = s + r front cells).
  struct node {
    std::size_t front_begin = 0;  ///< into front_cells_
    std::size_t own = 0;          ///< s: fully summed cells
    std::size_t ring = 0;         ///< r: update cells
    std::size_t pivot_begin = 0;  ///< into pivots_ (s local row swaps)
    std::size_t offset = 0;       ///< into factors_
    std::size_t children[2] = {none, none};
  };

  /// Symbolic step for the region [x0, x1) x [y0, y1): appends its subtree
  /// to nodes_ in postorder and each node's front to front_cells_; returns
  /// the index of the region's node.
  std::size_t bisect(std::size_t x0, std::size_t x1, std::size_t y0, std::size_t y1);

  /// Overwrite every right-hand side in `xs` with its solution.
  void substitute(std::vector<cvec>& xs) const;

  // Pointer arithmetic, not &factors_[i]: the root's U12 block is empty and
  // starts one past the last factor, which operator[] may not index.
  const cplx* panel(const node& nd) const { return factors_.data() + nd.offset; }
  const cplx* upper(const node& nd) const {
    return factors_.data() + nd.offset + (nd.own + nd.ring) * nd.own;
  }

  std::size_t nx_;
  std::size_t ny_;
  std::vector<node> nodes_;               // postorder
  std::vector<std::size_t> front_cells_;  // each node's own cells, then its ring
  std::vector<std::size_t> pivots_;       // node-local pivot row per own row
  cvec factors_;
};

}  // namespace boson::sp
