#include "sparse/multifrontal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "sparse/kernels.h"

namespace boson::sp {

std::size_t grid_lu::bisect(std::size_t x0, std::size_t x1, std::size_t y0, std::size_t y1) {
  const std::size_t w = x1 - x0;
  const std::size_t h = y1 - y0;
  node nd;
  std::size_t sep_x = none, sep_y = none;
  if (w * h > leaf_cells) {
    // Cut across the longer side; both halves are non-empty because the
    // longer side of a region with more than 16 cells is at least 5.
    if (w >= h) {
      sep_x = x0 + w / 2;
      nd.children[0] = bisect(x0, sep_x, y0, y1);
      nd.children[1] = bisect(sep_x + 1, x1, y0, y1);
    } else {
      sep_y = y0 + h / 2;
      nd.children[0] = bisect(x0, x1, y0, sep_y);
      nd.children[1] = bisect(x0, x1, sep_y + 1, y1);
    }
  }

  std::vector<std::size_t>& cells = front_cells_;
  nd.front_begin = cells.size();
  if (sep_x != none) {
    for (std::size_t y = y0; y < y1; ++y) cells.push_back(sep_x * ny_ + y);
  } else if (sep_y != none) {
    for (std::size_t x = x0; x < x1; ++x) cells.push_back(x * ny_ + sep_y);
  } else {
    for (std::size_t x = x0; x < x1; ++x)
      for (std::size_t y = y0; y < y1; ++y) cells.push_back(x * ny_ + y);
  }
  nd.own = cells.size() - nd.front_begin;

  // The ring: every cell outside the region with a 5-point neighbour in it.
  if (x0 > 0)
    for (std::size_t y = y0; y < y1; ++y) cells.push_back((x0 - 1) * ny_ + y);
  if (x1 < nx_)
    for (std::size_t y = y0; y < y1; ++y) cells.push_back(x1 * ny_ + y);
  if (y0 > 0)
    for (std::size_t x = x0; x < x1; ++x) cells.push_back(x * ny_ + y0 - 1);
  if (y1 < ny_)
    for (std::size_t x = x0; x < x1; ++x) cells.push_back(x * ny_ + y1);
  nd.ring = cells.size() - nd.front_begin - nd.own;

  nodes_.push_back(nd);
  return nodes_.size() - 1;
}

grid_lu::grid_lu(std::size_t nx, std::size_t ny, const csr_c& a) : nx_(nx), ny_(ny) {
  const std::size_t n = nx * ny;
  require(n > 0, "grid_lu: empty grid");
  require(a.rows() == n && a.cols() == n, "grid_lu: operator size does not match the grid");
  const auto& row_ptr = a.row_ptr();
  const auto& col = a.col_index();
  const auto& val = a.values();
  bool five_point = true;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t lo = std::min(i, col[k]), hi = std::max(i, col[k]);
      five_point = five_point && (hi == lo || hi == lo + ny || (hi == lo + 1 && hi % ny != 0));
    }
  }
  require(five_point, "grid_lu: operator entry couples cells that are not grid neighbours");

  // Symbolic step: the separator tree, then every node's storage.
  bisect(0, nx, 0, ny);
  std::size_t stored = 0, pivots = 0, widest = 0;
  for (node& nd : nodes_) {
    const std::size_t m = nd.own + nd.ring;
    nd.pivot_begin = pivots;
    nd.offset = stored;
    pivots += nd.own;
    stored += m * nd.own + nd.own * nd.ring;
    widest = std::max(widest, m);
  }
  pivots_.resize(pivots);
  factors_.resize(stored);

  // Numeric step, serially in postorder. Fronts and contribution blocks are
  // kept as separate real and imaginary planes so the update kernel is plain
  // vertical arithmetic.
  std::vector<std::size_t> pos(n, none);  // cell -> row of the current front
  std::vector<dvec> contributions(nodes_.size());
  dvec fr, fi;
  fr.reserve(widest * widest);
  fi.reserve(widest * widest);
  cvec inv_diag(widest);
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    const node& nd = nodes_[t];
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    const std::size_t* cells = &front_cells_[nd.front_begin];
    for (std::size_t i = 0; i < m; ++i) pos[cells[i]] = i;
    fr.assign(m * m, 0.0);
    fi.assign(m * m, 0.0);

    // Operator entries with an own cell as row or column; every other
    // column of an own row was eliminated by a descendant, which assembled
    // that entry into its own front.
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t cell = cells[i];
      for (std::size_t k = row_ptr[cell]; k < row_ptr[cell + 1]; ++k) {
        const std::size_t p = pos[col[k]];
        if (p == none || (i >= s && p >= s)) continue;
        fr[i * m + p] += val[k].real();
        fi[i * m + p] += val[k].imag();
      }
    }

    // Extend-add the children's contribution blocks, in child order.
    for (const std::size_t c : nd.children) {
      if (c == none) continue;
      const node& child = nodes_[c];
      const std::size_t r = child.ring;
      const std::size_t* ring = &front_cells_[child.front_begin + child.own];
      const double* cr = contributions[c].data();
      const double* ci = cr + r * r;
      for (std::size_t a = 0; a < r; ++a) {
        const std::size_t row = pos[ring[a]] * m;
        for (std::size_t b = 0; b < r; ++b) {
          fr[row + pos[ring[b]]] += cr[a * r + b];
          fi[row + pos[ring[b]]] += ci[a * r + b];
        }
      }
      dvec().swap(contributions[c]);
    }

    // Multiplier of row i at pivot k, stored in place of the eliminated
    // entry, followed by the row update over columns (k, m).
    const auto eliminate = [&](std::size_t i, std::size_t k) {
      const cplx l = cplx(fr[i * m + k], fi[i * m + k]) * inv_diag[k];
      fr[i * m + k] = l.real();
      fi[i * m + k] = l.imag();
      if (l == cplx{}) return;
      const std::size_t d = i * m + k + 1, u = k * m + k + 1;
      sub_scaled(&fr[d], &fi[d], &fr[u], &fi[u], l, m - k - 1);
    };

    // LU of the own rows, pivoting among them only. Whole rows are swapped
    // (LAPACK-style), so the stored L is that of the permuted rows.
    std::size_t* piv = &pivots_[nd.pivot_begin];
    for (std::size_t k = 0; k < s; ++k) {
      std::size_t p = k;
      double best = std::hypot(fr[k * m + k], fi[k * m + k]);
      for (std::size_t i = k + 1; i < s; ++i) {
        const double mag = std::hypot(fr[i * m + k], fi[i * m + k]);
        if (mag > best) {
          best = mag;
          p = i;
        }
      }
      if (!(best > 1e-300)) throw numeric_error("grid_lu: singular pivot");
      piv[k] = p;
      if (p != k) {
        std::swap_ranges(&fr[k * m], &fr[k * m] + m, &fr[p * m]);
        std::swap_ranges(&fi[k * m], &fi[k * m] + m, &fi[p * m]);
      }
      inv_diag[k] = 1.0 / cplx(fr[k * m + k], fi[k * m + k]);
      for (std::size_t i = k + 1; i < s; ++i) eliminate(i, k);
    }
    // Ring rows, one at a time (i-k-j): L21 = A21 U11^{-1}, and the same
    // sweep leaves the Schur complement A22 - L21 U12 in the ring columns.
    for (std::size_t i = s; i < m; ++i)
      for (std::size_t k = 0; k < s; ++k) eliminate(i, k);

    // Keep the factors column-major (the substitutions stream down columns)
    // and hand the Schur complement to the parent.
    cplx* lu = factors_.data() + nd.offset;
    for (std::size_t k = 0; k < s; ++k)
      for (std::size_t i = 0; i < m; ++i) lu[k * m + i] = cplx(fr[i * m + k], fi[i * m + k]);
    cplx* u12 = lu + m * s;
    for (std::size_t j = s; j < m; ++j)
      for (std::size_t i = 0; i < s; ++i) u12[(j - s) * s + i] = cplx(fr[i * m + j], fi[i * m + j]);
    if (nd.ring > 0) {
      const std::size_t r = nd.ring;
      dvec& cb = contributions[t];
      cb.resize(2 * r * r);
      for (std::size_t a = 0; a < r; ++a) {
        const std::size_t row = (s + a) * m + s;
        std::copy(&fr[row], &fr[row] + r, &cb[a * r]);
        std::copy(&fi[row], &fi[row] + r, &cb[r * r + a * r]);
      }
    }
    for (std::size_t i = 0; i < m; ++i) pos[cells[i]] = none;
  }
}

cvec grid_lu::solve(const cvec& b) const {
  std::vector<cvec> xs{b};
  substitute(xs);
  return std::move(xs.front());
}

std::vector<cvec> grid_lu::solve(const std::vector<cvec>& bs) const {
  std::vector<cvec> xs = bs;
  substitute(xs);
  return xs;
}

void grid_lu::substitute(std::vector<cvec>& xs) const {
  const std::size_t n = size();
  for (const auto& x : xs) require(x.size() == n, "grid_lu::solve: rhs size mismatch");
  const std::size_t nb = xs.size();
  cvec block;  // the current front's entries of every right-hand side

  // Forward: per node, all of its row swaps, then the unit-lower solve,
  // which also updates the ring entries owned by ancestors.
  for (const node& nd : nodes_) {
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    const std::size_t* cells = &front_cells_[nd.front_begin];
    const std::size_t* piv = &pivots_[nd.pivot_begin];
    const cplx* lu = panel(nd);
    block.resize(m * nb);
    for (std::size_t c = 0; c < nb; ++c) {
      cplx* xf = &block[c * m];
      for (std::size_t i = 0; i < m; ++i) xf[i] = xs[c][cells[i]];
      for (std::size_t k = 0; k < s; ++k)
        if (piv[k] != k) std::swap(xf[k], xf[piv[k]]);
      for (std::size_t k = 0; k < s; ++k)
        if (xf[k] != cplx{}) sub_scaled(xf + k + 1, lu + k * m + k + 1, xf[k], m - k - 1);
      for (std::size_t i = 0; i < m; ++i) xs[c][cells[i]] = xf[i];
    }
  }

  // Backward, in reverse postorder: the ring (ancestor) unknowns are final.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    const node& nd = *it;
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    const std::size_t* cells = &front_cells_[nd.front_begin];
    const cplx* lu = panel(nd);
    const cplx* u12 = upper(nd);
    block.resize(m * nb);
    for (std::size_t c = 0; c < nb; ++c) {
      cplx* xf = &block[c * m];
      for (std::size_t i = 0; i < m; ++i) xf[i] = xs[c][cells[i]];
      for (std::size_t j = s; j < m; ++j)
        if (xf[j] != cplx{}) sub_scaled(xf, u12 + (j - s) * s, xf[j], s);
      for (std::size_t k = s; k-- > 0;) {
        xf[k] /= lu[k * m + k];
        if (xf[k] != cplx{}) sub_scaled(xf, lu + k * m, xf[k], k);
      }
      for (std::size_t i = 0; i < s; ++i) xs[c][cells[i]] = xf[i];
    }
  }
}

}  // namespace boson::sp
