#include "sparse/multifrontal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "sparse/kernels.h"

namespace boson::sp {

namespace {

/// |Re z| + |Im z|: LAPACK's cheap magnitude for complex pivot choices.
double cabs1(double re, double im) { return std::abs(re) + std::abs(im); }

/// Bunch–Kaufman threshold (1 + sqrt(17)) / 8: bounds the element growth of
/// the 1x1 and 2x2 pivots alike.
const double bk_alpha = (1.0 + std::sqrt(17.0)) / 8.0;

}  // namespace

std::size_t grid_ldlt::bisect(std::size_t x0, std::size_t x1, std::size_t y0, std::size_t y1) {
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

grid_ldlt::grid_ldlt(const grid_stencil& a) : nx_(a.nx), ny_(a.ny) {
  const std::size_t n = nx_ * ny_;
  require(n > 0, "grid_ldlt: empty grid");
  require(a.diag.size() == n && a.y.size() == n && a.x.size() == n,
          "grid_ldlt: stencil size does not match the grid");
  for (std::size_t c = ny_ - 1; c < n; c += ny_)
    require(a.y[c] == cplx{}, "grid_ldlt: y coupling past the last row");
  for (std::size_t c = n - ny_; c < n; ++c)
    require(a.x[c] == cplx{}, "grid_ldlt: x coupling past the last column");

  // Symbolic step: the separator tree, then every node's storage.
  bisect(0, nx_, 0, ny_);
  std::size_t stored = 0, pivots = 0, widest = 0;
  for (node& nd : nodes_) {
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    nd.pivot_begin = pivots;
    nd.offset = stored;
    pivots += s;
    stored += m * s - s * (s - 1) / 2;
    widest = std::max(widest, m);
  }
  pivots_.resize(pivots);
  factors_.resize(stored);

  // Numeric step, serially in postorder. A front is an m x m row-major array
  // kept as separate real and imaginary planes, so the update kernel is plain
  // vertical arithmetic. Its lower triangle holds the assembled entries,
  // overwritten by L and D. The strictly upper part of the own rows holds
  // W = D Lᵀ, each pivot column as it was just before scaling, so every
  // update reads a contiguous row of W.
  std::vector<std::size_t> pos(n, none);  // cell -> row of the current front
  std::vector<std::size_t> ring_pos(widest);  // a child's ring -> rows of the front
  std::vector<dvec> contributions(nodes_.size());
  dvec fr(widest * widest), fi(widest * widest);
  cvec d11(widest), d22(widest), d21(widest);  // per pivot step: see `eliminate`
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    const node& nd = nodes_[t];
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    const std::size_t* cells = &front_cells_[nd.front_begin];
    for (std::size_t i = 0; i < m; ++i) {
      pos[cells[i]] = i;
      std::fill(&fr[i * m], &fr[i * m] + i + 1, 0.0);
      std::fill(&fi[i * m], &fi[i * m] + i + 1, 0.0);
    }

    // Stencil entries with an own cell as row or column, lower triangle
    // only; every other column of an own row was eliminated by a descendant,
    // which assembled that entry into its own front.
    const auto assemble = [&](std::size_t i, std::size_t cell, cplx v) {
      const std::size_t p = pos[cell];
      if (p == none || p > i || p >= s) return;
      fr[i * m + p] += v.real();
      fi[i * m + p] += v.imag();
    };
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t c = cells[i];
      const std::size_t iy = c % ny_;
      if (c >= ny_) assemble(i, c - ny_, a.x[c - ny_]);
      if (iy > 0) assemble(i, c - 1, a.y[c - 1]);
      assemble(i, c, a.diag[c]);
      if (iy + 1 < ny_) assemble(i, c + 1, a.y[c]);
      if (c + ny_ < n) assemble(i, c + ny_, a.x[c]);
    }

    // Extend-add the children's contribution blocks (packed lower
    // triangles), in child order. A child's ring order is not the parent's
    // front order, so an entry may land above the diagonal: it goes to its
    // mirror.
    for (const std::size_t c : nd.children) {
      if (c == none) continue;
      const node& child = nodes_[c];
      const std::size_t r = child.ring;
      const std::size_t* ring = &front_cells_[child.front_begin + child.own];
      const double* cr = contributions[c].data();
      const double* ci = cr + r * (r + 1) / 2;
      for (std::size_t a = 0; a < r; ++a) ring_pos[a] = pos[ring[a]];
      for (std::size_t a = 0; a < r; ++a) {
        const std::size_t pa = ring_pos[a];
        for (std::size_t b = 0; b <= a; ++b) {
          const std::size_t pb = ring_pos[b];
          const std::size_t at = pa >= pb ? pa * m + pb : pb * m + pa;
          fr[at] += *cr++;
          fi[at] += *ci++;
        }
      }
      dvec().swap(contributions[c]);
    }

    const auto swap_entries = [&](std::size_t x, std::size_t y) {
      std::swap(fr[x], fr[y]);
      std::swap(fi[x], fi[y]);
    };
    // Row i's part in the pivot step starting at k: its pivot-column entries
    // become W's column i, their multipliers replace them, and its columns
    // up to the diagonal take the update by the matching rows of W (whose
    // columns up to i are in place: rows are eliminated in increasing order
    // within a step). A 1x1 step keeps 1/d in d11[k]; a 2x2 step keeps
    // LAPACK's scaled form of D^{-1} in d11/d22/d21[k].
    std::size_t* piv = &pivots_[nd.pivot_begin];
    const auto eliminate = [&](std::size_t i, std::size_t k) {
      double* ri = &fr[i * m];
      double* ii = &fi[i * m];
      double* wr = &fr[k * m];
      double* wi = &fi[k * m];
      if (piv[k] != none) {
        wr[i] = ri[k];
        wi[i] = ii[k];
        const cplx l = cplx(ri[k], ii[k]) * d11[k];
        ri[k] = l.real();
        ii[k] = l.imag();
        if (l != cplx{}) sub_scaled(ri + k + 1, ii + k + 1, wr + k + 1, wi + k + 1, l, i - k);
        return;
      }
      const cplx w0(ri[k], ii[k]), w1(ri[k + 1], ii[k + 1]);
      wr[i] = w0.real();
      wi[i] = w0.imag();
      wr[m + i] = w1.real();
      wi[m + i] = w1.imag();
      const cplx l0 = d21[k] * (d11[k] * w0 - w1);
      const cplx l1 = d21[k] * (d22[k] * w1 - w0);
      ri[k] = l0.real();
      ii[k] = l0.imag();
      ri[k + 1] = l1.real();
      ii[k + 1] = l1.imag();
      const std::size_t n2 = i - k - 1;
      if (l0 != cplx{}) sub_scaled(ri + k + 2, ii + k + 2, wr + k + 2, wi + k + 2, l0, n2);
      if (l1 != cplx{}) sub_scaled(ri + k + 2, ii + k + 2, wr + m + k + 2, wi + m + k + 2, l1, n2);
    };

    // The own block, right-looking: choose each step's pivot among the own
    // rows, swap it into place symmetrically, eliminate the own rows. The
    // swap covers the trailing own block only: the substitutions apply each
    // step's swap in turn, so earlier L columns stay as they are, and the
    // ring rows take theirs in the sweep below.
    const auto entry = [&](std::size_t i, std::size_t j) {
      return cabs1(fr[i * m + j], fi[i * m + j]);
    };
    for (std::size_t k = 0; k < s;) {
      const double absakk = entry(k, k);
      double colmax = 0.0;
      std::size_t imax = k;
      for (std::size_t i = k + 1; i < s; ++i) {
        const double v = entry(i, k);
        if (v > colmax) {
          colmax = v;
          imax = i;
        }
      }
      if (!(std::max(absakk, colmax) > 1e-300)) throw numeric_error("grid_ldlt: singular pivot");
      // LAPACK sytf2's choice: a 1x1 pivot at k, a 1x1 pivot at imax, or a
      // 2x2 pivot on (k, imax). The step ends at row kk, into which own row
      // kp is swapped.
      std::size_t kk = k, kp = k;
      if (absakk < bk_alpha * colmax) {
        double rowmax = 0.0;
        for (std::size_t j = k; j < imax; ++j) rowmax = std::max(rowmax, entry(imax, j));
        for (std::size_t j = imax + 1; j < s; ++j) rowmax = std::max(rowmax, entry(j, imax));
        if (absakk < bk_alpha * colmax * (colmax / rowmax)) {
          kp = imax;
          if (entry(imax, imax) < bk_alpha * rowmax) kk = k + 1;
        }
      }
      if (kp != kk) {
        for (std::size_t i = kp + 1; i < s; ++i) swap_entries(i * m + kk, i * m + kp);
        for (std::size_t j = kk + 1; j < kp; ++j) swap_entries(j * m + kk, kp * m + j);
        swap_entries(kk * m + kk, kp * m + kp);
        if (kk != k) swap_entries(kk * m + k, kp * m + k);
      }
      if (kk == k) {
        piv[k] = kp;
        d11[k] = 1.0 / cplx(fr[k * m + k], fi[k * m + k]);
      } else {
        piv[k] = none;
        piv[k + 1] = kp;
        const cplx b(fr[(k + 1) * m + k], fi[(k + 1) * m + k]);
        d11[k] = cplx(fr[(k + 1) * m + k + 1], fi[(k + 1) * m + k + 1]) / b;
        d22[k] = cplx(fr[k * m + k], fi[k * m + k]) / b;
        d21[k] = 1.0 / (d11[k] * d22[k] - 1.0) / b;
      }
      for (std::size_t i = kk + 1; i < s; ++i) eliminate(i, k);
      k = kk + 1;
    }

    // Ring rows, one at a time (left-looking): each step applies its column
    // swap and eliminates. This forms L21, and the same sweep leaves the
    // Schur complement in the ring columns up to the diagonal.
    for (std::size_t i = s; i < m; ++i) {
      for (std::size_t k = 0; k < s;) {
        const std::size_t kk = piv[k] == none ? k + 1 : k;
        if (piv[kk] != kk) swap_entries(i * m + kk, i * m + piv[kk]);
        eliminate(i, k);
        k = kk + 1;
      }
    }

    // Keep the trapezoid column-major (the substitutions stream down
    // columns) and hand the Schur complement's lower triangle to the parent.
    cplx* out = factors_.data() + nd.offset;
    for (std::size_t k = 0; k < s; ++k)
      for (std::size_t i = k; i < m; ++i) *out++ = cplx(fr[i * m + k], fi[i * m + k]);
    if (nd.ring > 0) {
      const std::size_t r = nd.ring;
      dvec& cb = contributions[t];
      cb.resize(r * (r + 1));
      double* cr = cb.data();
      double* ci = cr + r * (r + 1) / 2;
      for (std::size_t a = 0; a < r; ++a) {
        const std::size_t row = (s + a) * m + s;
        cr = std::copy(&fr[row], &fr[row] + a + 1, cr);
        ci = std::copy(&fi[row], &fi[row] + a + 1, ci);
      }
    }
    for (std::size_t i = 0; i < m; ++i) pos[cells[i]] = none;
  }
}

cvec grid_ldlt::solve(const cvec& rhs) const {
  require(rhs.size() == size(), "grid_ldlt::solve: rhs size mismatch");
  cvec x = rhs;
  cvec front;  // the current front's entries of x

  // Forward: per node, each pivot step's swap, its L columns (which also
  // update the ring entries owned by ancestors) and its D block.
  for (const node& nd : nodes_) {
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    const std::size_t* cells = &front_cells_[nd.front_begin];
    const std::size_t* piv = &pivots_[nd.pivot_begin];
    front.resize(m);
    cplx* xf = front.data();
    for (std::size_t i = 0; i < m; ++i) xf[i] = x[cells[i]];
    for (std::size_t k = 0; k < s;) {
      const cplx* lk = column(nd, k);
      if (piv[k] != none) {
        if (piv[k] != k) std::swap(xf[k], xf[piv[k]]);
        if (xf[k] != cplx{}) {
          sub_scaled(xf + k + 1, lk + 1, xf[k], m - k - 1);
          xf[k] /= lk[0];
        }
        k += 1;
        continue;
      }
      const cplx* lk1 = column(nd, k + 1);
      if (piv[k + 1] != k + 1) std::swap(xf[k + 1], xf[piv[k + 1]]);
      if (xf[k] != cplx{} || xf[k + 1] != cplx{}) {
        sub_scaled(xf + k + 2, lk + 2, xf[k], m - k - 2);
        sub_scaled(xf + k + 2, lk1 + 1, xf[k + 1], m - k - 2);
        // LAPACK's scaled solve with D = [lk[0] lk[1]; lk[1] lk1[0]].
        const cplx b = lk[1];
        const cplx a = lk[0] / b, d = lk1[0] / b;
        const cplx denom = a * d - 1.0;
        const cplx u = xf[k] / b, v = xf[k + 1] / b;
        xf[k] = (d * u - v) / denom;
        xf[k + 1] = (a * v - u) / denom;
      }
      k += 2;
    }
    for (std::size_t i = 0; i < m; ++i) x[cells[i]] = xf[i];
  }

  // Backward, in reverse postorder: the ring (ancestor) unknowns are final,
  // so each own entry subtracts its L column's dot product with the entries
  // below it, then the step's swap is undone.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    const node& nd = *it;
    const std::size_t s = nd.own;
    const std::size_t m = s + nd.ring;
    const std::size_t* cells = &front_cells_[nd.front_begin];
    const std::size_t* piv = &pivots_[nd.pivot_begin];
    front.resize(m);
    cplx* xf = front.data();
    for (std::size_t i = 0; i < m; ++i) xf[i] = x[cells[i]];
    for (std::size_t k = s; k > 0;) {
      const bool two = k >= 2 && piv[k - 2] == none;  // a 2x2 step ends at k - 1
      xf[k - 1] -= dot(column(nd, k - 1) + 1, xf + k, m - k);
      if (two) xf[k - 2] -= dot(column(nd, k - 2) + 2, xf + k, m - k);
      if (piv[k - 1] != k - 1) std::swap(xf[k - 1], xf[piv[k - 1]]);
      k -= two ? 2 : 1;
    }
    for (std::size_t i = 0; i < s; ++i) x[cells[i]] = xf[i];
  }
  return x;
}

}  // namespace boson::sp
