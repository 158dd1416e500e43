#include "numeric/eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "numeric/blas.hpp"
#include "numeric/flops.hpp"
#include "numeric/lu.hpp"

namespace omenx::numeric {

namespace {

// Reduce `a` to upper Hessenberg form H = Q^H A Q, accumulating Q.
void hessenberg(CMatrix& a, CMatrix& q) {
  const idx n = a.rows();
  q = CMatrix::identity(n);
  FlopCounter::add(static_cast<std::uint64_t>(10u) * n * n * n / 3u);
  for (idx k = 0; k < n - 2; ++k) {
    double norm_x = 0.0;
    for (idx i = k + 1; i < n; ++i) norm_x += std::norm(a(i, k));
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;
    const cplx x0 = a(k + 1, k);
    const double ax0 = std::abs(x0);
    const cplx phase = ax0 > 0.0 ? x0 / ax0 : cplx{1.0};
    const cplx alpha = -phase * norm_x;
    std::vector<cplx> v(static_cast<std::size_t>(n - k - 1));
    for (idx i = k + 1; i < n; ++i) v[static_cast<std::size_t>(i - k - 1)] = a(i, k);
    v[0] -= alpha;
    double nv = 0.0;
    for (const auto& vi : v) nv += std::norm(vi);
    nv = std::sqrt(nv);
    if (nv == 0.0) continue;
    for (auto& vi : v) vi /= nv;
    // A <- H A with H = I - 2 v v^H acting on rows k+1..n-1.
    for (idx j = k; j < n; ++j) {
      cplx dot{0.0};
      for (idx i = k + 1; i < n; ++i)
        dot += std::conj(v[static_cast<std::size_t>(i - k - 1)]) * a(i, j);
      dot *= 2.0;
      for (idx i = k + 1; i < n; ++i)
        a(i, j) -= dot * v[static_cast<std::size_t>(i - k - 1)];
    }
    // A <- A H on columns k+1..n-1.
    for (idx i = 0; i < n; ++i) {
      cplx dot{0.0};
      for (idx j = k + 1; j < n; ++j)
        dot += a(i, j) * v[static_cast<std::size_t>(j - k - 1)];
      dot *= 2.0;
      for (idx j = k + 1; j < n; ++j)
        a(i, j) -= dot * std::conj(v[static_cast<std::size_t>(j - k - 1)]);
    }
    // Q <- Q H.
    for (idx i = 0; i < n; ++i) {
      cplx dot{0.0};
      for (idx j = k + 1; j < n; ++j)
        dot += q(i, j) * v[static_cast<std::size_t>(j - k - 1)];
      dot *= 2.0;
      for (idx j = k + 1; j < n; ++j)
        q(i, j) -= dot * std::conj(v[static_cast<std::size_t>(j - k - 1)]);
    }
    // Clean the annihilated column.
    a(k + 1, k) = alpha;
    for (idx i = k + 2; i < n; ++i) a(i, k) = cplx{0.0};
  }
}

struct Givens {
  cplx c;
  cplx s;
};

// Compute a Givens rotation G = [[c, s], [-conj(s), conj(c)]] with
// G^H [f; g] = [r; 0].
Givens make_givens(cplx f, cplx g) {
  const double norm = std::sqrt(std::norm(f) + std::norm(g));
  if (norm == 0.0) return {cplx{1.0}, cplx{0.0}};
  return {f / norm, g / norm};
}

// Wilkinson shift: eigenvalue of the trailing 2x2 of H(lo..hi, lo..hi)
// closest to the bottom-right entry.
cplx wilkinson_shift(const CMatrix& h, idx hi) {
  const cplx a = h(hi - 1, hi - 1), b = h(hi - 1, hi);
  const cplx c = h(hi, hi - 1), d = h(hi, hi);
  const cplx tr = a + d;
  const cplx det = a * d - b * c;
  const cplx disc = std::sqrt(tr * tr - 4.0 * det);
  const cplx l1 = (tr + disc) * 0.5;
  const cplx l2 = (tr - disc) * 0.5;
  return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

// Francis single-shift bulge-chase sweep on the active Hessenberg block
// [lo, hi]; Z accumulates the Schur vectors.  Each step applies the Givens
// similarity G^H H G on rows/columns (k, k+1); by the implicit-Q theorem the
// sweep equals one explicit shifted QR step.
void qr_sweep(CMatrix& h, CMatrix& z, idx lo, idx hi, cplx shift) {
  const idx n = h.rows();
  cplx f = h(lo, lo) - shift;
  cplx g = h(lo + 1, lo);
  for (idx k = lo; k < hi; ++k) {
    const Givens gr = make_givens(f, g);
    // Rows k, k+1: H <- G^H H.
    for (idx j = 0; j < n; ++j) {
      const cplx t1 = h(k, j), t2 = h(k + 1, j);
      h(k, j) = std::conj(gr.c) * t1 + std::conj(gr.s) * t2;
      h(k + 1, j) = -gr.s * t1 + gr.c * t2;
    }
    // Columns k, k+1: H <- H G.
    for (idx i = 0; i < n; ++i) {
      const cplx t1 = h(i, k), t2 = h(i, k + 1);
      h(i, k) = t1 * gr.c + t2 * gr.s;
      h(i, k + 1) = -t1 * std::conj(gr.s) + t2 * std::conj(gr.c);
    }
    // Schur vectors: Z <- Z G.
    for (idx i = 0; i < n; ++i) {
      const cplx t1 = z(i, k), t2 = z(i, k + 1);
      z(i, k) = t1 * gr.c + t2 * gr.s;
      z(i, k + 1) = -t1 * std::conj(gr.s) + t2 * std::conj(gr.c);
    }
    if (k + 1 < hi) {
      // The similarity created a bulge at (k+2, k); the next rotation on
      // rows (k+1, k+2) chases it down the subdiagonal.
      f = h(k + 1, k);
      g = h(k + 2, k);
    }
  }
  // Scrub numerical dust below the first subdiagonal in the active window.
  for (idx k = lo; k + 2 <= hi; ++k) h(k + 2, k) = cplx{0.0};
}

// Schur decomposition A = Z T Z^H of a Hessenberg matrix (in-place on h).
void hessenberg_schur(CMatrix& h, CMatrix& z) {
  const idx n = h.rows();
  if (n == 0) return;
  const double eps = 1e-15;
  // Norm-scaled deflation floor (LAPACK smlnum role): subdiagonals this far
  // below the matrix scale are numerically zero even when the neighbouring
  // diagonal entries vanish (large zero-eigenvalue clusters in companion
  // pencils would otherwise never deflate).
  double hnorm = 0.0;
  for (idx i = 0; i < n; ++i)
    for (idx j = std::max<idx>(0, i - 1); j < n; ++j)
      hnorm = std::max(hnorm, std::abs(h(i, j)));
  const double floor_tol = 1e-20 * std::max(hnorm, 1e-300);
  idx hi = n - 1;
  int iter_guard = 0;
  const int max_iter = 120 * static_cast<int>(n) + 400;
  FlopCounter::add(static_cast<std::uint64_t>(25u) * n * n * n);
  while (hi > 0) {
    // Deflation scan.
    idx lo = hi;
    while (lo > 0) {
      const double sub = std::abs(h(lo, lo - 1));
      const double scale = std::abs(h(lo - 1, lo - 1)) + std::abs(h(lo, lo));
      if (sub <= std::max(eps * scale, floor_tol)) {
        h(lo, lo - 1) = cplx{0.0};
        break;
      }
      --lo;
    }
    if (lo == hi) {
      --hi;
      iter_guard = 0;
      continue;
    }
    if (hi - lo == 1) {
      // 2x2 active block: triangularize analytically.  QR iteration stalls
      // on (nearly) defective pairs, but the exact Schur rotation is cheap:
      // rotate an eigenvector of the 2x2 onto e1.
      const cplx a = h(lo, lo), b = h(lo, hi);
      const cplx c = h(hi, lo), d = h(hi, hi);
      const cplx lam = wilkinson_shift(h, hi);
      cplx v1 = b, v2 = lam - a;
      if (std::abs(v1) + std::abs(v2) < 1e-30 * (std::abs(a) + std::abs(d))) {
        v1 = lam - d;
        v2 = c;
      }
      const Givens gr = make_givens(v1, v2);
      for (idx j = 0; j < n; ++j) {
        const cplx t1 = h(lo, j), t2 = h(hi, j);
        h(lo, j) = std::conj(gr.c) * t1 + std::conj(gr.s) * t2;
        h(hi, j) = -gr.s * t1 + gr.c * t2;
      }
      for (idx i = 0; i < n; ++i) {
        const cplx t1 = h(i, lo), t2 = h(i, hi);
        h(i, lo) = t1 * gr.c + t2 * gr.s;
        h(i, hi) = -t1 * std::conj(gr.s) + t2 * std::conj(gr.c);
      }
      for (idx i = 0; i < n; ++i) {
        const cplx t1 = z(i, lo), t2 = z(i, hi);
        z(i, lo) = t1 * gr.c + t2 * gr.s;
        z(i, hi) = -t1 * std::conj(gr.s) + t2 * std::conj(gr.c);
      }
      h(hi, lo) = cplx{0.0};
      hi = lo;
      iter_guard = 0;
      continue;
    }
    if (++iter_guard > max_iter) {
      // Stalled (nearly defective cluster).  Force the smallest relative
      // subdiagonal of the active window to zero: convergence here is
      // rounding-fragile (it can flip with code-layout-level FP
      // differences), and a <= 1e-6-relative perturbation is far below the
      // accuracy of the downstream physics — FEAST additionally drops any
      // mode whose true residual ends up large.
      idx worst = hi;
      double worst_sub = std::abs(h(hi, hi - 1));
      for (idx k = lo + 1; k <= hi; ++k) {
        const double sub = std::abs(h(k, k - 1));
        if (sub < worst_sub) {
          worst_sub = sub;
          worst = k;
        }
      }
      // Accept up to a 1e-6-relative perturbation (the historical bound was
      // 1e-8 and only looked at the last row): this branch is only reached
      // after 120n+400 stalled sweeps, where the alternative is failing
      // outright, and FEAST re-checks every mode's true residual afterwards.
      if (worst_sub < 1e-6 * std::max(hnorm, 1e-300)) {
        h(worst, worst - 1) = cplx{0.0};
        if (worst == hi) --hi;
        iter_guard = 0;
        continue;
      }
      throw std::runtime_error("eig: QR iteration failed to converge");
    }
    // Occasional randomized exceptional shift to break limit cycles (the
    // deterministic pattern depends only on the iteration counter).
    cplx shift;
    if (iter_guard % 10 == 0) {
      const double mag =
          std::abs(h(hi, hi - 1)) + std::abs(h(hi, hi)) +
          (hi >= 2 ? std::abs(h(hi - 1, hi - 2)) : 0.0);
      const double angle = 2.399963 * static_cast<double>(iter_guard);
      shift = h(hi, hi) + mag * cplx{std::cos(angle), std::sin(angle)};
    } else {
      shift = wilkinson_shift(h, hi);
    }
    qr_sweep(h, z, lo, hi, shift);
  }
}

// Eigenvectors of the triangular Schur factor T, back-transformed by Z.
CMatrix schur_vectors(const CMatrix& t, const CMatrix& z) {
  const idx n = t.rows();
  CMatrix y(n, n);
  const double small = 1e-290;
  for (idx k = 0; k < n; ++k) {
    y(k, k) = cplx{1.0};
    const cplx lam = t(k, k);
    for (idx i = k - 1; i >= 0; --i) {
      cplx rhs{0.0};
      for (idx j = i + 1; j <= k; ++j) rhs += t(i, j) * y(j, k);
      cplx denom = t(i, i) - lam;
      if (std::abs(denom) < small) denom = cplx{small};
      y(i, k) = -rhs / denom;
    }
    // Normalize the column.
    double norm = 0.0;
    for (idx i = 0; i <= k; ++i) norm += std::norm(y(i, k));
    norm = std::sqrt(norm);
    if (norm > 0.0)
      for (idx i = 0; i <= k; ++i) y(i, k) /= norm;
  }
  CMatrix x = matmul(z, y);
  // Re-normalize columns of the back-transformed vectors.
  for (idx k = 0; k < n; ++k) {
    double norm = 0.0;
    for (idx i = 0; i < n; ++i) norm += std::norm(x(i, k));
    norm = std::sqrt(norm);
    if (norm > 0.0)
      for (idx i = 0; i < n; ++i) x(i, k) /= norm;
  }
  return x;
}

}  // namespace

EigResult eig(const CMatrix& a_in, bool want_vectors) {
  if (!a_in.square()) throw std::invalid_argument("eig: matrix not square");
  const idx n = a_in.rows();
  EigResult out;
  if (n == 0) return out;
  if (n == 1) {
    out.values = {a_in(0, 0)};
    if (want_vectors) out.vectors = CMatrix::identity(1);
    return out;
  }
  CMatrix h = a_in;
  CMatrix q;
  hessenberg(h, q);
  hessenberg_schur(h, q);
  out.values.resize(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) out.values[static_cast<std::size_t>(i)] = h(i, i);
  if (want_vectors) out.vectors = schur_vectors(h, q);
  return out;
}

EigResult generalized_eig(const CMatrix& a, const CMatrix& b,
                          bool want_vectors) {
  LUFactor blu(b);
  return eig(blu.solve(a), want_vectors);
}

EigResult shift_invert_eig(const CMatrix& a, const CMatrix& b, cplx sigma,
                           bool want_vectors, double drop_tol) {
  // M = (A - sigma B)^{-1} B; eig(M) = 1/(lambda - sigma).
  CMatrix shifted = a;
  shifted.add_block(0, 0, b, -sigma);
  LUFactor lu(shifted);
  EigResult mres = eig(lu.solve(b), want_vectors);
  EigResult out;
  out.values.reserve(mres.values.size());
  std::vector<idx> keep;
  for (idx i = 0; i < static_cast<idx>(mres.values.size()); ++i) {
    const cplx theta = mres.values[static_cast<std::size_t>(i)];
    if (std::abs(theta) <= drop_tol) continue;  // lambda at infinity
    out.values.push_back(sigma + cplx{1.0} / theta);
    keep.push_back(i);
  }
  if (want_vectors) {
    out.vectors = CMatrix(mres.vectors.rows(), static_cast<idx>(keep.size()));
    for (idx c = 0; c < static_cast<idx>(keep.size()); ++c)
      for (idx r = 0; r < mres.vectors.rows(); ++r)
        out.vectors(r, c) = mres.vectors(r, keep[static_cast<std::size_t>(c)]);
  }
  return out;
}

namespace {

// Householder reduction of a Hermitian matrix to tridiagonal form:
// T = Q^H A Q with Q = H_0 H_1 ... H_{n-3} and H_k = I - 2 v_k v_k^H acting
// on indices k+1..n-1.  Works in place on the upper triangle of `a` (the
// strictly lower triangle is never read).  On return d = diag(T) and
// t[k] = T(k+1, k), complex.  When `reflectors` is non-null, row k receives
// v_k in columns k+1..n-1 (left zero where column k needed no reflection).
void householder_tridiagonal(CMatrix& a, std::vector<double>& d_out,
                             std::vector<cplx>& t_out, CMatrix* reflectors) {
  const idx n = a.rows();
  std::vector<cplx> v_buf(static_cast<std::size_t>(n));
  std::vector<cplx> w_buf(static_cast<std::size_t>(n));
  cplx* const v = v_buf.data();
  cplx* const w = w_buf.data();
  cplx* const t = t_out.data();
  for (idx k = 0; k + 2 < n; ++k) {
    const cplx* ak = a.row_ptr(k);
    // Column k below the diagonal: x_j = conj(a(k, j)), j = k+1..n-1.
    double tail = 0.0;
    for (idx j = k + 2; j < n; ++j) tail += std::norm(ak[j]);
    const cplx x0 = std::conj(ak[k + 1]);
    if (tail == 0.0) {
      t[k] = x0;
      continue;
    }
    // H x = alpha e1 with alpha = -phase(x0) |x|; v = (x - alpha e1) / norm,
    // whose leading entry phase(x0) (|x0| + |x|) cannot cancel.
    const double ax0 = std::abs(x0);
    const double xnorm = std::sqrt(ax0 * ax0 + tail);
    const cplx phase = ax0 > 0.0 ? x0 / ax0 : cplx{1.0};
    t[k] = -xnorm * phase;
    const double lead = ax0 + xnorm;
    const double inv = 1.0 / std::sqrt(lead * lead + tail);
    v[k + 1] = (lead * inv) * phase;
    for (idx j = k + 2; j < n; ++j) v[j] = inv * std::conj(ak[j]);

    // w = A22 v from the upper triangle of the trailing block.
    std::fill(w + k + 1, w + n, cplx{0.0});
    for (idx i = k + 1; i < n; ++i) {
      const cplx* ai = a.row_ptr(i);
      const double vr = v[i].real(), vi = v[i].imag();
      double sr = ai[i].real() * vr, si = ai[i].real() * vi;
      for (idx j = i + 1; j < n; ++j) {
        const double ar = ai[j].real(), am = ai[j].imag();
        sr += ar * v[j].real() - am * v[j].imag();  // a_ij v_j
        si += ar * v[j].imag() + am * v[j].real();
        w[j] += cplx{ar * vr + am * vi, ar * vi - am * vr};  // conj(a_ij) v_i
      }
      w[i] += cplx{sr, si};
    }
    // With K = v^H w (real), w <- 2w - 2Kv gives H A22 H = A22 - v w^H - w v^H.
    double kdot = 0.0;
    for (idx i = k + 1; i < n; ++i)
      kdot += v[i].real() * w[i].real() + v[i].imag() * w[i].imag();
    for (idx i = k + 1; i < n; ++i) w[i] = 2.0 * w[i] - (2.0 * kdot) * v[i];
    for (idx i = k + 1; i < n; ++i) {
      cplx* ai = a.row_ptr(i);
      const double vr = v[i].real(), vi = v[i].imag();
      const double wr = w[i].real(), wi = w[i].imag();
      for (idx j = i; j < n; ++j) {
        // a_ij -= v_i conj(w_j) + w_i conj(v_j)
        ai[j] -= cplx{vr * w[j].real() + vi * w[j].imag() +
                          wr * v[j].real() + wi * v[j].imag(),
                      vi * w[j].real() - vr * w[j].imag() +
                          wi * v[j].real() - wr * v[j].imag()};
      }
    }
    if (reflectors != nullptr)
      std::copy(v + k + 1, v + n, reflectors->row_ptr(k) + k + 1);
  }
  if (n >= 2) t[n - 2] = std::conj(a(n - 2, n - 1));
  for (idx i = 0; i < n; ++i) d_out[static_cast<std::size_t>(i)] = a(i, i).real();
}

// Q^T for Q = H_0 H_1 ... H_{n-3}, accumulated backwards so that step k
// only touches the trailing block: X <- X H_k^T = X (I - 2 conj(v_k) v_k^T).
CMatrix householder_q_transposed(const CMatrix& reflectors) {
  const idx n = reflectors.rows();
  CMatrix x = CMatrix::identity(n);
  for (idx k = n - 3; k >= 0; --k) {
    const cplx* v = reflectors.row_ptr(k);
    if (v[k + 1] == cplx{0.0}) continue;  // H_k = I
    for (idx i = k + 1; i < n; ++i) {
      cplx* xi = x.row_ptr(i);
      double sr = 0.0, si = 0.0;  // 2 x_i . conj(v)
      for (idx j = k + 1; j < n; ++j) {
        sr += xi[j].real() * v[j].real() + xi[j].imag() * v[j].imag();
        si += xi[j].imag() * v[j].real() - xi[j].real() * v[j].imag();
      }
      sr *= 2.0;
      si *= 2.0;
      for (idx j = k + 1; j < n; ++j)
        xi[j] -= cplx{sr * v[j].real() - si * v[j].imag(),
                      sr * v[j].imag() + si * v[j].real()};
    }
  }
  return x;
}

constexpr int kMaxQlIterations = 30;  // per eigenvalue, as in LAPACK's steqr

// Implicit QL with Wilkinson shifts on the real symmetric tridiagonal with
// diagonal d and off-diagonal e[k] = T(k+1, k), e[n-1] = 0 (the EISPACK
// tql2 recurrence).  Eigenvalues overwrite d, unordered.  Each plane
// rotation on columns (i, i+1) of the eigenvector matrix V is applied to
// rows (i, i+1) of `vt` = V^T when it is non-null.  Returns the number of
// rotations; throws std::runtime_error when an eigenvalue needs more than
// kMaxQlIterations.
std::uint64_t tridiagonal_ql(std::vector<double>& d_io,
                             std::vector<double>& e_io, CMatrix* vt) {
  const idx n = static_cast<idx>(d_io.size());
  double* const d = d_io.data();
  double* const e = e_io.data();
  const double eps = std::numeric_limits<double>::epsilon();
  std::uint64_t rotations = 0;
  for (idx l = 0; l < n; ++l) {
    int iter = 0;
    idx m = l;
    do {
      for (m = l; m + 1 < n; ++m)
        if (std::abs(e[m]) <= eps * (std::abs(d[m]) + std::abs(d[m + 1])))
          break;
      if (m == l) break;
      if (++iter > kMaxQlIterations)
        throw std::runtime_error(
            "hermitian_eig: QL iteration failed to converge");
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      bool underflow = false;
      for (idx i = m - 1; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Underflow: the rotation split the block; restart on it.
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        ++rotations;
        if (vt != nullptr) {
          cplx* zi = vt->row_ptr(i);
          cplx* zj = vt->row_ptr(i + 1);
          for (idx q = 0; q < vt->cols(); ++q) {
            const cplx h = zj[q];
            zj[q] = s * zi[q] + c * h;
            zi[q] = c * zi[q] - s * h;
          }
        }
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    } while (m != l);
  }
  return rotations;
}

}  // namespace

HermEigResult hermitian_eig(const CMatrix& a_in, bool want_vectors) {
  if (!a_in.square())
    throw std::invalid_argument("hermitian_eig: matrix not square");
  const idx n = a_in.rows();
  const auto un = static_cast<std::size_t>(n);
  CMatrix a = a_in;
  std::vector<double> d(un);
  std::vector<cplx> t(un);
  CMatrix reflectors;
  if (want_vectors) reflectors = CMatrix(n, n);
  householder_tridiagonal(a, d, t, want_vectors ? &reflectors : nullptr);

  // T = D T' D^H with the unit diagonal phases delta_{k+1} =
  // delta_k t_k / |t_k| makes T' real symmetric with off-diagonal |t_k|.
  std::vector<double> e(un, 0.0);
  std::vector<cplx> delta(un, cplx{1.0});
  for (std::size_t k = 0; k + 1 < un; ++k) {
    e[k] = std::abs(t[k]);
    delta[k + 1] = e[k] > 0.0 ? delta[k] * (t[k] / e[k]) : delta[k];
  }

  // Eigenvectors V = Q D Z are carried transposed, V^T = Z^T D Q^T, so the
  // QL rotations act on contiguous rows.
  CMatrix vt;
  if (want_vectors) {
    vt = householder_q_transposed(reflectors);
    for (idx i = 0; i < n; ++i) {
      const cplx ph = delta[static_cast<std::size_t>(i)];
      cplx* row = vt.row_ptr(i);
      for (idx j = 0; j < n; ++j) row[j] *= ph;
    }
  }
  const std::uint64_t rotations =
      tridiagonal_ql(d, e, want_vectors ? &vt : nullptr);

  // Reduction (16/3) n^3 and ~20 flops per QL rotation; eigenvectors add
  // (16/3) n^3 for Q and 12 n per rotation on the complex rows.
  const auto n3 = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) *
                  static_cast<std::uint64_t>(n);
  std::uint64_t flops = 16u * n3 / 3u + 20u * rotations;
  if (want_vectors)
    flops += 16u * n3 / 3u + 12u * static_cast<std::uint64_t>(n) * rotations;
  FlopCounter::add(flops);

  HermEigResult out;
  if (!want_vectors) {
    std::sort(d.begin(), d.end());
    out.values = std::move(d);
    return out;
  }
  std::vector<idx> order(un);
  std::iota(order.begin(), order.end(), idx{0});
  std::sort(order.begin(), order.end(), [&](idx i, idx j) {
    return d[static_cast<std::size_t>(i)] < d[static_cast<std::size_t>(j)];
  });
  out.values.resize(un);
  out.vectors = CMatrix(n, n);
  for (idx c = 0; c < n; ++c) {
    const idx src = order[static_cast<std::size_t>(c)];
    out.values[static_cast<std::size_t>(c)] = d[static_cast<std::size_t>(src)];
    const cplx* row = vt.row_ptr(src);
    for (idx r = 0; r < n; ++r) out.vectors(r, c) = row[r];
  }
  return out;
}

}  // namespace omenx::numeric
