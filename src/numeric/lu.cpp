#include "numeric/lu.hpp"

#include <cmath>
#include <stdexcept>

#include "numeric/blas.hpp"
#include "numeric/flops.hpp"

namespace omenx::numeric {

namespace {
// Default panel width for the blocked right-looking factorization and the
// blocked triangular solves.
constexpr idx kDefaultPanel = 64;

// Complex product (a + ib)(c + id) with the rounding of the contract in
// lu.hpp.  A std::complex product's NaN-recovery branch (__muldc3) keeps a
// loop scalar; written out, the loops below vectorize.  The explicit
// std::fma stops the compiler from picking its own contraction per call
// site, and the operand order at each call is part of the contract.
#ifdef __FMA__
inline double mul_re(double a, double b, double c, double d) {
  return std::fma(a, c, -(b * d));
}
inline double mul_im(double a, double b, double c, double d) {
  return std::fma(a, d, b * c);
}
#else
inline double mul_re(double a, double b, double c, double d) {
  return a * c - b * d;
}
inline double mul_im(double a, double b, double c, double d) {
  return a * d + b * c;
}
#endif

inline cplx mul(cplx x, cplx y) {
  return {mul_re(x.real(), x.imag(), y.real(), y.imag()),
          mul_im(x.real(), x.imag(), y.real(), y.imag())};
}

// x[j] -= l * y[j] for j in [0, n), on the interleaved re/im doubles.
inline void sub_scaled(cplx* __restrict x, cplx l, const cplx* __restrict y,
                       idx n) {
  double* xd = reinterpret_cast<double*>(x);
  const double* yd = reinterpret_cast<const double*>(y);
  const double lr = l.real(), li = l.imag();
  for (idx j = 0; j < n; ++j) {
    const double yr = yd[2 * j], yi = yd[2 * j + 1];
    xd[2 * j] -= mul_re(lr, li, yr, yi);
    xd[2 * j + 1] -= mul_im(lr, li, yr, yi);
  }
}

// x[j] *= s for j in [0, n).
inline void scale(cplx* x, cplx s, idx n) {
  double* xd = reinterpret_cast<double*>(x);
  const double sr = s.real(), si = s.imag();
  for (idx j = 0; j < n; ++j) {
    const double xr = xd[2 * j], xi = xd[2 * j + 1];
    xd[2 * j] = mul_re(xr, xi, sr, si);
    xd[2 * j + 1] = mul_im(xr, xi, sr, si);
  }
}
}  // namespace

LUFactor::LUFactor(CMatrix a, Pivoting pivoting, idx panel) : lu_(std::move(a)) {
  if (!lu_.square()) throw std::invalid_argument("LUFactor: matrix not square");
  const idx n = lu_.rows();
  const idx nb = panel > 0 ? panel : kDefaultPanel;
  piv_.resize(static_cast<std::size_t>(n));
  FlopCounter::add(static_cast<std::uint64_t>(8.0 / 3.0 * n * n * n));

  for (idx k0 = 0; k0 < n; k0 += nb) {
    const idx kb = std::min(nb, n - k0);
    const idx kend = k0 + kb;

    // --- Panel factorization (unblocked) on columns [k0, kend), rows
    // [k0, n).  Row swaps are applied across the full width so the pivot
    // sequence and the factors match the unblocked algorithm exactly.
    for (idx k = k0; k < kend; ++k) {
      idx p = k;
      if (pivoting == Pivoting::kPartial) {
        double best = std::abs(lu_(k, k));
        for (idx i = k + 1; i < n; ++i) {
          const double v = std::abs(lu_(i, k));
          if (v > best) {
            best = v;
            p = i;
          }
        }
      }
      piv_[static_cast<std::size_t>(k)] = p;
      if (p != k) {
        cplx* rk = lu_.row_ptr(k);
        cplx* rp = lu_.row_ptr(p);
        for (idx j = 0; j < n; ++j) std::swap(rk[j], rp[j]);
      }
      const cplx pivot = lu_(k, k);
      if (pivot == cplx{0.0})
        throw std::runtime_error("LUFactor: exactly singular matrix");
      log_abs_det_ += std::log(std::abs(pivot));
      const cplx inv_pivot = cplx{1.0} / pivot;
      const cplx* krow = lu_.row_ptr(k);
      for (idx i = k + 1; i < n; ++i) {
        cplx* irow = lu_.row_ptr(i);
        const cplx lik = mul(inv_pivot, irow[k]);
        irow[k] = lik;
        if (lik == cplx{0.0}) continue;
        // Rank-1 update restricted to the remaining panel columns; the
        // trailing block gets its update from the GEMM below.
        sub_scaled(irow + k + 1, lik, krow + k + 1, kend - k - 1);
      }
    }
    if (kend == n) break;

    // --- U12 = L11^{-1} A12: unit-lower triangular solve on the panel rows
    // applied to the trailing columns.
    for (idx k = k0; k < kend; ++k) {
      const cplx* krow = lu_.row_ptr(k);
      for (idx i = k + 1; i < kend; ++i) {
        const cplx lik = lu_(i, k);
        if (lik == cplx{0.0}) continue;
        cplx* irow = lu_.row_ptr(i);
        sub_scaled(irow + kend, lik, krow + kend, n - kend);
      }
    }

    // --- Trailing update A22 -= L21 * U12 at GEMM speed.  Non-counting:
    // the analytic (8/3) n^3 added above already covers it.
    gemm_view('N', lu_.row_ptr(kend) + k0, n, 'N', lu_.row_ptr(k0) + kend, n,
              n - kend, n - kend, kb, cplx{-1.0}, cplx{1.0},
              lu_.row_ptr(kend) + kend, n, /*count_flops=*/false);
  }
}

CMatrix LUFactor::solve(const CMatrix& b) const {
  const idx n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LUFactor::solve: shape");
  const idx nrhs = b.cols();
  CMatrix x = b;
  FlopCounter::add(static_cast<std::uint64_t>(8u) * n * n * nrhs);
  const idx nb = kDefaultPanel;

  // Apply row permutation.
  for (idx k = 0; k < n; ++k) {
    const idx p = piv_[static_cast<std::size_t>(k)];
    if (p != k)
      for (idx j = 0; j < nrhs; ++j) std::swap(x(k, j), x(p, j));
  }
  // Forward substitution (L has unit diagonal), blocked: solve within each
  // diagonal panel, then push the panel's contribution to all rows below in
  // one GEMM.
  for (idx k0 = 0; k0 < n; k0 += nb) {
    const idx kend = std::min(k0 + nb, n);
    for (idx i = k0 + 1; i < kend; ++i) {
      const cplx* lrow = lu_.row_ptr(i);
      cplx* xrow = x.row_ptr(i);
      for (idx k = k0; k < i; ++k) {
        const cplx lik = lrow[k];
        if (lik == cplx{0.0}) continue;
        sub_scaled(xrow, lik, x.row_ptr(k), nrhs);
      }
    }
    if (kend < n)
      gemm_view('N', lu_.row_ptr(kend) + k0, n, 'N', x.row_ptr(k0), nrhs,
                n - kend, nrhs, kend - k0, cplx{-1.0}, cplx{1.0},
                x.row_ptr(kend), nrhs, /*count_flops=*/false);
  }
  // Backward substitution, blocked from the bottom.
  for (idx k0 = (n - 1) / nb * nb; k0 >= 0; k0 -= nb) {
    const idx kend = std::min(k0 + nb, n);
    for (idx i = kend - 1; i >= k0; --i) {
      const cplx* urow = lu_.row_ptr(i);
      cplx* xrow = x.row_ptr(i);
      for (idx k = i + 1; k < kend; ++k) {
        const cplx uik = urow[k];
        if (uik == cplx{0.0}) continue;
        sub_scaled(xrow, uik, x.row_ptr(k), nrhs);
      }
      scale(xrow, cplx{1.0} / urow[i], nrhs);
    }
    if (k0 > 0)
      gemm_view('N', lu_.row_ptr(0) + k0, n, 'N', x.row_ptr(k0), nrhs, k0,
                nrhs, kend - k0, cplx{-1.0}, cplx{1.0}, x.row_ptr(0), nrhs,
                /*count_flops=*/false);
    if (k0 == 0) break;
  }
  return x;
}

CMatrix LUFactor::solve_left(const CMatrix& b) const {
  // X A = B  <=>  A^T X^T = B^T.  Solve with the stored factors through
  // A^T = U^T L^T P: forward substitution with U^T, backward with L^T, then
  // undo the permutation.  Only used for small SMW blocks and the block-
  // tridiagonal L_i computation, so the unblocked row loops are fine.
  if (b.cols() != lu_.rows())
    throw std::invalid_argument("LUFactor::solve_left: shape");
  CMatrix bt = b.transpose();
  const idx n = lu_.rows();
  const idx nrhs = bt.cols();
  FlopCounter::add(static_cast<std::uint64_t>(8u) * n * n * nrhs);
  CMatrix x = std::move(bt);
  // Forward substitution with U^T (lower triangular, non-unit diagonal):
  for (idx i = 0; i < n; ++i) {
    cplx* xrow = x.row_ptr(i);
    for (idx k = 0; k < i; ++k) {
      const cplx uki = lu_(k, i);  // (U^T)(i,k) = U(k,i)
      if (uki == cplx{0.0}) continue;
      sub_scaled(xrow, uki, x.row_ptr(k), nrhs);
    }
    scale(xrow, cplx{1.0} / lu_(i, i), nrhs);
  }
  // Backward substitution with L^T (upper triangular, unit diagonal):
  for (idx i = n - 1; i >= 0; --i) {
    cplx* xrow = x.row_ptr(i);
    for (idx k = i + 1; k < n; ++k) {
      const cplx lki = lu_(k, i);  // (L^T)(i,k) = L(k,i)
      if (lki == cplx{0.0}) continue;
      sub_scaled(xrow, lki, x.row_ptr(k), nrhs);
    }
  }
  // x currently holds v with A^T = U^T L^T P => v = P x_final, so
  // x_final = P^T v: undo the permutation rows in reverse order.
  for (idx k = n - 1; k >= 0; --k) {
    const idx p = piv_[static_cast<std::size_t>(k)];
    if (p != k)
      for (idx j = 0; j < nrhs; ++j) std::swap(x(k, j), x(p, j));
  }
  return x.transpose();
}

CMatrix LUFactor::inverse() const {
  return solve(CMatrix::identity(lu_.rows()));
}

CMatrix solve(const CMatrix& a, const CMatrix& b, Pivoting pivoting) {
  return LUFactor(a, pivoting).solve(b);
}

CMatrix inverse(const CMatrix& a, Pivoting pivoting) {
  return LUFactor(a, pivoting).inverse();
}

}  // namespace omenx::numeric
