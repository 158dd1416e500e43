#include "numeric/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "numeric/blas.hpp"
#include "numeric/matrix.hpp"

namespace nm = omenx::numeric;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {
CMatrix well_conditioned(idx n, unsigned seed) {
  CMatrix a = nm::random_cmatrix(n, n, seed);
  for (idx i = 0; i < n; ++i) a(i, i) += cplx{double(n), 0.0};
  return a;
}
}  // namespace

TEST(LU, SolveSingleRhs) {
  const CMatrix a = well_conditioned(12, 1);
  const CMatrix x_true = nm::random_cmatrix(12, 1, 2);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::solve(a, b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-11);
}

TEST(LU, SolveMultiRhs) {
  const CMatrix a = well_conditioned(20, 3);
  const CMatrix x_true = nm::random_cmatrix(20, 7, 4);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::LUFactor(a).solve(b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-10);
}

TEST(LU, NoPivotVariantOnDiagonallyDominant) {
  const CMatrix a = well_conditioned(15, 5);
  const CMatrix x_true = nm::random_cmatrix(15, 3, 6);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::solve(a, b, nm::Pivoting::kNone);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-9);
}

TEST(LU, Inverse) {
  const CMatrix a = well_conditioned(10, 7);
  const CMatrix ainv = nm::inverse(a);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(a, ainv), CMatrix::identity(10)),
            1e-11);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(ainv, a), CMatrix::identity(10)),
            1e-11);
}

TEST(LU, SolveLeft) {
  const CMatrix a = well_conditioned(9, 8);
  const CMatrix x_true = nm::random_cmatrix(4, 9, 9);
  const CMatrix b = nm::matmul(x_true, a);
  const CMatrix x = nm::LUFactor(a).solve_left(b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-10);
}

TEST(LU, SingularThrows) {
  CMatrix a(3, 3);  // all zeros
  EXPECT_THROW(nm::LUFactor{a}, std::runtime_error);
}

TEST(LU, NonSquareThrows) {
  CMatrix a(3, 4);
  EXPECT_THROW(nm::LUFactor{a}, std::invalid_argument);
}

TEST(LU, PivotingHandlesZeroDiagonal) {
  // Permutation-like matrix with zero on the diagonal requires pivoting.
  CMatrix a{{cplx{0.0}, cplx{1.0}}, {cplx{1.0}, cplx{0.0}}};
  const CMatrix b{{cplx{2.0}}, {cplx{3.0}}};
  const CMatrix x = nm::solve(a, b);
  EXPECT_LT(std::abs(x(0, 0) - cplx{3.0}), 1e-14);
  EXPECT_LT(std::abs(x(1, 0) - cplx{2.0}), 1e-14);
}

TEST(LU, LogAbsDet) {
  CMatrix a(2, 2);
  a(0, 0) = cplx{2.0};
  a(1, 1) = cplx{3.0};
  nm::LUFactor lu(a);
  EXPECT_NEAR(lu.log_abs_det(), std::log(6.0), 1e-12);
}

// Property sweep: random systems of several sizes round-trip.
class LURoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LURoundTrip, SolveRecoversSolution) {
  const idx n = GetParam();
  const CMatrix a = well_conditioned(n, 100 + static_cast<unsigned>(n));
  const CMatrix x_true = nm::random_cmatrix(n, 5, 200 + static_cast<unsigned>(n));
  const CMatrix b = nm::matmul(a, x_true);
  EXPECT_LT(nm::max_abs_diff(nm::solve(a, b), x_true), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LURoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 33, 64, 100));

// The blocked right-looking factorization must reproduce the unblocked
// reference (panel = 1): identical pivot sequence, matching factors and
// solutions up to GEMM-reordering roundoff.
TEST(LU, BlockedMatchesUnblockedReference) {
  for (idx n : {64, 150, 257}) {
    const CMatrix a = well_conditioned(n, 300 + unsigned(n));
    const nm::LUFactor blocked(a, nm::Pivoting::kPartial);
    const nm::LUFactor unblocked(a, nm::Pivoting::kPartial, /*panel=*/1);
    ASSERT_EQ(blocked.pivots().size(), unblocked.pivots().size());
    for (std::size_t k = 0; k < blocked.pivots().size(); ++k)
      EXPECT_EQ(blocked.pivots()[k], unblocked.pivots()[k]) << "k=" << k;
    EXPECT_NEAR(blocked.log_abs_det(), unblocked.log_abs_det(),
                1e-9 * std::abs(unblocked.log_abs_det()) + 1e-9);
    const CMatrix rhs = nm::random_cmatrix(n, 4, 400 + unsigned(n));
    EXPECT_LT(nm::max_abs_diff(blocked.solve(rhs), unblocked.solve(rhs)),
              1e-9);
  }
}

TEST(LU, BlockedNoPivotMatchesUnblocked) {
  const idx n = 130;
  const CMatrix a = well_conditioned(n, 77);
  const nm::LUFactor blocked(a, nm::Pivoting::kNone);
  const nm::LUFactor unblocked(a, nm::Pivoting::kNone, /*panel=*/1);
  const CMatrix rhs = nm::random_cmatrix(n, 3, 78);
  EXPECT_LT(nm::max_abs_diff(blocked.solve(rhs), unblocked.solve(rhs)), 1e-9);
}

// A panel-crossing solve still satisfies A x = b directly.
TEST(LU, BlockedSolveResidualLarge) {
  const idx n = 200;
  const CMatrix a = well_conditioned(n, 88);
  const CMatrix x_true = nm::random_cmatrix(n, 6, 89);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::LUFactor(a).solve(b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-9);
}

// Rounding contract (lu.hpp): every complex product in LUFactor's own loops
// rounds as the reference below, and the trailing updates are the same
// gemm_view calls.  The reference is the plain scalar algorithm, so any
// edit that moves a last bit of solve or solve_left fails here, including
// in the vector-remainder lengths of the split loops.
namespace ref {

#ifdef __FMA__
cplx mul(cplx x, cplx y) {
  return {std::fma(x.real(), y.real(), -(x.imag() * y.imag())),
          std::fma(x.real(), y.imag(), x.imag() * y.real())};
}
#else
cplx mul(cplx x, cplx y) {
  return {x.real() * y.real() - x.imag() * y.imag(),
          x.real() * y.imag() + x.imag() * y.real()};
}
#endif

constexpr idx kPanel = 64;

struct Factor {
  CMatrix lu;
  std::vector<idx> piv;
};

Factor factor(CMatrix a, nm::Pivoting pivoting) {
  const idx n = a.rows();
  std::vector<idx> piv(static_cast<std::size_t>(n));
  for (idx k0 = 0; k0 < n; k0 += kPanel) {
    const idx kb = std::min(kPanel, n - k0);
    const idx kend = k0 + kb;
    for (idx k = k0; k < kend; ++k) {
      idx p = k;
      if (pivoting == nm::Pivoting::kPartial)
        for (idx i = k + 1; i < n; ++i)
          if (std::abs(a(i, k)) > std::abs(a(p, k))) p = i;
      piv[static_cast<std::size_t>(k)] = p;
      for (idx j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      const cplx inv_pivot = cplx{1.0} / a(k, k);
      for (idx i = k + 1; i < n; ++i) {
        a(i, k) = mul(inv_pivot, a(i, k));
        if (a(i, k) == cplx{0.0}) continue;
        for (idx j = k + 1; j < kend; ++j) a(i, j) -= mul(a(i, k), a(k, j));
      }
    }
    if (kend == n) break;
    for (idx k = k0; k < kend; ++k)
      for (idx i = k + 1; i < kend; ++i) {
        if (a(i, k) == cplx{0.0}) continue;
        for (idx j = kend; j < n; ++j) a(i, j) -= mul(a(i, k), a(k, j));
      }
    nm::gemm_view('N', a.row_ptr(kend) + k0, n, 'N', a.row_ptr(k0) + kend, n,
                  n - kend, n - kend, kb, cplx{-1.0}, cplx{1.0},
                  a.row_ptr(kend) + kend, n, /*count_flops=*/false);
  }
  return {std::move(a), std::move(piv)};
}

CMatrix solve(const Factor& f, CMatrix x) {
  const CMatrix& lu = f.lu;
  const idx n = lu.rows();
  const idx nrhs = x.cols();
  for (idx k = 0; k < n; ++k)
    for (idx j = 0; j < nrhs; ++j)
      std::swap(x(k, j), x(f.piv[static_cast<std::size_t>(k)], j));
  for (idx k0 = 0; k0 < n; k0 += kPanel) {
    const idx kend = std::min(k0 + kPanel, n);
    for (idx i = k0 + 1; i < kend; ++i)
      for (idx k = k0; k < i; ++k) {
        if (lu(i, k) == cplx{0.0}) continue;
        for (idx j = 0; j < nrhs; ++j) x(i, j) -= mul(lu(i, k), x(k, j));
      }
    if (kend < n)
      nm::gemm_view('N', lu.row_ptr(kend) + k0, n, 'N', x.row_ptr(k0), nrhs,
                    n - kend, nrhs, kend - k0, cplx{-1.0}, cplx{1.0},
                    x.row_ptr(kend), nrhs, /*count_flops=*/false);
  }
  for (idx k0 = (n - 1) / kPanel * kPanel; k0 >= 0; k0 -= kPanel) {
    const idx kend = std::min(k0 + kPanel, n);
    for (idx i = kend - 1; i >= k0; --i) {
      for (idx k = i + 1; k < kend; ++k) {
        if (lu(i, k) == cplx{0.0}) continue;
        for (idx j = 0; j < nrhs; ++j) x(i, j) -= mul(lu(i, k), x(k, j));
      }
      const cplx inv = cplx{1.0} / lu(i, i);
      for (idx j = 0; j < nrhs; ++j) x(i, j) = mul(x(i, j), inv);
    }
    if (k0 > 0)
      nm::gemm_view('N', lu.row_ptr(0) + k0, n, 'N', x.row_ptr(k0), nrhs, k0,
                    nrhs, kend - k0, cplx{-1.0}, cplx{1.0}, x.row_ptr(0), nrhs,
                    /*count_flops=*/false);
  }
  return x;
}

CMatrix solve_left(const Factor& f, const CMatrix& b) {
  const CMatrix& lu = f.lu;
  const idx n = lu.rows();
  CMatrix x = b.transpose();
  const idx nrhs = x.cols();
  for (idx i = 0; i < n; ++i) {
    for (idx k = 0; k < i; ++k) {
      if (lu(k, i) == cplx{0.0}) continue;
      for (idx j = 0; j < nrhs; ++j) x(i, j) -= mul(lu(k, i), x(k, j));
    }
    const cplx inv = cplx{1.0} / lu(i, i);
    for (idx j = 0; j < nrhs; ++j) x(i, j) = mul(x(i, j), inv);
  }
  for (idx i = n - 1; i >= 0; --i)
    for (idx k = i + 1; k < n; ++k) {
      if (lu(k, i) == cplx{0.0}) continue;
      for (idx j = 0; j < nrhs; ++j) x(i, j) -= mul(lu(k, i), x(k, j));
    }
  for (idx k = n - 1; k >= 0; --k)
    for (idx j = 0; j < nrhs; ++j)
      std::swap(x(k, j), x(f.piv[static_cast<std::size_t>(k)], j));
  return x.transpose();
}

// Entries whose bit patterns differ (so -0 vs +0 and NaN payloads count).
idx bit_mismatches(const CMatrix& a, const CMatrix& b) {
  idx bad = 0;
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j)
      if (std::memcmp(&a(i, j), &b(i, j), sizeof(cplx)) != 0) ++bad;
  return bad;
}

}  // namespace ref

TEST(LU, BitwiseMatchesPinnedRoundingReference) {
  for (const nm::Pivoting piv : {nm::Pivoting::kPartial, nm::Pivoting::kNone}) {
    for (const idx n : {1, 2, 3, 12, 24, 63, 64, 65, 120, 130, 240}) {
      const unsigned seed = 500 + unsigned(n);
      CMatrix a = piv == nm::Pivoting::kPartial ? nm::random_cmatrix(n, n, seed)
                                                : well_conditioned(n, seed);
      // Exact zeros off the diagonal exercise the zero-multiplier skips.
      for (idx i = 0; i < n; ++i)
        for (idx j = 0; j < n; ++j)
          if (i != j && (i + 2 * j) % 5 == 1) a(i, j) = cplx{0.0};
      const nm::LUFactor lu(a, piv);
      const ref::Factor f = ref::factor(a, piv);
      ASSERT_EQ(lu.pivots().size(), f.piv.size());
      for (std::size_t k = 0; k < f.piv.size(); ++k)
        ASSERT_EQ(lu.pivots()[k], f.piv[k]) << "n=" << n << " k=" << k;
      for (const idx nrhs : {1, 7, 96, 240}) {
        const CMatrix b = nm::random_cmatrix(n, nrhs, seed + unsigned(nrhs));
        const CMatrix bl = nm::random_cmatrix(nrhs, n, seed + 7 * unsigned(nrhs));
        EXPECT_EQ(ref::bit_mismatches(lu.solve(b), ref::solve(f, b)), 0)
            << "solve n=" << n << " nrhs=" << nrhs
            << " partial=" << (piv == nm::Pivoting::kPartial);
        EXPECT_EQ(ref::bit_mismatches(lu.solve_left(bl), ref::solve_left(f, bl)),
                  0)
            << "solve_left n=" << n << " nrhs=" << nrhs
            << " partial=" << (piv == nm::Pivoting::kPartial);
      }
    }
  }
}
