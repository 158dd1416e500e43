// Dense LU factorization with and without pivoting.
//
// The no-pivot variant mirrors MAGMA's zgesv_nopiv_gpu, the kernel the paper
// identifies as SplitSolve's bottleneck (Section 5E); the partial-pivot
// variant is the robust default used by FEAST contour solves and baselines.
//
// The factorization is right-looking and blocked: panels are factored
// unblocked, then the trailing submatrix is updated with the packed GEMM
// kernel, so at large n the O(n^3) work runs at GEMM speed.  At the
// workloads' block sizes (n <= 128, one or two 64-wide panels) most of the
// work is in-panel instead: the rank-1 and U12 updates and the in-panel
// triangular-solve loops, written as vectorizable split real/imag loops.
//
// Rounding contract: outside the GEMM calls, every complex product
// (a + ib)(c + id) rounds as re = fma(a, c, -(b*d)), im = fma(a, d, b*c)
// when the target has FMA (__FMA__), and as a*c - b*d, a*d + b*c without.
// Operands: (a, b) is the multiplier l in each x -= l*y, x in each
// x *= 1/pivot scaling, and 1/pivot in each multiplier 1/pivot * a_ik.
// It is the rounding GCC's contraction gives the same loops written with
// std::complex products, so results equal those loops' bit for bit; it is
// pinned because GCC picks the contraction per call site and the pick moves
// with unrelated edits.  Results differ only where a product overflows to
// NaN, which std::complex's __muldc3 turns back into an infinity.  The
// scalar reference in tests/numeric/test_lu.cpp checks the contract bit
// for bit.
//
// FLOPs are accounted analytically — (8/3) n^3 for the factorization,
// 8 n^2 nrhs per solve — and the internal GEMM calls are non-counting, so
// perf::lu_flops / perf::lu_solve_flops match the instrumented counter
// exactly with no double counting from the trailing updates.
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace omenx::numeric {

enum class Pivoting { kPartial, kNone };

/// In-place LU factorization of a square complex matrix with associated
/// triangular solves.  Factorization cost ~ (8/3) n^3 real flops.
class LUFactor {
 public:
  /// Factor `a`.  Throws std::runtime_error on exact singularity.
  /// `panel` is the blocking width: 0 picks the tuned default, 1 forces the
  /// classic unblocked factorization (reference path for tests).
  explicit LUFactor(CMatrix a, Pivoting pivoting = Pivoting::kPartial,
                    idx panel = 0);

  /// Solve A X = B for X (B may have many columns).
  CMatrix solve(const CMatrix& b) const;

  /// Solve X A = B for X, using the identity X = (A^T \ B^T)^T.
  CMatrix solve_left(const CMatrix& b) const;

  /// Explicit inverse (used only for small matrices, e.g. SMW's R block).
  CMatrix inverse() const;

  /// log|det(A)| — handy for sanity checks on conditioning.
  double log_abs_det() const { return log_abs_det_; }

  idx dim() const { return lu_.rows(); }

  /// Row-pivot sequence (LAPACK-style: row k was swapped with pivots()[k]).
  const pool_vector<idx>& pivots() const { return piv_; }

 private:
  CMatrix lu_;
  pool_vector<idx> piv_;
  double log_abs_det_ = 0.0;
};

/// One-shot convenience: solve A X = B.
CMatrix solve(const CMatrix& a, const CMatrix& b,
              Pivoting pivoting = Pivoting::kPartial);

/// One-shot convenience: A^{-1}.
CMatrix inverse(const CMatrix& a, Pivoting pivoting = Pivoting::kPartial);

}  // namespace omenx::numeric
