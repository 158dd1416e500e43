// Dense complex eigensolvers: Hessenberg reduction + shifted QR for general
// matrices, Householder tridiagonalization + implicit QL for Hermitian ones.
//
// These replace the LAPACK routines the paper relies on (zggev for the lead
// eigenproblem, Rayleigh-Ritz reductions in FEAST).  The generalized solver
// goes through B^{-1}A when B is well conditioned and through a
// shift-and-invert spectral transform otherwise (which also tolerates
// singular B: infinite eigenvalues map to theta = 0 and are dropped).
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace omenx::numeric {

struct EigResult {
  std::vector<cplx> values;
  /// Right eigenvectors as columns; empty when not requested.
  CMatrix vectors;
};

/// Eigenvalues (and optionally right eigenvectors) of a general complex
/// square matrix.  QR iteration on the Hessenberg form with Wilkinson
/// shifts; eigenvectors via triangular back-substitution on the Schur form.
EigResult eig(const CMatrix& a, bool want_vectors = true);

/// Generalized problem A x = lambda B x with invertible B, via B^{-1} A.
EigResult generalized_eig(const CMatrix& a, const CMatrix& b,
                          bool want_vectors = true);

/// Shift-and-invert for the pencil (A, B): eigenvalues of
/// M = (A - sigma B)^{-1} B are theta = 1/(lambda - sigma).  Finite
/// eigenvalues are recovered as lambda = sigma + 1/theta; |theta| below
/// `drop_tol` (infinite lambda) are discarded.  Works with singular B.
EigResult shift_invert_eig(const CMatrix& a, const CMatrix& b, cplx sigma,
                           bool want_vectors = true, double drop_tol = 1e-12);

struct HermEigResult {
  std::vector<double> values;
  /// Orthonormal eigenvectors as columns; empty when not requested.
  CMatrix vectors;
};

/// Eigenvalues (ascending) and optionally orthonormal eigenvectors of a
/// Hermitian matrix.  Householder reduction to a complex tridiagonal, a
/// diagonal phase scaling to a real symmetric tridiagonal, then implicit QL
/// with Wilkinson shifts; the reflectors and rotations are accumulated only
/// when `want_vectors` is set, and the values are bitwise the same either
/// way.  Reads the upper triangle and the real part of the diagonal.
/// Throws std::runtime_error if the QL iteration does not converge.
HermEigResult hermitian_eig(const CMatrix& a, bool want_vectors = true);

}  // namespace omenx::numeric
