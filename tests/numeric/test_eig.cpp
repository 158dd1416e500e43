#include "numeric/eig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "numeric/blas.hpp"
#include "numeric/flops.hpp"
#include "numeric/matrix.hpp"
#include "numeric/qr.hpp"
#include "numeric/types.hpp"

namespace nm = omenx::numeric;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {
// Sort eigenvalues lexicographically (re, im) for comparison.
std::vector<cplx> sorted(std::vector<cplx> v) {
  std::sort(v.begin(), v.end(), [](cplx a, cplx b) {
    if (a.real() != b.real()) return a.real() < b.real();
    return a.imag() < b.imag();
  });
  return v;
}

double residual(const CMatrix& a, const cplx lambda,
                const CMatrix& vecs, idx col) {
  const idx n = a.rows();
  double num = 0.0, den = 0.0;
  for (idx i = 0; i < n; ++i) {
    cplx av{0.0};
    for (idx j = 0; j < n; ++j) av += a(i, j) * vecs(j, col);
    num += std::norm(av - lambda * vecs(i, col));
    den += std::norm(vecs(i, col));
  }
  return std::sqrt(num / std::max(den, 1e-300));
}
}  // namespace

TEST(Eig, DiagonalMatrix) {
  CMatrix a(3, 3);
  a(0, 0) = cplx{1.0};
  a(1, 1) = cplx{2.0, 1.0};
  a(2, 2) = cplx{-3.0};
  auto r = nm::eig(a);
  auto vals = sorted(r.values);
  EXPECT_LT(std::abs(vals[0] - cplx{-3.0}), 1e-12);
  EXPECT_LT(std::abs(vals[1] - cplx{1.0}), 1e-12);
  EXPECT_LT(std::abs(vals[2] - cplx(2.0, 1.0)), 1e-12);
}

TEST(Eig, KnownTwoByTwo) {
  // [[0, 1], [-1, 0]] has eigenvalues +-i.
  CMatrix a{{cplx{0.0}, cplx{1.0}}, {cplx{-1.0}, cplx{0.0}}};
  auto r = nm::eig(a, false);
  auto vals = sorted(r.values);
  EXPECT_LT(std::abs(vals[0] - cplx(0.0, -1.0)), 1e-12);
  EXPECT_LT(std::abs(vals[1] - cplx(0.0, 1.0)), 1e-12);
}

TEST(Eig, TraceAndDetInvariants) {
  const idx n = 24;
  const CMatrix a = nm::random_cmatrix(n, n, 11);
  auto r = nm::eig(a, false);
  cplx tr_eig{0.0};
  for (auto v : r.values) tr_eig += v;
  cplx tr{0.0};
  for (idx i = 0; i < n; ++i) tr += a(i, i);
  EXPECT_LT(std::abs(tr - tr_eig), 1e-8 * n);
}

TEST(Eig, ResidualsSmall) {
  const idx n = 20;
  const CMatrix a = nm::random_cmatrix(n, n, 12);
  auto r = nm::eig(a);
  ASSERT_EQ(static_cast<idx>(r.values.size()), n);
  for (idx k = 0; k < n; ++k)
    EXPECT_LT(residual(a, r.values[static_cast<std::size_t>(k)], r.vectors, k),
              1e-8)
        << "eigenpair " << k;
}

TEST(Eig, HermitianInputGivesRealValues) {
  CMatrix a = nm::random_cmatrix(15, 15, 13);
  a = a + nm::dagger(a);
  auto r = nm::eig(a, false);
  for (auto v : r.values) EXPECT_LT(std::abs(v.imag()), 1e-8);
}

TEST(Eig, GeneralizedMatchesDirectConstruction) {
  // Pick B invertible, A = B * D with D diagonal: eigenvalues are D.
  const idx n = 10;
  CMatrix b = nm::random_cmatrix(n, n, 14);
  for (idx i = 0; i < n; ++i) b(i, i) += cplx{5.0};
  CMatrix d(n, n);
  for (idx i = 0; i < n; ++i) d(i, i) = cplx(double(i + 1), 0.5 * double(i));
  const CMatrix a = nm::matmul(b, d);
  auto r = nm::generalized_eig(a, b, false);
  auto vals = sorted(r.values);
  for (idx i = 0; i < n; ++i)
    EXPECT_LT(std::abs(vals[static_cast<std::size_t>(i)] -
                       cplx(double(i + 1), 0.5 * double(i))),
              1e-7);
}

TEST(Eig, ShiftInvertRecoversFiniteEigenvalues) {
  const idx n = 8;
  CMatrix b = CMatrix::identity(n);
  CMatrix a(n, n);
  for (idx i = 0; i < n; ++i) a(i, i) = cplx(double(i), 0.0);
  auto r = nm::shift_invert_eig(a, b, cplx{-0.7, 0.3}, false);
  auto vals = sorted(r.values);
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i)
    EXPECT_LT(std::abs(vals[static_cast<std::size_t>(i)] - cplx(double(i))),
              1e-9);
}

TEST(Eig, ShiftInvertDropsInfiniteEigenvalues) {
  // Singular B: pencil has infinite eigenvalues that must be discarded.
  CMatrix a{{cplx{2.0}, cplx{0.0}}, {cplx{0.0}, cplx{1.0}}};
  CMatrix b{{cplx{1.0}, cplx{0.0}}, {cplx{0.0}, cplx{0.0}}};
  auto r = nm::shift_invert_eig(a, b, cplx{0.1, 0.1}, false);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_LT(std::abs(r.values[0] - cplx{2.0}), 1e-9);
}

namespace {

CMatrix random_hermitian(idx n, unsigned seed) {
  const CMatrix a = nm::random_cmatrix(n, n, seed);
  return a + nm::dagger(a);
}

// Ascending values, ||A v - lambda v|| <= 1e-10 ||A|| for every column and
// ||V^H V - I|| <= 1e-10.
void expect_hermitian_decomposition(const CMatrix& a,
                                    const nm::HermEigResult& r) {
  const idx n = a.rows();
  ASSERT_EQ(static_cast<idx>(r.values.size()), n);
  ASSERT_EQ(r.vectors.rows(), n);
  ASSERT_EQ(r.vectors.cols(), n);
  for (idx i = 1; i < n; ++i)
    EXPECT_LE(r.values[static_cast<std::size_t>(i - 1)],
              r.values[static_cast<std::size_t>(i)]);
  const double scale = std::max(nm::frob_norm(a), 1e-300);
  const CMatrix av = nm::matmul(a, r.vectors);
  for (idx k = 0; k < n; ++k) {
    double res = 0.0;
    for (idx i = 0; i < n; ++i)
      res += std::norm(av(i, k) -
                       r.values[static_cast<std::size_t>(k)] * r.vectors(i, k));
    EXPECT_LE(std::sqrt(res), 1e-10 * scale) << "eigenpair " << k;
  }
  EXPECT_LE(nm::max_abs_diff(nm::matmul(r.vectors, r.vectors, 'C', 'N'),
                             CMatrix::identity(n)),
            1e-10);
}

}  // namespace

TEST(HermitianEig, ValuesOnlyBitwiseEqualToWithVectors) {
  for (const idx n : {1, 2, 3, 17, 64, 120}) {
    const CMatrix a = random_hermitian(n, 40 + static_cast<unsigned>(n));
    const auto full = nm::hermitian_eig(a);
    const auto values = nm::hermitian_eig(a, /*want_vectors=*/false);
    EXPECT_TRUE(values.vectors.empty());
    EXPECT_EQ(values.values, full.values) << "n = " << n;
  }
}

TEST(HermitianEig, DegenerateSpectrum) {
  // U diag(1, 1, 1, 2, 2, 3, 3, ...) U^H with a random unitary U.
  const idx n = 24;
  const CMatrix u = nm::qr_decompose(nm::random_cmatrix(n, n, 17)).q;
  CMatrix lambda(n, n);
  std::vector<double> expect;
  for (idx i = 0; i < n; ++i) {
    const double v = i < 3 ? 1.0 : static_cast<double>(2 + (i - 3) / 2);
    lambda(i, i) = cplx{v};
    expect.push_back(v);
  }
  CMatrix a = nm::matmul(nm::matmul(u, lambda), u, 'N', 'C');
  a = (a + nm::dagger(a)) * cplx{0.5};
  const auto r = nm::hermitian_eig(a);
  expect_hermitian_decomposition(a, r);
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(r.values[static_cast<std::size_t>(i)],
                expect[static_cast<std::size_t>(i)], 1e-12 * double(n));
}

TEST(HermitianEig, DiagonalInput) {
  const std::vector<double> diag{3.0, -1.0, 2.5, 0.0, -7.0};
  const idx n = static_cast<idx>(diag.size());
  CMatrix a(n, n);
  for (idx i = 0; i < n; ++i) a(i, i) = cplx{diag[static_cast<std::size_t>(i)]};
  const auto r = nm::hermitian_eig(a);
  auto expect = diag;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(r.values, expect);
  expect_hermitian_decomposition(a, r);
}

TEST(HermitianEig, ZeroMatrix) {
  const CMatrix a(6, 6);
  const auto r = nm::hermitian_eig(a);
  for (const double v : r.values) EXPECT_EQ(v, 0.0);
  EXPECT_LE(nm::max_abs_diff(nm::matmul(r.vectors, r.vectors, 'C', 'N'),
                             CMatrix::identity(6)),
            1e-14);
}

TEST(HermitianEig, ComplexTridiagonalToeplitz) {
  // Diagonal a, off-diagonal b = |b| e^{i phi}: the phases are a diagonal
  // similarity away from the real Toeplitz matrix, whose eigenvalues are
  // a + 2|b| cos(j pi / (n + 1)).
  const idx n = 17;
  const double diag = 0.4, mag = 0.7;
  const cplx b = std::polar(mag, 0.3);
  CMatrix a(n, n);
  for (idx i = 0; i < n; ++i) {
    a(i, i) = cplx{diag};
    if (i + 1 < n) {
      a(i, i + 1) = b;
      a(i + 1, i) = std::conj(b);
    }
  }
  const auto r = nm::hermitian_eig(a);
  expect_hermitian_decomposition(a, r);
  std::vector<double> expect;
  for (idx j = 1; j <= n; ++j)
    expect.push_back(diag + 2.0 * mag * std::cos(double(j) * nm::kPi /
                                                 double(n + 1)));
  std::sort(expect.begin(), expect.end());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(r.values[static_cast<std::size_t>(i)],
                expect[static_cast<std::size_t>(i)], 1e-13);
}

TEST(HermitianEig, EmptyAndNonSquare) {
  const auto r = nm::hermitian_eig(CMatrix{});
  EXPECT_TRUE(r.values.empty());
  EXPECT_THROW(nm::hermitian_eig(CMatrix(2, 3)), std::invalid_argument);
}

TEST(HermitianEig, NonConvergenceThrows) {
  // A NaN never passes the deflation test, so the QL iteration cap is hit.
  CMatrix a = random_hermitian(5, 18);
  a(2, 3) = cplx{std::nan(""), 0.0};
  a(3, 2) = a(2, 3);
  EXPECT_THROW(nm::hermitian_eig(a, false), std::runtime_error);
  EXPECT_THROW(nm::hermitian_eig(a), std::runtime_error);
}

TEST(HermitianEig, FlopCountFollowsThePathTaken) {
  const idx n = 64;
  const CMatrix a = random_hermitian(n, 19);
  const double reduction = 16.0 / 3.0 * double(n) * double(n) * double(n);
  nm::FlopScope values_scope;
  nm::hermitian_eig(a, false);
  const auto values_flops = static_cast<double>(values_scope.elapsed());
  nm::FlopScope vectors_scope;
  nm::hermitian_eig(a, true);
  const auto vectors_flops = static_cast<double>(vectors_scope.elapsed());
  EXPECT_GE(values_flops, reduction);
  EXPECT_LE(values_flops, 1.1 * reduction);
  EXPECT_GE(vectors_flops, 2.0 * reduction);
}

// Property sweep over sizes for the Hermitian solver.
class HermitianEigSizes : public ::testing::TestWithParam<int> {};

TEST_P(HermitianEigSizes, DecompositionAcrossSizes) {
  const idx n = GetParam();
  const CMatrix a = random_hermitian(n, 500 + static_cast<unsigned>(n));
  expect_hermitian_decomposition(a, nm::hermitian_eig(a));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HermitianEigSizes,
                         ::testing::Values(1, 2, 3, 12, 17, 64, 120));

// Property sweep over sizes: eigen-residuals stay small.
class EigSizes : public ::testing::TestWithParam<int> {};

TEST_P(EigSizes, ResidualsAcrossSizes) {
  const idx n = GetParam();
  const CMatrix a = nm::random_cmatrix(n, n, 300 + static_cast<unsigned>(n));
  auto r = nm::eig(a);
  for (idx k = 0; k < n; ++k)
    EXPECT_LT(residual(a, r.values[static_cast<std::size_t>(k)], r.vectors, k),
              1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSizes,
                         ::testing::Values(2, 3, 4, 6, 10, 16, 25, 40));
