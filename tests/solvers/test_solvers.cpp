// Solver suite tests: every solver is validated against a dense LU
// reference on random Hermitian-structured block tridiagonal systems, and
// SplitSolve against the explicit (A - BC) system of Fig. 4.
#include <gtest/gtest.h>

#include <string>

#include "blockmat/block_tridiag.hpp"
#include "numeric/blas.hpp"
#include "numeric/lu.hpp"
#include "parallel/device.hpp"
#include "parallel/tracer.hpp"
#include "solvers/bcr.hpp"
#include "solvers/block_lu.hpp"
#include "solvers/rgf.hpp"
#include "solvers/spike.hpp"
#include "solvers/splitsolve.hpp"

namespace bm = omenx::blockmat;
namespace nm = omenx::numeric;
namespace pp = omenx::parallel;
namespace sv = omenx::solvers;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

// Well-conditioned random block tridiagonal system.
bm::BlockTridiag random_system(idx nb, idx s, unsigned seed) {
  bm::BlockTridiag t(nb, s);
  for (idx i = 0; i < nb; ++i) {
    t.diag(i) = nm::random_cmatrix(s, s, seed + static_cast<unsigned>(i));
    for (idx d = 0; d < s; ++d)
      t.diag(i)(d, d) += cplx{6.0, 0.5};
    if (i + 1 < nb) {
      t.upper(i) =
          nm::random_cmatrix(s, s, seed + 1000 + static_cast<unsigned>(i));
      t.lower(i) =
          nm::random_cmatrix(s, s, seed + 2000 + static_cast<unsigned>(i));
    }
  }
  return t;
}

}  // namespace

TEST(BlockLU, MatchesDenseSolve) {
  const auto a = random_system(6, 4, 1);
  const CMatrix b = nm::random_cmatrix(a.dim(), 3, 99);
  const CMatrix x = sv::block_lu_solve(a, b);
  const CMatrix ref = nm::solve(a.to_dense(), b);
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-9);
}

TEST(BlockLU, SingleBlock) {
  const auto a = random_system(1, 5, 2);
  const CMatrix b = nm::random_cmatrix(5, 2, 98);
  EXPECT_LT(nm::max_abs_diff(sv::block_lu_solve(a, b),
                             nm::solve(a.to_dense(), b)),
            1e-10);
}

TEST(BlockLU, DimensionMismatchThrows) {
  const auto a = random_system(3, 2, 3);
  EXPECT_THROW(sv::block_lu_solve(a, CMatrix(5, 1)), std::invalid_argument);
}

TEST(Bcr, MatchesDenseSolvePowerOfTwo) {
  const auto a = random_system(8, 3, 4);
  const CMatrix b = nm::random_cmatrix(a.dim(), 2, 97);
  EXPECT_LT(nm::max_abs_diff(sv::bcr_solve(a, b), nm::solve(a.to_dense(), b)),
            1e-9);
}

TEST(Bcr, MatchesDenseSolveOddCount) {
  const auto a = random_system(7, 3, 5);
  const CMatrix b = nm::random_cmatrix(a.dim(), 2, 96);
  EXPECT_LT(nm::max_abs_diff(sv::bcr_solve(a, b), nm::solve(a.to_dense(), b)),
            1e-9);
}

TEST(Bcr, SingleAndTwoBlocks) {
  for (idx nb : {1, 2, 3}) {
    const auto a = random_system(nb, 4, 6 + static_cast<unsigned>(nb));
    const CMatrix b = nm::random_cmatrix(a.dim(), 2, 95);
    EXPECT_LT(nm::max_abs_diff(sv::bcr_solve(a, b),
                               nm::solve(a.to_dense(), b)),
              1e-9)
        << "nb=" << nb;
  }
}

TEST(Rgf, FirstColumnMatchesDenseInverse) {
  const auto a = random_system(5, 3, 7);
  const CMatrix ainv = nm::inverse(a.to_dense());
  const CMatrix q = sv::rgf_first_block_column(a);
  const CMatrix expected = ainv.block(0, 0, a.dim(), 3);
  EXPECT_LT(nm::max_abs_diff(q, expected), 1e-9);
}

TEST(Rgf, LastColumnMatchesDenseInverse) {
  const auto a = random_system(5, 3, 8);
  const CMatrix ainv = nm::inverse(a.to_dense());
  const CMatrix q = sv::rgf_last_block_column(a);
  const CMatrix expected = ainv.block(0, a.dim() - 3, a.dim(), 3);
  EXPECT_LT(nm::max_abs_diff(q, expected), 1e-9);
}

TEST(Rgf, BothColumnsStacked) {
  const auto a = random_system(4, 2, 9);
  const CMatrix q = sv::rgf_block_columns(a);
  EXPECT_EQ(q.cols(), 4);
  const CMatrix ainv = nm::inverse(a.to_dense());
  EXPECT_LT(nm::max_abs_diff(q.block(0, 0, a.dim(), 2),
                             ainv.block(0, 0, a.dim(), 2)),
            1e-9);
  EXPECT_LT(nm::max_abs_diff(q.block(0, 2, a.dim(), 2),
                             ainv.block(0, a.dim() - 2, a.dim(), 2)),
            1e-9);
}

TEST(Rgf, DiagonalBlocksMatchDenseInverse) {
  const auto a = random_system(6, 3, 10);
  const CMatrix ainv = nm::inverse(a.to_dense());
  const auto diags = sv::rgf_diagonal_blocks(a);
  ASSERT_EQ(static_cast<idx>(diags.size()), 6);
  for (idx i = 0; i < 6; ++i)
    EXPECT_LT(nm::max_abs_diff(diags[static_cast<std::size_t>(i)],
                               ainv.block(i * 3, i * 3, 3, 3)),
              1e-9)
        << "block " << i;
}

TEST(Spike, PartitionValidation) {
  EXPECT_TRUE(sv::spike_partitioning_valid(8, 1));
  EXPECT_TRUE(sv::spike_partitioning_valid(8, 2));
  EXPECT_TRUE(sv::spike_partitioning_valid(8, 8));
  EXPECT_FALSE(sv::spike_partitioning_valid(8, 3));
  EXPECT_FALSE(sv::spike_partitioning_valid(8, 16));
  EXPECT_FALSE(sv::spike_partitioning_valid(8, 0));
}

class SpikePartitions : public ::testing::TestWithParam<int> {};

TEST_P(SpikePartitions, MatchesSinglePartitionRgf) {
  const int p = GetParam();
  const auto a = random_system(16, 3, 11);
  pp::DevicePool pool(std::max(2, p));
  sv::SpikeOptions opt;
  opt.partitions = p;
  const CMatrix q = sv::spike_block_columns(a, pool, opt);
  const CMatrix ref = sv::rgf_block_columns(a);
  EXPECT_LT(nm::max_abs_diff(q, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, SpikePartitions,
                         ::testing::Values(1, 2, 4, 8));

TEST(Spike, UnevenBlockCountsAcrossPartitions) {
  // 10 blocks over 4 partitions: sizes 2,3,2,3.
  const auto a = random_system(10, 2, 12);
  pp::DevicePool pool(4);
  sv::SpikeOptions opt;
  opt.partitions = 4;
  const CMatrix q = sv::spike_block_columns(a, pool, opt);
  EXPECT_LT(nm::max_abs_diff(q, sv::rgf_block_columns(a)), 1e-8);
}

TEST(Spike, FewerDevicesThanPartitions) {
  const auto a = random_system(8, 2, 13);
  pp::DevicePool pool(2);
  sv::SpikeOptions opt;
  opt.partitions = 4;  // partitions share devices round-robin
  EXPECT_LT(nm::max_abs_diff(sv::spike_block_columns(a, pool, opt),
                             sv::rgf_block_columns(a)),
            1e-8);
}

TEST(Spike, RecordsDeviceTraffic) {
  const auto a = random_system(8, 2, 14);
  pp::DevicePool pool(2);
  sv::SpikeOptions opt;
  opt.partitions = 2;
  sv::spike_block_columns(a, pool, opt);
  EXPECT_GT(pool.device(0).h2d_bytes(), 0u);
}

TEST(SplitSolve, ShermanMorrisonWoodburyIdentity) {
  // x from SplitSolve equals the direct solve of T = A - BC.
  const auto a = random_system(8, 3, 15);
  const idx s = 3;
  CMatrix sigma_l = nm::random_cmatrix(s, s, 50);
  CMatrix sigma_r = nm::random_cmatrix(s, s, 51);
  sigma_l *= cplx{0.3};
  sigma_r *= cplx{0.3};
  const CMatrix b_top = nm::random_cmatrix(s, 2, 52);
  const CMatrix b_bot = nm::random_cmatrix(s, 2, 53);

  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {.partitions = 2});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);

  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix b = sv::expand_boundary_rhs(a.dim(), b_top, b_bot);
  const CMatrix ref = nm::solve(t.to_dense(), b);
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-8);
}

TEST(SplitSolve, MatchesBlockLUAndBcr) {
  const auto a = random_system(8, 2, 16);
  const idx s = 2;
  CMatrix sigma_l = nm::random_cmatrix(s, s, 60);
  CMatrix sigma_r = nm::random_cmatrix(s, s, 61);
  sigma_l *= cplx{0.2};
  sigma_r *= cplx{0.2};
  const CMatrix b_top = nm::random_cmatrix(s, 1, 62);
  const CMatrix b_bot = CMatrix(s, 1);

  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {.partitions = 1});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);

  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix b = sv::expand_boundary_rhs(a.dim(), b_top, b_bot);
  EXPECT_LT(nm::max_abs_diff(x, sv::block_lu_solve(t, b)), 1e-8);
  EXPECT_LT(nm::max_abs_diff(x, sv::bcr_solve(t, b)), 1e-8);
}

TEST(SplitSolve, PreprocessingOverlapsWithBoundaryWork) {
  // Step 1 runs without Sigma; Q must be available and correct before any
  // boundary data exists.
  const auto a = random_system(6, 2, 17);
  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {.partitions = 2});
  const CMatrix& q = ss.preprocessed_q();
  EXPECT_EQ(q.rows(), a.dim());
  EXPECT_EQ(q.cols(), 4);
  EXPECT_LT(nm::max_abs_diff(q, sv::rgf_block_columns(a)), 1e-8);
}

TEST(SplitSolve, ZeroSigmaReducesToOpenSystem) {
  const auto a = random_system(5, 2, 18);
  const CMatrix zero(2, 2);
  const CMatrix b_top = nm::random_cmatrix(2, 1, 70);
  const CMatrix b_bot = nm::random_cmatrix(2, 1, 71);
  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {});
  const CMatrix x = ss.solve(zero, zero, b_top, b_bot);
  const CMatrix ref =
      nm::solve(a.to_dense(), sv::expand_boundary_rhs(a.dim(), b_top, b_bot));
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-9);
}

TEST(SplitSolve, InvalidPartitionsThrow) {
  const auto a = random_system(4, 2, 19);
  pp::DevicePool pool(2);
  EXPECT_THROW(sv::SplitSolve(a, pool, {.partitions = 3}),
               std::invalid_argument);
  EXPECT_THROW(sv::SplitSolve(a, pool, {.partitions = 8}),
               std::invalid_argument);
}

TEST(SplitSolve, ManyRhsColumns) {
  const auto a = random_system(6, 3, 20);
  const idx s = 3;
  CMatrix sigma_l = nm::random_cmatrix(s, s, 80) * cplx{0.1};
  CMatrix sigma_r = nm::random_cmatrix(s, s, 81) * cplx{0.1};
  const CMatrix b_top = nm::random_cmatrix(s, 7, 82);
  const CMatrix b_bot = nm::random_cmatrix(s, 7, 83);
  pp::DevicePool pool(4);
  sv::SplitSolve ss(a, pool, {.partitions = 2});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);
  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix ref =
      nm::solve(t.to_dense(), sv::expand_boundary_rhs(a.dim(), b_top, b_bot));
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-8);
}

// Property sweep: SplitSolve == dense reference across system shapes and
// partition counts.
struct ShapeParam {
  idx nb;
  idx s;
  int partitions;
};

class SplitSolveShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(SplitSolveShapes, AgreesWithDense) {
  const auto [nb, s, p] = GetParam();
  const auto a = random_system(nb, s, 333 + static_cast<unsigned>(nb * s));
  CMatrix sigma_l = nm::random_cmatrix(s, s, 90) * cplx{0.25};
  CMatrix sigma_r = nm::random_cmatrix(s, s, 91) * cplx{0.25};
  const CMatrix b_top = nm::random_cmatrix(s, 2, 92);
  const CMatrix b_bot = nm::random_cmatrix(s, 2, 93);
  pp::DevicePool pool(std::max(2, p));
  sv::SplitSolve ss(a, pool, {.partitions = p});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);
  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix ref =
      nm::solve(t.to_dense(), sv::expand_boundary_rhs(a.dim(), b_top, b_bot));
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitSolveShapes,
    ::testing::Values(ShapeParam{2, 2, 1}, ShapeParam{4, 1, 2},
                      ShapeParam{8, 2, 4}, ShapeParam{12, 3, 4},
                      ShapeParam{16, 2, 8}, ShapeParam{9, 4, 2},
                      ShapeParam{32, 2, 8}));

// Transmission-only SplitSolve (RowSet::kEnds): Step 1 keeps only Q's first
// and last block rows, Steps 2-4 return only x's.  Those rows must equal
// the full path's bit for bit, on every Step 1 route (host, pool,
// SplitSolve's own launch) and for every partition layout.
namespace {

void expect_end_rows_equal(const CMatrix& full, const CMatrix& ends, idx s,
                           const char* what) {
  ASSERT_EQ(ends.rows(), 2 * s) << what;
  ASSERT_EQ(ends.cols(), full.cols()) << what;
  const idx bot = full.rows() - s;
  for (idx r = 0; r < s; ++r)
    for (idx c = 0; c < full.cols(); ++c) {
      EXPECT_EQ(ends(r, c), full(r, c)) << what << " top row " << r;
      EXPECT_EQ(ends(s + r, c), full(bot + r, c)) << what << " bottom row "
                                                  << r;
    }
}

}  // namespace

TEST(SplitSolve, EndRowsMatchFullSolveBitwise) {
  // Partition counts 1, 2, 4; an uneven split (11 blocks over 4: sizes
  // 2,3,3,3); nb == p (every partition a single block, whose top and bottom
  // rows coincide); a single-block system.
  const ShapeParam shapes[] = {{8, 3, 1}, {8, 3, 2},  {8, 3, 4},
                               {11, 2, 4}, {4, 2, 4}, {1, 3, 1}};
  for (const auto& [nb, s, p] : shapes) {
    SCOPED_TRACE("nb=" + std::to_string(nb) + " s=" + std::to_string(s) +
                 " p=" + std::to_string(p));
    const auto a = random_system(nb, s, 400 + static_cast<unsigned>(nb * s));
    sv::SpikeOptions so;
    so.partitions = p;
    pp::DevicePool pool(2);

    // Step 1 on each route.
    const CMatrix q_full = sv::spike_block_columns(a, so);
    expect_end_rows_equal(
        q_full, sv::spike_block_columns(a, so, sv::RowSet::kEnds), s,
        "host Q");
    expect_end_rows_equal(
        sv::spike_block_columns(a, pool, so),
        sv::spike_block_columns(a, pool, so, sv::RowSet::kEnds), s,
        "pool Q");

    // Steps 2-4, with m = 2s (Caroli columns only) and m = 2s + 3
    // (injection columns too).
    const CMatrix sigma_l = nm::random_cmatrix(s, s, 94) * cplx{0.25};
    const CMatrix sigma_r = nm::random_cmatrix(s, s, 95) * cplx{0.25};
    for (const idx n_inc : {idx{0}, idx{3}}) {
      CMatrix b_top(s, 2 * s + n_inc), b_bot(s, 2 * s + n_inc);
      for (idx i = 0; i < s; ++i) {
        b_top(i, i) = cplx{1.0};
        b_bot(i, s + i) = cplx{1.0};
      }
      b_top.set_block(0, 2 * s, nm::random_cmatrix(s, n_inc, 96));
      sv::SplitSolve full(a, pool, {.partitions = p});
      sv::SplitSolve ends(a, pool, {.partitions = p}, sv::RowSet::kEnds);
      expect_end_rows_equal(full.preprocessed_q(), ends.preprocessed_q(), s,
                            "SplitSolve Q");
      const CMatrix x_full = full.solve(sigma_l, sigma_r, b_top, b_bot);
      expect_end_rows_equal(x_full, ends.solve(sigma_l, sigma_r, b_top, b_bot),
                            s, "SplitSolve x");
      // The batched pipeline's entry: Steps 2-4 on an end-row Q.
      expect_end_rows_equal(
          x_full,
          sv::SplitSolve::solve_with_q(
              sv::spike_block_columns(a, so, sv::RowSet::kEnds), a.dim(), s,
              sigma_l, sigma_r, b_top, b_bot),
          s, "solve_with_q x");
    }
  }
}

TEST(SplitSolve, SolveWithQRejectsMisshapenQ) {
  // Q is read through Matrix::block, which only asserts: a wrong shape
  // must be an exception, not an out-of-bounds read.
  const auto a = random_system(6, 2, 21);
  const idx s = 2;
  const CMatrix sigma = nm::random_cmatrix(s, s, 97) * cplx{0.1};
  const CMatrix b_top = nm::random_cmatrix(s, 3, 98);
  const CMatrix b_bot = nm::random_cmatrix(s, 3, 99);
  const auto solve = [&](const CMatrix& q) {
    return sv::SplitSolve::solve_with_q(q, a.dim(), s, sigma, sigma, b_top,
                                        b_bot);
  };
  const CMatrix q = sv::rgf_block_columns(a);
  EXPECT_EQ(solve(q).rows(), a.dim());
  EXPECT_EQ(solve(q.block(0, 0, 2 * s, 2 * s)).rows(), 2 * s);
  EXPECT_THROW(solve(q.block(0, 0, a.dim(), s)), std::invalid_argument);
  EXPECT_THROW(solve(q.block(0, 0, a.dim() - s, 2 * s)),
               std::invalid_argument);
  EXPECT_THROW(solve(q.block(0, 0, s, 2 * s)), std::invalid_argument);
  EXPECT_THROW(solve(CMatrix(a.dim() + s, 2 * s)), std::invalid_argument);
  EXPECT_THROW(solve(CMatrix()), std::invalid_argument);
}
