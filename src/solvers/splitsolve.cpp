#include "solvers/splitsolve.hpp"

#include <stdexcept>

#include "numeric/blas.hpp"
#include "numeric/lu.hpp"
#include "parallel/comm.hpp"
#include "parallel/tracer.hpp"

namespace omenx::solvers {

using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

SplitSolve::SplitSolve(const BlockTridiag& a, parallel::DevicePool* pool,
                       SplitSolveOptions options, RowSet rows)
    : dim_(a.dim()), s_(a.block_size()) {
  if (!spike_partitioning_valid(a.num_blocks(), options.partitions))
    throw std::invalid_argument("SplitSolve: invalid partition count");
  SpikeOptions so;
  so.partitions = options.partitions;
  // Step 1 runs asynchronously; the caller computes Sigma/Inj meanwhile.
  // Q does not depend on the boundary self-energies, so the spatial members
  // can compute their partitions of A without ever seeing Sigma — all three
  // execution routes share the per-partition arithmetic and are
  // bit-identical for equal partition counts.
  parallel::Comm* spatial =
      options.spatial != nullptr && options.spatial->size() > 1
          ? options.spatial
          : nullptr;
  q_future_ = std::async(std::launch::async, [&a, pool, so, spatial, rows] {
                if (spatial != nullptr)
                  return spike_block_columns_spatial_root(
                      a, *spatial, so.partitions, /*ends_to_root=*/false);
                if (pool != nullptr)
                  return spike_block_columns(a, *pool, so, rows);
                return spike_block_columns(a, so, rows);
              }).share();
}

const CMatrix& SplitSolve::preprocessed_q() {
  if (!q_ready_) {
    q_ = q_future_.get();
    q_ready_ = true;
  }
  return q_;
}

CMatrix SplitSolve::solve(const CMatrix& sigma_l, const CMatrix& sigma_r,
                          const CMatrix& b_top, const CMatrix& b_bottom) {
  const CMatrix& q = preprocessed_q();
  return solve_with_q(q, dim_, s_, sigma_l, sigma_r, b_top, b_bottom);
}

CMatrix SplitSolve::solve_with_q(const CMatrix& q, idx dim, idx s,
                                 const CMatrix& sigma_l, const CMatrix& sigma_r,
                                 const CMatrix& b_top,
                                 const CMatrix& b_bottom) {
  if (sigma_l.rows() != s || sigma_r.rows() != s)
    throw std::invalid_argument("SplitSolve::solve: sigma size mismatch");
  if (b_top.rows() != s || b_bottom.rows() != s ||
      b_top.cols() != b_bottom.cols())
    throw std::invalid_argument("SplitSolve::solve: RHS size mismatch");
  if (q.cols() != 2 * s || (q.rows() != dim && q.rows() != 2 * s))
    throw std::invalid_argument(
        "SplitSolve::solve: Q must be dim x 2s or 2s x 2s");
  const idx m = b_top.cols();
  const idx bot = q.rows() - s;  // first row of Q's (and x's) last block row
  parallel::TraceScope trace("postprocess", /*device_id=*/-1);

  // b' = stacked non-zero rows of b.
  CMatrix bprime(2 * s, m);
  bprime.set_block(0, 0, b_top);
  bprime.set_block(s, 0, b_bottom);

  // Step 2: y = Q b'.
  const CMatrix y = numeric::matmul(q, bprime);

  // Step 3: R = 1 - C Q (2s x 2s) and z = R^{-1} C y.
  // C has Sigma_L in its top-left and Sigma_R in its bottom-right corner, so
  // C M = [Sigma_L * M_toprows; Sigma_R * M_botrows] for any M.
  const CMatrix q_top = q.block(0, 0, s, 2 * s);
  const CMatrix q_bot = q.block(bot, 0, s, 2 * s);
  CMatrix cq(2 * s, 2 * s);
  cq.set_block(0, 0, numeric::matmul(sigma_l, q_top));
  cq.set_block(s, 0, numeric::matmul(sigma_r, q_bot));
  CMatrix r = CMatrix::identity(2 * s);
  r -= cq;

  CMatrix cy(2 * s, m);
  cy.set_block(0, 0, numeric::matmul(sigma_l, y.block(0, 0, s, m)));
  cy.set_block(s, 0, numeric::matmul(sigma_r, y.block(bot, 0, s, m)));
  const CMatrix z = numeric::solve(r, cy);

  // Step 4: x = Q (b' + z).
  CMatrix bz = bprime;
  bz += z;
  return numeric::matmul(q, bz);
}

BlockTridiag apply_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                            const CMatrix& sigma_r) {
  BlockTridiag t;
  apply_boundary_into(t, a, sigma_l, sigma_r);
  return t;
}

void apply_boundary_into(BlockTridiag& t, const BlockTridiag& a,
                         const CMatrix& sigma_l, const CMatrix& sigma_r) {
  t = a;
  t.diag(0).add_block(0, 0, sigma_l, cplx{-1.0});
  t.diag(t.num_blocks() - 1).add_block(0, 0, sigma_r, cplx{-1.0});
}

CMatrix expand_boundary_rhs(idx dim, const CMatrix& b_top,
                            const CMatrix& b_bottom) {
  CMatrix b;
  expand_boundary_rhs_into(b, dim, b_top, b_bottom);
  return b;
}

void expand_boundary_rhs_into(CMatrix& b, idx dim, const CMatrix& b_top,
                              const CMatrix& b_bottom) {
  b.resize(dim, b_top.cols());
  b.set_block(0, 0, b_top);
  b.set_block(dim - b_bottom.rows(), 0, b_bottom);
}

}  // namespace omenx::solvers
