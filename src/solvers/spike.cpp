#include "solvers/spike.hpp"

#include <future>
#include <stdexcept>
#include <vector>

#include "numeric/blas.hpp"
#include "parallel/comm.hpp"
#include "solvers/block_lu.hpp"
#include "solvers/rgf.hpp"

namespace omenx::solvers {

using numeric::cplx;

bool spike_partitioning_valid(idx num_blocks, int partitions) {
  if (partitions < 1) return false;
  if ((partitions & (partitions - 1)) != 0) return false;  // power of two
  return static_cast<idx>(partitions) <= num_blocks;
}

std::pair<idx, idx> spike_partition_bounds(idx nb, int j, int p) {
  return {nb * j / p, nb * (j + 1) / p};
}

namespace {

/// Messages of the spatial partition transfer (per partition: first_col,
/// last_col, v, w — empty stands in for "not present" and, for first_col,
/// for a failed member).
constexpr int kTagSpikeSpatial = 31;

BlockTridiag extract_partition(const BlockTridiag& a, idx lo, idx hi) {
  BlockTridiag part(hi - lo, a.block_size());
  for (idx i = lo; i < hi; ++i) {
    part.diag(i - lo) = a.diag(i);
    if (i + 1 < hi) {
      part.upper(i - lo) = a.upper(i);
      part.lower(i - lo) = a.lower(i);
    }
  }
  return part;
}

/// Plain (non-conjugating) block-structure transpose: (A^T)^{-1} = (A^{-1})^T
/// turns RGF *column* sweeps into the *row* blocks the diagonal corrections
/// need.
BlockTridiag block_transpose(const BlockTridiag& a) {
  BlockTridiag t(a.num_blocks(), a.block_size());
  for (idx i = 0; i < a.num_blocks(); ++i) {
    t.diag(i) = a.diag(i).transpose();
    if (i + 1 < a.num_blocks()) {
      t.upper(i) = a.lower(i).transpose();
      t.lower(i) = a.upper(i).transpose();
    }
  }
  return t;
}

/// Empty-tolerant block-row slices of a partition column/spike: an empty
/// matrix stands for "absent" (first partition has no W, last has no V)
/// and contributes zeros wherever it is sliced.
CMatrix top_rows(const CMatrix& mat, idx s) {
  return mat.rows() == 0 ? CMatrix(s, mat.cols())
                         : mat.block(0, 0, s, mat.cols());
}
CMatrix bot_rows(const CMatrix& mat, idx s) {
  return mat.rows() == 0 ? CMatrix(s, mat.cols())
                         : mat.block(mat.rows() - s, 0, s, mat.cols());
}

/// `mat` itself for RowSet::kAll; its first and last block rows stacked
/// (2s rows) for RowSet::kEnds.
CMatrix keep_rows(CMatrix mat, idx s, RowSet rows) {
  if (rows == RowSet::kAll) return mat;
  CMatrix ends(2 * s, mat.cols());
  ends.set_block(0, 0, top_rows(mat, s));
  ends.set_block(s, 0, bot_rows(mat, s));
  return ends;
}

/// Whether partition j's corrected rows reach Q: every partition's do for
/// kAll, only the first and the last partition's for kEnds.
bool partition_reaches_q(int j, int p, RowSet rows) {
  return rows == RowSet::kAll || j == 0 || j == p - 1;
}

/// Copies partition j's corrected rows x_j into Q: its block range for
/// kAll; for kEnds the first partition's top block row (Q rows [0, s)) and
/// the last partition's bottom block row (Q rows [s, 2s)).
void place_partition_rows(CMatrix& q, const SpikePartition& pd, int j, int p,
                          const CMatrix& xj, idx s, RowSet rows) {
  if (rows == RowSet::kAll) {
    q.set_block(pd.lo * s, 0, xj);
    return;
  }
  if (j == 0) q.set_block(0, 0, top_rows(xj, s));
  if (j == p - 1) q.set_block(s, 0, bot_rows(xj, s));
}

/// Reduced interface system ("spike merge"): unknowns per interface i are
/// u_i = [x_i^{bot}; x_{i+1}^{top}] where x_j^{top/bot} are the first/last
/// s rows of partition j's solution.
BlockTridiag build_reduced(const std::vector<SpikePartition>& parts, idx s) {
  const int p = static_cast<int>(parts.size());
  const idx ni = p - 1;
  BlockTridiag reduced(ni, 2 * s);
  for (idx i = 0; i < ni; ++i) {
    const auto& pj = parts[static_cast<std::size_t>(i)];
    const auto& pj1 = parts[static_cast<std::size_t>(i + 1)];
    CMatrix& d = reduced.diag(i);
    d.set_block(0, 0, CMatrix::identity(s));
    d.set_block(s, s, CMatrix::identity(s));
    if (pj.v.rows() > 0) d.set_block(0, s, bot_rows(pj.v, s));
    if (pj1.w.rows() > 0) d.set_block(s, 0, top_rows(pj1.w, s));
    if (i > 0) {
      // Coupling to u_{i-1}: x_i^{bot} depends on x_{i-1}^{bot} via W_i.
      CMatrix& lo = reduced.lower(i - 1);
      if (pj.w.rows() > 0) lo.set_block(0, 0, bot_rows(pj.w, s));
    }
    if (i + 1 < ni) {
      // Coupling to u_{i+1}: x_{i+1}^{top} depends on x_{i+2}^{top} via V.
      CMatrix& up = reduced.upper(i);
      if (pj1.v.rows() > 0) up.set_block(s, s, top_rows(pj1.v, s));
    }
  }
  return reduced;
}

}  // namespace

namespace {

/// P1/P2 from an already-extracted local partition (shared with the
/// diagonal path, which needs the same local matrix for further sweeps).
SpikePartition partition_from_local(const BlockTridiag& a,
                                    const BlockTridiag& local, idx lo,
                                    idx hi, RowSet rows) {
  SpikePartition pd;
  pd.lo = lo;
  pd.hi = hi;
  const idx s = a.block_size();
  pd.first_col = keep_rows(rgf_first_block_column(local), s, rows);
  pd.last_col = keep_rows(rgf_last_block_column(local), s, rows);
  // Spikes toward the neighbours (one row per kept column row).
  if (hi < a.num_blocks()) numeric::gemm(pd.last_col, a.upper(hi - 1), pd.v);
  if (lo > 0) numeric::gemm(pd.first_col, a.lower(lo - 1), pd.w);
  return pd;
}

}  // namespace

SpikePartition spike_compute_partition(const BlockTridiag& a, int j, int p,
                                       RowSet rows) {
  const auto [lo, hi] = spike_partition_bounds(a.num_blocks(), j, p);
  return partition_from_local(a, extract_partition(a, lo, hi), lo, hi, rows);
}

CMatrix spike_reduced_solve(const std::vector<SpikePartition>& parts, idx s) {
  const int p = static_cast<int>(parts.size());
  if (p < 2)
    throw std::invalid_argument("spike_reduced_solve: needs >= 2 partitions");
  const idx ni = p - 1;
  const idx m = 2 * s;  // RHS columns: global e_first and e_last blocks
  const BlockTridiag reduced = build_reduced(parts, s);
  CMatrix rhs(ni * 2 * s, m);

  // y_j is nonzero only for the first partition (columns 0..s-1 equal its
  // local first column) and the last partition (columns s..2s-1, local last
  // column).
  auto y_top = [&](int j) {
    CMatrix y(s, m);
    if (j == 0) y.set_block(0, 0, top_rows(parts[0].first_col, s));
    if (j == p - 1)
      y.set_block(0, s,
                  top_rows(parts[static_cast<std::size_t>(j)].last_col, s));
    return y;
  };
  auto y_bot = [&](int j) {
    CMatrix y(s, m);
    if (j == 0) y.set_block(0, 0, bot_rows(parts[0].first_col, s));
    if (j == p - 1)
      y.set_block(0, s,
                  bot_rows(parts[static_cast<std::size_t>(j)].last_col, s));
    return y;
  };
  for (idx i = 0; i < ni; ++i) {
    rhs.set_block(i * 2 * s, 0, y_bot(static_cast<int>(i)));
    rhs.set_block(i * 2 * s + s, 0, y_top(static_cast<int>(i + 1)));
  }
  return BlockTridiagLU(reduced).solve(rhs);
}

CMatrix spike_partition_correction(const SpikePartition& pd, int j, int p,
                                   const CMatrix& u, idx s, idx m) {
  CMatrix xj(pd.first_col.rows(), m);
  if (j == 0) xj.set_block(0, 0, pd.first_col);
  if (j == p - 1) xj.set_block(0, s, pd.last_col);
  if (j < p - 1 && pd.v.rows() > 0) {
    // t_{j+1} lives in u_j rows [s, 2s).
    const CMatrix t_next = u.block(j * 2 * s + s, 0, s, m);
    numeric::gemm(pd.v, t_next, xj, cplx{-1.0}, cplx{1.0});
  }
  if (j > 0 && pd.w.rows() > 0) {
    // b_{j-1} lives in u_{j-1} rows [0, s).
    const CMatrix b_prev = u.block((j - 1) * 2 * s, 0, s, m);
    numeric::gemm(pd.w, b_prev, xj, cplx{-1.0}, cplx{1.0});
  }
  return xj;
}

namespace {

/// Reduced solve + corrections + assembly, shared by the host and spatial
/// paths (the pool path runs the same calls on its devices).
CMatrix assemble_columns(const BlockTridiag& a,
                         const std::vector<SpikePartition>& parts,
                         RowSet rows) {
  const int p = static_cast<int>(parts.size());
  const idx s = a.block_size();
  const idx m = 2 * s;
  CMatrix q(rows == RowSet::kAll ? a.dim() : 2 * s, m);
  // A single partition has no spikes: its correction is [first, last].
  const CMatrix u = p > 1 ? spike_reduced_solve(parts, s) : CMatrix();
  for (int j = 0; j < p; ++j) {
    if (!partition_reaches_q(j, p, rows)) continue;
    const auto& pd = parts[static_cast<std::size_t>(j)];
    place_partition_rows(q, pd, j, p,
                         spike_partition_correction(pd, j, p, u, s, m), s,
                         rows);
  }
  return q;
}

}  // namespace

CMatrix spike_block_columns(const BlockTridiag& a, const SpikeOptions& options,
                            RowSet rows) {
  const idx nb = a.num_blocks();
  const int p = options.partitions;
  if (!spike_partitioning_valid(nb, p))
    throw std::invalid_argument(
        "spike_block_columns: partitions must be a power of two and <= nb");
  if (p == 1) return keep_rows(rgf_block_columns(a), a.block_size(), rows);
  std::vector<SpikePartition> parts;
  parts.reserve(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j)
    parts.push_back(spike_compute_partition(a, j, p, rows));
  return assemble_columns(a, parts, rows);
}

CMatrix spike_block_columns(const BlockTridiag& a, parallel::DevicePool& pool,
                            const SpikeOptions& options, RowSet rows) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  const int p = options.partitions;
  if (!spike_partitioning_valid(nb, p))
    throw std::invalid_argument(
        "spike_block_columns: partitions must be a power of two and <= nb");

  if (p == 1) {
    CMatrix q;
    pool.device(0)
        .enqueue("P1-P4",
                 [&] {
                   auto buf = pool.device(0).allocate(
                       static_cast<std::uint64_t>(a.nnz(0.0)) * 16u);
                   pool.device(0).record_h2d(
                       static_cast<std::uint64_t>(a.dim()) * s * 16u);
                   q = keep_rows(rgf_block_columns(a), s, rows);
                   pool.device(0).record_d2h(
                       static_cast<std::uint64_t>(q.size()) * 16u);
                 })
        .get();
    return q;
  }

  // Phase P1..P2 per partition: local RGF sweeps on the partition's device.
  std::vector<SpikePartition> parts(static_cast<std::size_t>(p));
  std::vector<parallel::DeviceBuffer> storage(static_cast<std::size_t>(p));
  std::vector<std::future<void>> futs;
  futs.reserve(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j) {
    auto& pd = parts[static_cast<std::size_t>(j)];
    auto& buf = storage[static_cast<std::size_t>(j)];
    auto& dev = pool.device(j % pool.size());
    futs.push_back(dev.enqueue("P1-P2", [&a, &pd, &buf, &dev, s, j, p, rows] {
      const auto [lo, hi] = spike_partition_bounds(a.num_blocks(), j, p);
      // Device memory: partition blocks + two block columns.
      const idx nloc = (hi - lo) * s;
      const std::uint64_t bytes =
          static_cast<std::uint64_t>((3 * (hi - lo) - 2) * s * s) * 16u +
          static_cast<std::uint64_t>(2 * nloc * s) * 16u;
      buf = dev.allocate(bytes);
      dev.record_h2d(static_cast<std::uint64_t>((3 * (hi - lo) - 2) * s * s) *
                     16u);
      pd = spike_compute_partition(a, j, p, rows);
    }));
  }
  for (auto& f : futs) f.get();

  // The reduced solve is the recursive merge step of Fig. 6; executed on the
  // device holding the first partition.
  CMatrix u;
  pool.device(0)
      .enqueue("spike-merge", [&] { u = spike_reduced_solve(parts, s); })
      .get();

  // Final correction per partition: x_j = y_j - V_j t_{j+1} - W_j b_{j-1}.
  const idx m = 2 * s;
  CMatrix q(rows == RowSet::kAll ? a.dim() : 2 * s, m);
  std::vector<std::future<void>> post;
  post.reserve(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j) {
    if (!partition_reaches_q(j, p, rows)) continue;
    auto& pd = parts[static_cast<std::size_t>(j)];
    auto& dev = pool.device(j % pool.size());
    post.push_back(dev.enqueue("P3-P4", [&, j] {
      const CMatrix xj = spike_partition_correction(pd, j, p, u, s, m);
      dev.record_d2h(static_cast<std::uint64_t>(xj.size()) * 16u);
      place_partition_rows(q, pd, j, p, xj, s, rows);
    }));
  }
  for (auto& f : post) f.get();
  return q;
}

// --- spatial (rank-cooperative) path --------------------------------------

int spike_partition_owner(int j, int p, int width, bool ends_to_root) {
  if (width <= 1) return 0;
  if (!ends_to_root) return j % width;
  // The end partitions carry the boundary self-energies only rank 0 holds;
  // interior partitions are identical in A and T, so any rank can compute
  // them from the plain assembled system.
  if (j == 0 || j == p - 1) return 0;
  return 1 + (j - 1) % (width - 1);
}

CMatrix spike_block_columns_spatial_root(const BlockTridiag& a,
                                         parallel::Comm& comm, int partitions,
                                         bool ends_to_root) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  const int p = partitions;
  if (!spike_partitioning_valid(nb, p))
    throw std::invalid_argument(
        "spike_block_columns_spatial_root: invalid partition count");
  const int width = comm.size();
  std::vector<SpikePartition> parts(static_cast<std::size_t>(p));
  // Own partitions first — the members compute theirs concurrently.
  for (int j = 0; j < p; ++j)
    if (spike_partition_owner(j, p, width, ends_to_root) == 0)
      parts[static_cast<std::size_t>(j)] = spike_compute_partition(a, j, p);
  // Receive the members' partitions (FIFO per member, ascending j).  All
  // transfers complete before any failure surfaces so the mailboxes stay
  // aligned with the protocol.
  bool poisoned = false;
  for (int j = 0; j < p; ++j) {
    const int owner = spike_partition_owner(j, p, width, ends_to_root);
    if (owner == 0) continue;
    auto& pd = parts[static_cast<std::size_t>(j)];
    const auto [lo, hi] = spike_partition_bounds(nb, j, p);
    pd.lo = lo;
    pd.hi = hi;
    pd.first_col = comm.recv_matrix(owner, kTagSpikeSpatial);
    pd.last_col = comm.recv_matrix(owner, kTagSpikeSpatial);
    pd.v = comm.recv_matrix(owner, kTagSpikeSpatial);
    pd.w = comm.recv_matrix(owner, kTagSpikeSpatial);
    if (pd.first_col.rows() != (hi - lo) * s || pd.first_col.cols() != s)
      poisoned = true;
  }
  if (poisoned)
    throw std::runtime_error(
        "spike spatial solve: a member rank failed to compute its partitions");
  return assemble_columns(a, parts, RowSet::kAll);
}

void spike_spatial_member(const BlockTridiag& a, parallel::Comm& comm,
                          int partitions, bool ends_to_root) {
  const int me = comm.rank();
  const int width = comm.size();
  std::exception_ptr error;
  for (int j = 0; j < partitions; ++j) {
    if (spike_partition_owner(j, partitions, width, ends_to_root) != me)
      continue;
    SpikePartition pd;
    if (error == nullptr) {
      try {
        pd = spike_compute_partition(a, j, partitions);
      } catch (...) {
        error = std::current_exception();
        pd = SpikePartition{};  // poison: empty first_col
      }
    }
    comm.send_matrix(pd.first_col, 0, kTagSpikeSpatial);
    comm.send_matrix(pd.last_col, 0, kTagSpikeSpatial);
    comm.send_matrix(pd.v, 0, kTagSpikeSpatial);
    comm.send_matrix(pd.w, 0, kTagSpikeSpatial);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void spike_spatial_drain(parallel::Comm& comm, int partitions,
                         bool ends_to_root) {
  const int width = comm.size();
  for (int j = 0; j < partitions; ++j) {
    const int owner = spike_partition_owner(j, partitions, width, ends_to_root);
    if (owner == 0) continue;
    for (int k = 0; k < 4; ++k) comm.recv_matrix(owner, kTagSpikeSpatial);
  }
}

void spike_spatial_member_poison(parallel::Comm& comm, int partitions,
                                 bool ends_to_root) {
  const int me = comm.rank();
  const CMatrix empty;
  for (int j = 0; j < partitions; ++j) {
    if (spike_partition_owner(j, partitions, comm.size(), ends_to_root) != me)
      continue;
    for (int k = 0; k < 4; ++k) comm.send_matrix(empty, 0, kTagSpikeSpatial);
  }
}

// --- partitioned diagonal blocks ------------------------------------------

std::vector<CMatrix> spike_diagonal_blocks(const BlockTridiag& a,
                                           int partitions) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  const int p = partitions;
  if (!spike_partitioning_valid(nb, p))
    throw std::invalid_argument(
        "spike_diagonal_blocks: invalid partition count");
  if (p == 1) return rgf_diagonal_blocks(a);

  // Per partition: local diagonal blocks, spikes, and the local inverse's
  // first/last block *rows* (via the transpose identity) that couple a unit
  // right-hand side in this partition to the interface unknowns.
  struct DiagPartition {
    SpikePartition pd;
    std::vector<CMatrix> dloc;  ///< local (A_j^{-1})_{c'c'}
    CMatrix top_rows_t;         ///< block c' = (A_j^{-1})_{first,c'}^T
    CMatrix bot_rows_t;         ///< block c' = (A_j^{-1})_{last,c'}^T
  };
  std::vector<DiagPartition> dp(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j) {
    auto& d = dp[static_cast<std::size_t>(j)];
    const auto [lo, hi] = spike_partition_bounds(nb, j, p);
    const BlockTridiag local = extract_partition(a, lo, hi);
    d.pd = partition_from_local(a, local, lo, hi, RowSet::kAll);
    d.dloc = rgf_diagonal_blocks(local);
    const BlockTridiag local_t = block_transpose(local);
    d.top_rows_t = rgf_first_block_column(local_t);
    d.bot_rows_t = rgf_last_block_column(local_t);
  }

  // Interface unknowns for every unit block column c: u_i(c) =
  // [x_i^{bot}; x_{i+1}^{top}] with the local solve y_j = A_j^{-1} E_c
  // non-zero only inside c's own partition.
  std::vector<SpikePartition> parts;
  parts.reserve(static_cast<std::size_t>(p));
  for (auto& d : dp) parts.push_back(d.pd);
  const BlockTridiag reduced = build_reduced(parts, s);
  const idx ni = p - 1;
  CMatrix rhs(ni * 2 * s, nb * s);
  for (int j = 0; j < p; ++j) {
    const auto& d = dp[static_cast<std::size_t>(j)];
    for (idx c = d.pd.lo; c < d.pd.hi; ++c) {
      const idx cl = c - d.pd.lo;  // block index inside the partition
      // y_j^{bot} feeds interface j (rows [0, s)), y_j^{top} interface j-1
      // (rows [s, 2s)).
      if (j < p - 1)
        rhs.set_block(static_cast<idx>(j) * 2 * s, c * s,
                      d.bot_rows_t.block(cl * s, 0, s, s).transpose());
      if (j > 0)
        rhs.set_block((static_cast<idx>(j) - 1) * 2 * s + s, c * s,
                      d.top_rows_t.block(cl * s, 0, s, s).transpose());
    }
  }
  const CMatrix u = BlockTridiagLU(reduced).solve(rhs);

  // Corrections: G_cc = (A_j^{-1})_{c'c'} - V_j[c'] t_{j+1}(c) - W_j[c']
  // b_{j-1}(c).
  std::vector<CMatrix> out;
  out.reserve(static_cast<std::size_t>(nb));
  for (int j = 0; j < p; ++j) {
    const auto& d = dp[static_cast<std::size_t>(j)];
    for (idx c = d.pd.lo; c < d.pd.hi; ++c) {
      const idx cl = c - d.pd.lo;
      CMatrix g = d.dloc[static_cast<std::size_t>(cl)];
      if (j < p - 1 && d.pd.v.rows() > 0) {
        const CMatrix t_next =
            u.block(static_cast<idx>(j) * 2 * s + s, c * s, s, s);
        const CMatrix vj = d.pd.v.block(cl * s, 0, s, s);
        numeric::gemm(vj, t_next, g, cplx{-1.0}, cplx{1.0});
      }
      if (j > 0 && d.pd.w.rows() > 0) {
        const CMatrix b_prev =
            u.block((static_cast<idx>(j) - 1) * 2 * s, c * s, s, s);
        const CMatrix wj = d.pd.w.block(cl * s, 0, s, s);
        numeric::gemm(wj, b_prev, g, cplx{-1.0}, cplx{1.0});
      }
      out.push_back(std::move(g));
    }
  }
  return out;
}

}  // namespace omenx::solvers
