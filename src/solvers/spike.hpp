// SPIKE-partitioned computation of the first and last block columns of
// A^{-1} on a pool of emulated accelerators (Fig. 6) — and, new with the
// strategy layer, across the ranks of a spatial communicator (Fig. 9's
// third parallelization level).
//
// The block-tridiagonal matrix is split into `partitions` contiguous
// partitions (a power of two, as in the paper).  Each partition computes the
// first/last block columns of its *local* inverse with the RGF sweeps of
// Algorithm 1 (phases P1..P4).  Partitions are then coupled through the
// spikes V_j = A_j^{-1} C_j^{up}, W_j = A_j^{-1} C_j^{down}; the resulting
// reduced interface system (block tridiagonal, 2s-sized blocks, p-1
// interfaces) is solved and the corrections are applied.  The paper merges
// partitions pairwise and recursively; the reduced-system formulation used
// here is algebraically equivalent (same spikes, same interface unknowns)
// and the per-step merge cost shows up as the reduced solve, which the
// fig07 bench measures as the spike overhead.
//
// A transmission-only request needs only the first and last block rows of
// Q (RowSet::kEnds).  SPIKE's reduced system reads only the spike tips
// (Polizzi & Sameh, Parallel Computing 32(2), 177 (2006)), so each
// partition keeps only its local columns' end block rows once the RGF
// sweeps are done: the spikes, the reduced system and the corrections then
// work on those rows, and Q shrinks to 2s x 2s.  Every kept row is bitwise
// the full path's row (a GEMM output row depends on its own operand row
// only).
//
// The per-partition arithmetic depends only on (a, j, p) — never on where
// the partition executes.  That is what makes the rank-distributed variant
// (spike_block_columns_spatial_root / spike_spatial_member) bit-identical
// to the single-rank and device-pool paths for equal partition counts.
#pragma once

#include <utility>
#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "numeric/matrix.hpp"
#include "parallel/device.hpp"

namespace omenx::parallel {
class Comm;
}

namespace omenx::solvers {

using blockmat::BlockTridiag;
using numeric::CMatrix;
using numeric::idx;

struct SpikeOptions {
  int partitions = 2;  ///< power of two, <= number of blocks
};

/// Block rows a block-column computation returns: every row (dim x cols),
/// or only the first and the last block row stacked (2s x cols; for a
/// single block the two coincide and appear twice).
enum class RowSet { kAll, kEnds };

/// Global [A^{-1}_{:,first}, A^{-1}_{:,last}] (dim x 2s, or 2s x 2s for
/// RowSet::kEnds) computed with `options.partitions` partitions on `pool`'s
/// devices (partition j runs on device j % pool.size()).
CMatrix spike_block_columns(const BlockTridiag& a, parallel::DevicePool& pool,
                            const SpikeOptions& options = {},
                            RowSet rows = RowSet::kAll);

/// Host-only variant: partitions computed inline on the calling thread (no
/// device pool, no transfer accounting).  Same arithmetic, same result.
CMatrix spike_block_columns(const BlockTridiag& a,
                            const SpikeOptions& options = {},
                            RowSet rows = RowSet::kAll);

/// Validity check used by callers: partitions must be a power of two and
/// leave at least one block per partition.
bool spike_partitioning_valid(idx num_blocks, int partitions);

// --- partition kernels (shared by the pool, host, and spatial paths) ------

/// Everything one partition contributes to the SPIKE coupling: its local
/// inverse's first/last block columns and the spikes toward its neighbours.
struct SpikePartition {
  idx lo = 0, hi = 0;  ///< block range [lo, hi)
  /// Local A_j^{-1} first block column: (hi-lo)*s x s, or its end block rows
  /// (2s x s) when computed for RowSet::kEnds.  v and w follow its rows.
  CMatrix first_col;
  CMatrix last_col;    ///< local A_j^{-1} last block column (same rows)
  CMatrix v;           ///< spike V_j = last_col * upper(hi-1)  (empty for last)
  CMatrix w;           ///< spike W_j = first_col * lower(lo-1) (empty for first)
};

/// Block range [lo, hi) of partition j of p over nb blocks (as even as
/// possible, remainder spread over the trailing partitions).
std::pair<idx, idx> spike_partition_bounds(idx nb, int j, int p);

/// Phases P1/P2 for partition j: local RGF block columns plus spikes.
/// Identical arithmetic wherever it runs — host thread, device stream, or
/// remote spatial rank.  With RowSet::kEnds the columns are cut to their
/// end block rows right after the RGF sweeps, before the spikes are formed.
SpikePartition spike_compute_partition(const BlockTridiag& a, int j, int p,
                                       RowSet rows = RowSet::kAll);

/// Reduced interface system solve ("spike merge"): interface unknowns
/// u_i = [x_i^{bot}; x_{i+1}^{top}] for the global RHS [e_first, e_last].
/// Requires p >= 2 partitions.
CMatrix spike_reduced_solve(const std::vector<SpikePartition>& parts, idx s);

/// Final correction for partition j: x_j = y_j - V_j t_{j+1} - W_j b_{j-1}
/// (one row per row of pd.first_col).  `u` is the reduced solution, `m` its
/// column count.
CMatrix spike_partition_correction(const SpikePartition& pd, int j, int p,
                                   const CMatrix& u, idx s, idx m);

// --- spatial (rank-cooperative) path --------------------------------------

/// Rank of the spatial communicator that computes partition j when a solve
/// is split across `width` ranks.  With `ends_to_root`, the first and last
/// partitions — the only ones whose blocks the boundary self-energies touch
/// — are pinned to rank 0 (the only rank holding the self-energies) and the
/// interior partitions are spread over the other ranks; otherwise plain
/// round-robin.  Pure function: every rank derives the same mapping.
int spike_partition_owner(int j, int p, int width, bool ends_to_root);

/// Root side (spatial rank 0): compute this rank's partitions, receive the
/// members' (poison-tolerant: an empty partition from a failed member turns
/// into a std::runtime_error after all transfers completed), then run the
/// reduced solve and corrections exactly like the single-rank path.
/// `ends_to_root` must match what the members use (true for solves of the
/// boundary-applied T, false for plain A).
CMatrix spike_block_columns_spatial_root(const BlockTridiag& a,
                                         parallel::Comm& comm, int partitions,
                                         bool ends_to_root);

/// Member side: compute the partitions spike_partition_owner assigns to
/// this rank on the *locally assembled* matrix and send them to rank 0.  A
/// compute failure still sends (empty) placeholders for every owed
/// partition — the protocol never leaves the root short of messages — and
/// then rethrows.
void spike_spatial_member(const BlockTridiag& a, parallel::Comm& comm,
                          int partitions, bool ends_to_root);

/// Degraded member: send empty placeholders for every owed partition
/// without computing (used when the member has no valid inputs, e.g. its
/// device assembly failed).  Keeps the root's receive count intact.
void spike_spatial_member_poison(parallel::Comm& comm, int partitions,
                                 bool ends_to_root);

/// Root side of a *skipped* solve: receive and discard the members'
/// partition messages so the next solve's transfers start from an empty
/// mailbox.  Must mirror exactly the sends of spike_spatial_member.
void spike_spatial_drain(parallel::Comm& comm, int partitions,
                         bool ends_to_root);

/// Diagonal blocks of a^{-1} through the same partitioning: local RGF
/// diagonal recursion per partition plus interface corrections from the
/// reduced system (p = 1 degenerates to plain RGF).  Serves LDOS/charge
/// assembly for the SPIKE-family backends.
std::vector<CMatrix> spike_diagonal_blocks(const BlockTridiag& a,
                                           int partitions);

}  // namespace omenx::solvers
