// Hamiltonian / overlap matrix assembly — the CP2K stand-in.
//
// Produces the inter-cell blocks H_{q,q+l}, S_{q,q+l} (l = 0..NBW) of a
// periodic transport cell in the Gaussian basis, optionally at a transverse
// momentum k for z-periodic structures (the paper notes CP2K provides no
// k-dependence, so OMEN builds H(k), S(k) from the 3-D blocks itself —
// that construction is `k_transverse` here).  A nearest-neighbour sp3
// tight-binding builder provides the sparsity baseline of Fig. 3 and the
// substrate for OMEN's legacy BCR solver.
#pragma once

#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "dft/basis.hpp"
#include "lattice/structure.hpp"
#include "numeric/matrix.hpp"

namespace omenx::dft {

using blockmat::BlockTridiag;
using numeric::CMatrix;
using numeric::cplx;

/// Inter-cell blocks of a periodic lead/device cell:
/// h[l] = H_{q,q+l} for l = 0..nbw (H_{q,q-l} = h[l]^dagger).
struct LeadBlocks {
  std::vector<CMatrix> h;
  std::vector<CMatrix> s;

  idx nbw() const { return static_cast<idx>(h.size()) - 1; }
  idx block_dim() const { return h.empty() ? 0 : h.front().rows(); }
};

struct BuildOptions {
  /// Interaction cutoff radius (nm); determines NBW = ceil(cutoff/L_cell).
  double cutoff_nm = 0.9;
  /// Transverse momentum phase k*z_period in radians (z-periodic structures).
  double k_transverse = 0.0;
  /// Overlaps below this magnitude are dropped (sparsification).
  double drop_tol = 1e-9;
  /// Diagonal regularization added to S (S_ii = 1 + ridge).  Diffuse shells
  /// of the 3SP set are nearly linearly dependent across bonded atoms; the
  /// ridge keeps the truncated Gram matrix safely positive definite, the
  /// same role as CP2K's overlap filtering thresholds.
  double overlap_ridge = 0.02;
};

/// Assemble the Gaussian-basis blocks for one transport cell of `structure`.
LeadBlocks build_lead_blocks(const lattice::Structure& structure,
                             const BasisLibrary& basis,
                             const BuildOptions& options = {});

/// Nearest-neighbour sp3 tight-binding blocks (orthogonal basis: S = I on
/// the diagonal block, 0 elsewhere).  4 orbitals per atom.
LeadBlocks build_tb_lead_blocks(const lattice::Structure& structure);

/// Device Hamiltonian/overlap assembled as a block *tridiagonal* matrix by
/// folding `fold = max(1, NBW)` physical cells into one supercell.
/// `cell_potential` holds the electrostatic potential (eV) of every physical
/// cell (size num_cells); it enters in the non-orthogonal-basis form
/// H_ij += 0.5*(V_i + V_j)*S_ij.
struct DeviceMatrices {
  BlockTridiag h;
  BlockTridiag s;
  idx fold = 1;          ///< physical cells per supercell
  idx cells = 0;         ///< physical cell count
};

DeviceMatrices assemble_device(const LeadBlocks& lead, idx num_cells,
                               const std::vector<double>& cell_potential);

/// Supercell (block) count of the device assemble_device builds from
/// `num_cells` physical cells: num_cells / max(1, NBW).  Throws
/// std::invalid_argument, as assemble_device does, unless the fold factor
/// divides num_cells and leaves at least 2 supercells.
idx device_block_count(const LeadBlocks& lead, idx num_cells);

/// Folded (block-tridiagonal) lead matrices: onsite and coupling blocks of
/// the supercell representation, used by the OBC solvers.
struct FoldedLead {
  CMatrix h00, h01;  ///< onsite / coupling Hamiltonian blocks
  CMatrix s00, s01;  ///< onsite / coupling overlap blocks
};

FoldedLead fold_lead(const LeadBlocks& lead);

/// Atom index (within the physical cell) of every orbital, for mapping
/// orbital-resolved observables back onto atoms (Fig. 10 maps).
std::vector<idx> orbital_to_atom(const lattice::Structure& structure,
                                 const BasisLibrary& basis);

}  // namespace omenx::dft
