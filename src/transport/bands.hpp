// Lead band structure E_n(k) from the folded supercell blocks.
//
// Used to locate band edges (energy windows for transport runs, the gap
// comparison of Fig. 1(b)) and as a sanity check on the Hamiltonian
// emulator.  The generalized Hermitian problem
//     H(k) u = E S(k) u,  H(k) = H00 + e^{ik} H01 + e^{-ik} H01^H
// is reduced with a Cholesky factorization S(k) = L L^H to the standard
// problem L^{-1} H L^{-H}, whose eigenvalues come from the values-only
// Hermitian tridiagonal QL solver.
#pragma once

#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/matrix.hpp"

namespace omenx::transport {

using numeric::idx;

struct BandStructure {
  std::vector<double> k;                    ///< in [0, pi], folded-cell units
  std::vector<std::vector<double>> bands;   ///< bands[ik][n], ascending in n
};

BandStructure lead_band_structure(const dft::FoldedLead& lead, idx nk = 21);

/// Lowest and highest band energies over the sampled k (spectral extent).
struct BandWindow {
  double emin, emax;
};
BandWindow band_window(const BandStructure& bs);

/// Conduction-band-minimum style edge: the smallest band energy above
/// `reference`.  Returns `reference` if no band lies above it.
double lowest_band_above(const BandStructure& bs, double reference);

}  // namespace omenx::transport
