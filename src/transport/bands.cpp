#include "transport/bands.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "numeric/blas.hpp"
#include "numeric/cholesky.hpp"
#include "numeric/eig.hpp"
#include "numeric/flops.hpp"
#include "numeric/types.hpp"

namespace omenx::transport {

using numeric::CMatrix;
using numeric::cplx;

namespace {

// C = L^{-1} H L^{-H} for the lower-triangular Cholesky factor L of S, by
// forward substitution: first X = L^{-1} H row by row, then each row c of C
// from c L^H = x, i.e. c_j = (x_j - sum_{i<j} c_i conj(L_ji)) / L_jj.
CMatrix cholesky_reduce(const CMatrix& h, const CMatrix& l) {
  const idx n = h.rows();
  numeric::FlopCounter::add(8u * static_cast<std::uint64_t>(n * n * n));
  CMatrix x = h;
  for (idx i = 0; i < n; ++i) {
    cplx* xi = x.row_ptr(i);
    const cplx* li = l.row_ptr(i);
    for (idx j = 0; j < i; ++j) {
      const cplx lij = li[j];
      const cplx* xj = x.row_ptr(j);
      for (idx q = 0; q < n; ++q)
        xi[q] -= cplx{lij.real() * xj[q].real() - lij.imag() * xj[q].imag(),
                      lij.real() * xj[q].imag() + lij.imag() * xj[q].real()};
    }
    const double inv = 1.0 / li[i].real();
    for (idx q = 0; q < n; ++q) xi[q] *= inv;
  }
  CMatrix c(n, n);
  for (idx r = 0; r < n; ++r) {
    const cplx* xr = x.row_ptr(r);
    cplx* cr = c.row_ptr(r);
    for (idx j = 0; j < n; ++j) {
      const cplx* lj = l.row_ptr(j);
      double sr = xr[j].real(), si = xr[j].imag();
      for (idx i = 0; i < j; ++i) {  // c_i conj(L_ji)
        sr -= cr[i].real() * lj[i].real() + cr[i].imag() * lj[i].imag();
        si -= cr[i].imag() * lj[i].real() - cr[i].real() * lj[i].imag();
      }
      const double inv = 1.0 / lj[j].real();
      cr[j] = cplx{sr * inv, si * inv};
    }
  }
  return c;
}

}  // namespace

BandStructure lead_band_structure(const dft::FoldedLead& lead, idx nk) {
  if (nk < 2) throw std::invalid_argument("lead_band_structure: nk >= 2");
  BandStructure out;
  out.k.reserve(static_cast<std::size_t>(nk));
  out.bands.reserve(static_cast<std::size_t>(nk));
  for (idx ik = 0; ik < nk; ++ik) {
    const double k =
        numeric::kPi * static_cast<double>(ik) / static_cast<double>(nk - 1);
    const cplx phase = std::exp(cplx{0.0, k});
    CMatrix hk = lead.h00;
    hk.add_block(0, 0, lead.h01, phase);
    hk.add_block(0, 0, numeric::dagger(lead.h01), std::conj(phase));
    CMatrix sk = lead.s00;
    sk.add_block(0, 0, lead.s01, phase);
    sk.add_block(0, 0, numeric::dagger(lead.s01), std::conj(phase));

    const CMatrix reduced = cholesky_reduce(hk, numeric::cholesky(sk));
    out.k.push_back(k);
    out.bands.push_back(
        numeric::hermitian_eig(reduced, /*want_vectors=*/false).values);
  }
  return out;
}

BandWindow band_window(const BandStructure& bs) {
  if (bs.bands.empty() || bs.bands.front().empty())
    throw std::invalid_argument("band_window: empty band structure");
  double emin = bs.bands[0][0], emax = bs.bands[0][0];
  for (const auto& bands : bs.bands) {
    for (const double e : bands) {
      emin = std::min(emin, e);
      emax = std::max(emax, e);
    }
  }
  return {emin, emax};
}

double lowest_band_above(const BandStructure& bs, double reference) {
  double best = reference;
  bool found = false;
  for (const auto& bands : bs.bands) {
    for (const double e : bands) {
      if (e > reference && (!found || e < best)) {
        best = e;
        found = true;
      }
    }
  }
  return best;
}

}  // namespace omenx::transport
