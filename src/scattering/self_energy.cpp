#include "scattering/self_energy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

namespace omenx::scattering {

std::uint64_t SelfEnergy::boundary_key_component(
    const ScatteringOptions&) const {
  return 0;
}

namespace {

/// Ballistic no-op model: the registry's explicit spelling of "no
/// scattering", so drivers can treat model selection uniformly.
class NoneModel final : public SelfEnergy {
 public:
  const char* name() const noexcept override { return "none"; }
  unsigned capabilities() const noexcept override { return 0; }
  std::vector<ProbeSite> probes(idx, const std::vector<idx>&,
                                const ScatteringOptions&) const override {
    return {};
  }
};

/// Büttiker probes: one pseudo-terminal Sigma_p = -i eta I per attachment
/// block.  eta <= 0 contributes nothing — the exact ballistic limit.
class ButtikerProbeModel final : public SelfEnergy {
 public:
  const char* name() const noexcept override { return "buttiker_probe"; }
  unsigned capabilities() const noexcept override {
    return kAddsTerminals | kElastic | kNeedsProbeTuning;
  }

  std::vector<ProbeSite> probes(idx nb, const std::vector<idx>& occupied,
                                const ScatteringOptions& options) const override {
    const ButtikerOptions& o = options.buttiker;
    if (o.eta <= 0.0) return {};
    std::vector<ProbeSite> out;
    if (!o.blocks.empty()) {
      out.reserve(o.blocks.size());
      for (const idx b : o.blocks) out.push_back({b, o.eta});
      return out;
    }
    if (o.stride < 1)
      throw std::invalid_argument(
          "buttiker_probe: stride must be >= 1, got " +
          std::to_string(o.stride));
    idx free_seen = 0;
    for (idx b = 0; b < nb; ++b) {
      if (std::find(occupied.begin(), occupied.end(), b) != occupied.end())
        continue;
      if (free_seen % o.stride == 0) out.push_back({b, o.eta});
      ++free_seen;
    }
    return out;
  }
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, SelfEnergyFactory> factories;
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    reg->factories["none"] = [] { return std::make_unique<NoneModel>(); };
    reg->factories["buttiker_probe"] = [] {
      return std::make_unique<ButtikerProbeModel>();
    };
    return reg;
  }();
  return *r;
}

/// Same Fermi function (and +-40 kT overflow guards) as transport::fermi —
/// duplicated because this layer must stay below transport in the include
/// graph.  The tuning residual and transport::buttiker_currents must agree
/// bit for bit, so the guards must never drift apart.
double fermi_local(double e, double mu, double kt) {
  if (kt <= 0.0) return e <= mu ? 1.0 : 0.0;
  const double arg = (e - mu) / kt;
  if (arg > 40.0) return 0.0;
  if (arg < -40.0) return 1.0;
  return 1.0 / (1.0 + std::exp(arg));
}

/// Trapezoid weights, formula-identical to transport::trapezoid_weights.
std::vector<double> trapezoid_local(const std::vector<double>& grid) {
  const std::size_t n = grid.size();
  if (n == 0) return {};
  if (n == 1) return {1.0};
  for (std::size_t i = 1; i < n; ++i)
    if (!(grid[i] > grid[i - 1]))
      throw std::invalid_argument(
          "tune_probe_potentials: energies must be strictly increasing");
  std::vector<double> w(n);
  w[0] = 0.5 * (grid[1] - grid[0]);
  w[n - 1] = 0.5 * (grid[n - 1] - grid[n - 2]);
  for (std::size_t i = 1; i + 1 < n; ++i)
    w[i] = 0.5 * (grid[i + 1] - grid[i - 1]);
  return w;
}

/// Terminal currents with transport::buttiker_currents' exact antisymmetric
/// pair accumulation, so the converged residual here IS the leak the bench
/// gate measures.
std::vector<double> currents_local(const std::vector<double>& w,
                                   const std::vector<double>& energies,
                                   const std::vector<std::vector<double>>& t,
                                   const std::vector<double>& mu, double kt) {
  const std::size_t nc = mu.size();
  std::vector<double> out(nc, 0.0);
  for (std::size_t i = 0; i < energies.size(); ++i) {
    const std::vector<double>& ti = t[i];
    for (std::size_t p = 0; p < nc; ++p) {
      const double fp = fermi_local(energies[i], mu[p], kt);
      for (std::size_t q = p + 1; q < nc; ++q) {
        const double fq = fermi_local(energies[i], mu[q], kt);
        const double c = w[i] * (ti[p * nc + q] * fp - ti[q * nc + p] * fq);
        out[p] += c;
        out[q] -= c;
      }
    }
  }
  return out;
}

/// Relative probe-current leak: max over probes of |I_p| / max(1, max|I|).
double probe_residual(const std::vector<double>& currents,
                      const std::vector<bool>& is_probe) {
  double scale = 0.0;
  for (const double c : currents) scale = std::max(scale, std::abs(c));
  double worst = 0.0;
  for (std::size_t p = 0; p < currents.size(); ++p)
    if (is_probe[p]) worst = std::max(worst, std::abs(currents[p]));
  return worst / std::max(1.0, scale);
}

/// In-place Gauss elimination with partial pivoting on a dense row-major
/// n x n system; rhs overwritten with the solution.  Probe subsystems are
/// tiny (a handful of probes), so a dense direct solve is the right tool.
void gauss_solve(std::vector<double>& a, std::vector<double>& rhs,
                 std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a[r * n + col]) > std::abs(a[piv * n + col])) piv = r;
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(a[col * n + c], a[piv * n + c]);
      std::swap(rhs[col], rhs[piv]);
    }
    const double d = a[col * n + col];
    if (std::abs(d) < 1e-300) {
      // Decoupled/saturated probe: leave its potential unchanged.
      for (std::size_t c = 0; c < n; ++c) a[col * n + c] = c == col ? 1.0 : 0.0;
      rhs[col] = 0.0;
      continue;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / d;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      rhs[r] -= f * rhs[col];
    }
  }
  for (std::size_t col = n; col-- > 0;) {
    double s = rhs[col];
    for (std::size_t c = col + 1; c < n; ++c) s -= a[col * n + c] * rhs[c];
    rhs[col] = s / a[col * n + col];
  }
}

}  // namespace

void register_scattering_model(const std::string& name,
                               SelfEnergyFactory factory) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.factories[name] = std::move(factory);
}

std::vector<std::string> registered_scattering_models() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;
}

std::unique_ptr<SelfEnergy> make_scattering_model(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.factories.find(name);
  if (it == r.factories.end())
    throw std::invalid_argument("make_scattering_model: unknown model '" +
                                name + "'");
  return it->second();
}

const char* scattering_algorithm_name(ScatteringAlgorithm algo) noexcept {
  switch (algo) {
    case ScatteringAlgorithm::kNone:
      return "none";
    case ScatteringAlgorithm::kButtikerProbe:
      return "buttiker_probe";
  }
  return "none";
}

std::unique_ptr<SelfEnergy> make_scattering_model(ScatteringAlgorithm algo) {
  return make_scattering_model(scattering_algorithm_name(algo));
}

unsigned scattering_algorithm_capabilities(ScatteringAlgorithm algo) {
  return make_scattering_model(algo)->capabilities();
}

std::vector<ProbeSite> assemble_probes(const Spec& spec, idx nb,
                                       const std::vector<idx>& occupied) {
  if (spec.algorithm == ScatteringAlgorithm::kNone) return {};
  return make_scattering_model(spec.algorithm)
      ->probes(nb, occupied, spec.options);
}

bool attaches_probes(const Spec& spec, idx nb) {
  if (spec.algorithm == ScatteringAlgorithm::kNone) return false;
  return !assemble_probes(spec, nb, {0, nb - 1}).empty();
}

std::uint64_t boundary_key_component(const Spec& spec) {
  if (spec.algorithm == ScatteringAlgorithm::kNone) return 0;
  const auto model = make_scattering_model(spec.algorithm);
  if ((model->capabilities() & kModifiesBoundaries) == 0) return 0;
  return model->boundary_key_component(spec.options);
}

ProbeTuneResult tune_probe_potentials(const std::vector<double>& energies,
                                      const std::vector<std::vector<double>>& t_matrix,
                                      std::vector<double> mu,
                                      const std::vector<bool>& is_probe,
                                      double kt,
                                      const ProbeTuneOptions& options) {
  const std::size_t nc = mu.size();
  if (kt <= 0.0)
    throw std::invalid_argument(
        "tune_probe_potentials: kt must be positive (the Fermi step has no "
        "usable derivative at kT = 0)");
  if (is_probe.size() != nc)
    throw std::invalid_argument("tune_probe_potentials: is_probe size");
  if (t_matrix.size() != energies.size() || energies.size() < 2)
    throw std::invalid_argument("tune_probe_potentials: bad table");
  for (const std::vector<double>& t : t_matrix)
    if (t.size() != nc * nc)
      throw std::invalid_argument("tune_probe_potentials: t_matrix row size");

  std::vector<std::size_t> probes;
  for (std::size_t p = 0; p < nc; ++p)
    if (is_probe[p]) probes.push_back(p);

  ProbeTuneResult out;
  if (probes.empty()) {
    out.mu = std::move(mu);
    out.converged = true;
    return out;
  }

  const std::vector<double> w = trapezoid_local(energies);
  const std::size_t np = probes.size();
  std::vector<double> currents = currents_local(w, energies, t_matrix, mu, kt);
  double res = probe_residual(currents, is_probe);

  for (int it = 0; it < options.max_iter && res > options.tol; ++it) {
    // Analytic Jacobian of the probe currents in the probe potentials.
    std::vector<double> jac(np * np, 0.0);
    std::vector<double> rhs(np);
    for (std::size_t a = 0; a < np; ++a)
      rhs[a] = -currents[probes[a]];
    for (std::size_t i = 0; i < energies.size(); ++i) {
      const std::vector<double>& t = t_matrix[i];
      for (std::size_t a = 0; a < np; ++a) {
        const std::size_t p = probes[a];
        const double fp = fermi_local(energies[i], mu[p], kt);
        const double dfp = fp * (1.0 - fp) / kt;
        double row_sum = 0.0;
        for (std::size_t q = 0; q < nc; ++q)
          if (q != p) row_sum += t[p * nc + q];
        jac[a * np + a] += w[i] * row_sum * dfp;
        for (std::size_t b = 0; b < np; ++b) {
          if (b == a) continue;
          const std::size_t q = probes[b];
          const double fq = fermi_local(energies[i], mu[q], kt);
          jac[a * np + b] -= w[i] * t[q * nc + p] * fq * (1.0 - fq) / kt;
        }
      }
    }
    gauss_solve(jac, rhs, np);

    // Secant-style fallback: halve the Newton step until the residual
    // drops (the Jacobian's diagonal dominance makes the full step almost
    // always the accepted one).
    double damp = 1.0;
    std::vector<double> trial = mu;
    std::vector<double> trial_currents;
    double trial_res = res;
    for (int half = 0; half < 8; ++half) {
      for (std::size_t a = 0; a < np; ++a)
        trial[probes[a]] = mu[probes[a]] + damp * rhs[a];
      trial_currents = currents_local(w, energies, t_matrix, trial, kt);
      trial_res = probe_residual(trial_currents, is_probe);
      if (trial_res < res) break;
      damp *= 0.5;
    }
    const double prev = res;
    mu = trial;
    currents = std::move(trial_currents);
    res = trial_res;
    out.iterations = it + 1;
    if (res >= prev && damp < 1.0 / 64.0) break;  // stalled
  }

  out.mu = std::move(mu);
  out.max_residual = res;
  out.converged = res <= options.tol;
  return out;
}

std::vector<double> eliminate_probes(const std::vector<double>& t_matrix,
                                     const std::vector<bool>& is_probe) {
  const std::size_t nc = is_probe.size();
  if (t_matrix.size() != nc * nc)
    throw std::invalid_argument("eliminate_probes: t_matrix size");
  std::vector<std::size_t> kept, probes;
  for (std::size_t p = 0; p < nc; ++p)
    (is_probe[p] ? probes : kept).push_back(p);
  const std::size_t nk = kept.size();
  const std::size_t np = probes.size();

  std::vector<double> out(nk * nk, 0.0);
  for (std::size_t a = 0; a < nk; ++a)
    for (std::size_t b = 0; b < nk; ++b)
      if (a != b) out[a * nk + b] = t_matrix[kept[a] * nc + kept[b]];
  if (np == 0) return out;

  // W_pq = delta_pq sum_r T_pr - T_pq over the probe subset; solving
  // W X = T_Pb per kept column b gives the redistribution term
  // T_aP W^{-1} T_Pb in one pass.
  std::vector<double> w_base(np * np, 0.0);
  for (std::size_t a = 0; a < np; ++a) {
    const std::size_t p = probes[a];
    double row_sum = 0.0;
    for (std::size_t r = 0; r < nc; ++r)
      if (r != p) row_sum += t_matrix[p * nc + r];
    w_base[a * np + a] = row_sum;
    for (std::size_t b = 0; b < np; ++b) {
      if (b == a) continue;
      w_base[a * np + b] -= t_matrix[p * nc + probes[b]];
    }
  }
  for (std::size_t bcol = 0; bcol < nk; ++bcol) {
    std::vector<double> w = w_base;
    std::vector<double> x(np);
    for (std::size_t a = 0; a < np; ++a)
      x[a] = t_matrix[probes[a] * nc + kept[bcol]];
    gauss_solve(w, x, np);
    for (std::size_t a = 0; a < nk; ++a) {
      if (a == bcol) continue;
      double add = 0.0;
      for (std::size_t p = 0; p < np; ++p)
        add += t_matrix[kept[a] * nc + probes[p]] * x[p];
      out[a * nk + bcol] += add;
    }
  }
  return out;
}

}  // namespace omenx::scattering
