// Repository benchmark driver.
//
//   omenx_bench <workload> <seed> <seconds> <trace 0|1> <trace_file>
//
// Runs one named workload as a closed loop (one caller, each library call
// issued after the previous one returns), checks the program's outputs, and
// prints human-readable lines followed by one JSON line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: value}}
// carrying every metric this workload produced.  perfbench/run.py builds
// this binary, attaches units and selects the end-to-end (trace 0) or
// per-layer (trace 1) metric set; perfbench/registry.py documents each name.
//
// The seed jitters the energy-grid offsets, the gate/Vgs values and the
// replay sample within fixed ranges; sizes never depend on it.  The run
// length sets how many calls are timed, through a nominal time per call,
// so a seed always does the same work and the same checks.  The
// end-to-end rate and set-up time are process CPU time scaled to a
// reference host speed measured by host_probe between the timed calls.
//
// With trace 1 the driver records spans (name, start, end, parent, request
// id) around every library call it makes, keeps them in memory, and writes
// them to <trace_file> at exit.  A traced run also times the set-up pieces
// (lead blocks, band window), measures numeric roofline context, and
// replays a seeded sample of the workload's (k, E) points through the OBC
// strategy, the solver device phase and transport::solve_energy_point so a
// sweep can be split by layer.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "numeric/eig.hpp"
#include "numeric/flops.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "obc/boundary_cache.hpp"
#include "obc/strategy.hpp"
#include "omen/simulator.hpp"
#include "parallel/device.hpp"
#include "poisson/poisson1d.hpp"
#include "poisson/scf.hpp"
#include "scattering/self_energy.hpp"
#include "solvers/solver.hpp"
#include "transport/bands.hpp"
#include "transport/transmission.hpp"

using namespace omenx;
using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

namespace {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU time of the whole process, every thread included.  The end-to-end
/// rates and set-up time are per CPU-second: a closed-loop call's CPU time
/// is the work it did, and unlike its wall time it does not grow when
/// other tenants of a shared host take the cores.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU time since construction.
struct Stopwatch {
  double wall0 = now_s();
  double cpu0 = cpu_s();
  double wall() const { return now_s() - wall0; }
  double cpu() const { return cpu_s() - cpu0; }
};

/// Adds the wall and CPU time of its scope to two totals, on every path out.
struct Accumulate {
  double& wall;
  double& cpu;
  Stopwatch sw;
  ~Accumulate() {
    wall += sw.wall();
    cpu += sw.cpu();
  }
};

// ------------------------------------------------------------ host probe --

/// Speed of the host right now: a fixed naive complex matrix product of
/// the benchmark's own (no library code), run once on every hardware
/// thread, in GFLOP per CPU-second.  On a shared host even CPU time drifts
/// by tens of percent within minutes as other tenants load the machine;
/// this probe drifts with it, so the end-to-end times are scaled by the
/// run's median probe rate against kReferenceProbeGflops.
constexpr double kReferenceProbeGflops = 4.0;

double host_probe() {
  constexpr int n = 32, reps = 120;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> sink(threads, 0.0);
  const double c0 = cpu_s();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&sink, t] {
      std::vector<cplx> a(n * n), b(n * n), c(n * n);
      for (int i = 0; i < n * n; ++i) {
        a[i] = cplx(1.0 + 1e-3 * i, 0.5 - 1e-4 * i);
        b[i] = cplx(0.25 + 1e-4 * (i + t), -1e-3 * i);
      }
      for (int r = 0; r < reps; ++r) {
        for (int i = 0; i < n; ++i)
          for (int j = 0; j < n; ++j) {
            cplx acc = 0.0;
            for (int k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
            c[i * n + j] = acc;
          }
        a.swap(c);
        a[0] *= 1e-3;
      }
      sink[t] = std::abs(a[0]);
    });
  for (auto& th : pool) th.join();
  const double dt = cpu_s() - c0;
  volatile double keep = sink[0];
  (void)keep;
  return 8.0 * n * n * n * reps * threads / dt * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Rate samples summarized as count, median and the low tail (the slow
/// calls): the 10th percentile once at least ten samples lie below it.
void print_rates(const char* what, const std::vector<double>& rates) {
  std::printf("%s: n = %zu, median %.6g", what, rates.size(), median(rates));
  if (rates.size() >= 100) std::printf(", p10 %.6g", quantile(rates, 0.1));
  std::printf(", min %.6g, max %.6g\n",
              rates.empty() ? 0.0 : *std::min_element(rates.begin(), rates.end()),
              rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end()));
}

// ------------------------------------------------------------- tracing --

struct Span {
  std::string name;  ///< "<layer>.<call>"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int request = -1;
};

/// In-memory span recorder.  Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  int begin(const std::string& name, int request = -1) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (request < 0 && parent >= 0)
      request = spans_[static_cast<std::size_t>(parent)].request;
    spans_.push_back({name, now_s(), 0.0, parent, request});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  /// Self time (duration minus the children's durations) summed per layer
  /// over the subtree rooted at `root`.  Spans are sequential (closed
  /// loop), so children never overlap and the per-layer totals add up to
  /// the root's duration.
  std::map<std::string, double> layer_self(int root) const {
    std::map<std::string, double> out;
    if (root < 0) return out;
    std::vector<double> self(spans_.size(), 0.0);
    std::vector<bool> inside(spans_.size(), false);
    for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
         ++i) {
      const Span& s = spans_[i];
      inside[i] = static_cast<int>(i) == root ||
                  (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
      if (!inside[i]) continue;
      self[i] += s.end - s.start;
      if (static_cast<int>(i) != root)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (inside[i]) {
        const std::string& n = spans_[i].name;
        out[n.substr(0, n.find('.'))] += self[i];
      }
    return out;
  }

  std::size_t size() const noexcept { return spans_.size(); }

  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream f(path);
    if (!f) return;
    f << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"spans\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                    "\"end\": %.9f, \"parent\": %d, \"request\": %d}%s\n",
                    i, s.name.c_str(), s.start, s.end, s.parent, s.request,
                    i + 1 < spans_.size() ? "," : "");
      f << buf;
    }
    f << "]}\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int request = -1)
      : t_(t), id_(t.begin(name, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------- checking --

/// kFailed: an accuracy or convergence check of the program (wave-function
/// vs Caroli T, staircase, bond-current spread, SCF convergence, probe
/// leak) — counted in `failed`, reported as failed_frac.  kInvalid: the
/// output cannot be used at all (non-finite values, a traced replica that
/// disagrees with the untraced call) — also clears `correct`.
enum class Severity { kFailed, kInvalid };

/// Operation tally.  Every checked operation counts as attempted; a failed
/// check counts as failed.
struct Checks {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  int printed = 0;

  bool op(bool ok, const std::string& what,
          Severity severity = Severity::kFailed) {
    ++attempted;
    if (ok) return true;
    ++failed;
    if (severity == Severity::kInvalid) correct = false;
    if (printed++ < 12) std::printf("check failed: %s\n", what.c_str());
    return false;
  }
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  std::mt19937_64 rng;
  Tracer tracer{false};
  Checks checks;
  std::map<std::string, double> m;

  double uniform(double lo, double hi) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }
  bool traced() const { return tracer.enabled(); }
  std::vector<double> host;  ///< host_probe samples, GFLOP per CPU-second
  /// `samples` probes in a row: one takes ~10 ms and scatters by +-15 %,
  /// so a run needs some tens of them for a steady median.
  void probe(int samples = 1) {
    for (int i = 0; i < samples; ++i) host.push_back(host_probe());
  }
  /// Timed calls in a run: the run length over the nominal time of one
  /// call on a 4-vCPU host, at least `min_calls`.  The count never reads a
  /// clock, so a seed always does the same work and the same checks.
  int calls(double nominal_call_s, int min_calls) const {
    return std::max(min_calls,
                    static_cast<int>(std::lround(seconds / nominal_call_s)));
  }
};

bool is_finite(double x) { return std::isfinite(x); }

// ------------------------------------------------------- layer counters --

/// Engine statistics summed over the sweeps of the timed calls.
struct EngineAcc {
  double sweeps = 0, tasks = 0, greens = 0, stolen = 0, batches = 0;
  double batched_tasks = 0, prefetch_hits = 0, prefetch_misses = 0, wall = 0;
  std::vector<double> busy;      ///< per rank, summed over sweeps
  std::vector<double> overhead;  ///< per sweep: wall - max rank busy

  /// The single-rank flat loop reports the busy time summed over its
  /// thread-pool workers (one per hardware thread); dividing by the worker
  /// count puts it on the same per-lane footing as a rank's busy time.
  void add(const omen::EngineStats& s) {
    const double lanes =
        s.ranks == 1 ? std::max(1u, std::thread::hardware_concurrency()) : 1.0;
    sweeps += 1;
    tasks += static_cast<double>(s.tasks_total);
    greens += static_cast<double>(s.tasks_greens);
    stolen += static_cast<double>(s.tasks_stolen);
    batches += static_cast<double>(s.batches_issued);
    batched_tasks += s.mean_batch_size * static_cast<double>(s.batches_issued);
    prefetch_hits += static_cast<double>(s.prefetch_hits);
    prefetch_misses += static_cast<double>(s.prefetch_misses);
    wall += s.wall_seconds;
    if (busy.size() < s.busy_seconds_per_rank.size())
      busy.resize(s.busy_seconds_per_rank.size(), 0.0);
    double mx = 0.0;
    for (std::size_t r = 0; r < s.busy_seconds_per_rank.size(); ++r) {
      busy[r] += s.busy_seconds_per_rank[r] / lanes;
      mx = std::max(mx, s.busy_seconds_per_rank[r] / lanes);
    }
    overhead.push_back(s.wall_seconds - mx);
  }

  void report(std::map<std::string, double>& m) const {
    double sum = 0.0, mx = 0.0;
    for (const double b : busy) {
      sum += b;
      mx = std::max(mx, b);
    }
    const double ranks = static_cast<double>(busy.size());
    m["omen.tasks"] = tasks;
    m["omen.tasks_stolen"] = stolen;
    m["omen.sweeps"] = sweeps;
    m["omen.busy_frac"] = wall > 0 && ranks > 0 ? sum / (ranks * wall) : 0.0;
    m["omen.load_balance"] = mx > 0 ? sum / ranks / mx : 0.0;
    m["omen.sweep_overhead_p50_s"] = median(overhead);
    m["transport.batches"] = batches;
    m["transport.mean_batch_size"] = batches > 0 ? batched_tasks / batches : 0;
    const double pf = prefetch_hits + prefetch_misses;
    m["transport.prefetch_hit_ratio"] = pf > 0 ? prefetch_hits / pf : 0.0;
    m["charge.gf_tasks_frac"] = tasks > 0 ? greens / tasks : 0.0;
  }
};

/// Process counters (flops, heap allocations, OBC solves) and the
/// simulator's boundary-cache counters over the timed calls.
struct Window {
  struct Mark {
    std::uint64_t flops, allocs, obc, hits, misses;
  };
  double flops = 0, allocs = 0, obc_solves = 0, hits = 0, misses = 0;
  double points = 0;

  static Mark mark(const omen::Simulator& sim) {
    const auto c = sim.boundary_cache_stats();
    return {numeric::FlopCounter::total(), numeric::matrix_heap_allocations(),
            obc::boundary_solve_count(), c.hits, c.misses};
  }
  void add(const Mark& a, const Mark& b, double solved_points) {
    flops += static_cast<double>(b.flops - a.flops);
    allocs += static_cast<double>(b.allocs - a.allocs);
    obc_solves += static_cast<double>(b.obc - a.obc);
    hits += static_cast<double>(b.hits - a.hits);
    misses += static_cast<double>(b.misses - a.misses);
    points += solved_points;
  }
  void report(std::map<std::string, double>& m) const {
    m["obc.solves"] = obc_solves;
    m["obc.cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    m["numeric.flops_per_point"] = points > 0 ? flops / points : 0.0;
    m["numeric.heap_allocs_per_point"] = points > 0 ? allocs / points : 0.0;
  }
};

// -------------------------------------------------------------- roofline --

CMatrix random_matrix(idx n, std::mt19937_64& rng, bool hermitian = false) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  CMatrix a(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) a(i, j) = cplx{u(rng), u(rng)};
  if (hermitian)
    for (idx i = 0; i < n; ++i) {
      a(i, i) = cplx{a(i, i).real(), 0.0};
      for (idx j = i + 1; j < n; ++j) a(j, i) = std::conj(a(i, j));
    }
  return a;
}

/// Median rate (GFLOP/s, by the library's FlopCounter) of repeated calls of
/// `fn`, for at least `min_seconds` and three calls.
template <typename Fn>
double rate_gflops(Fn&& fn, double analytic_flops, double min_seconds) {
  fn();  // warm the packing buffers and workspace
  std::vector<double> rates;
  const double stop = now_s() + min_seconds;
  while (rates.size() < 3 || now_s() < stop) {
    const numeric::FlopScope scope;
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    const double f = scope.elapsed() > 0 ? static_cast<double>(scope.elapsed())
                                         : analytic_flops;
    rates.push_back(f / dt / 1e9);
  }
  return median(rates);
}

/// Numeric roofline context: GEMM and LU rates at the wire's supercell
/// shape (120) and twice it (240), hermitian_eig at the workload's folded
/// lead size, and sustainable memory bandwidth from a triad over a working
/// set of at least 4x the last-level cache.  Runs before the workload so
/// its arrays never add to the workload's resident set.
void roofline(Run& run, idx folded_size) {
  Scope span(run.tracer, "numeric.roofline");
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t n =
      static_cast<std::size_t>(4 * llc) / (3 * sizeof(double)) + 1;
  {
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<double> gbps;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
          const std::size_t lo = n * t / threads, hi = n * (t + 1) / threads;
          for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
        });
      for (auto& th : pool) th.join();
      gbps.push_back(3.0 * sizeof(double) * static_cast<double>(n) /
                     (now_s() - t0) / 1e9);
    }
    if (!is_finite(a[n / 2]) || a[n / 2] != 7.0)
      run.checks.op(false, "triad result", Severity::kInvalid);
    run.m["numeric.mem_gbps"] = median(gbps);
    run.m["numeric.mem_working_set_mb"] =
        3.0 * sizeof(double) * static_cast<double>(n) / 1e6;
    run.m["numeric.llc_mb"] = static_cast<double>(llc) / 1e6;
  }
  std::mt19937_64 rng(run.seed);
  for (const idx s : {idx{120}, idx{240}}) {
    const CMatrix a = random_matrix(s, rng), b = random_matrix(s, rng);
    CMatrix c(s, s);
    const double ds = static_cast<double>(s);
    const double gemm = rate_gflops([&] { numeric::gemm(a, b, c); },
                                    8.0 * ds * ds * ds, 0.3);
    CMatrix d = random_matrix(s, rng);
    for (idx i = 0; i < s; ++i) d(i, i) += cplx{ds, 0.0};
    const double lu = rate_gflops([&] { const numeric::LUFactor f(d); },
                                  8.0 / 3.0 * ds * ds * ds, 0.3);
    const std::string suffix = s == 120 ? "" : "_240";
    run.m["numeric.gemm_gflops" + suffix] = gemm;
    run.m["numeric.lu_gflops" + suffix] = lu;
  }
  {
    const CMatrix h = random_matrix(folded_size, rng, true);
    std::vector<double> t;
    const double stop = now_s() + 0.3;
    while (t.empty() || now_s() < stop) {
      const double t0 = now_s();
      const auto r = numeric::hermitian_eig(h);
      t.push_back(now_s() - t0);
      if (r.values.size() != static_cast<std::size_t>(folded_size))
        run.checks.op(false, "hermitian_eig size", Severity::kInvalid);
    }
    run.m["numeric.hermitian_eig_s"] = median(t);
    run.m["numeric.hermitian_eig_n"] = static_cast<double>(folded_size);
  }
}

/// Set-up pieces of Simulator construction, timed separately: the lead
/// blocks + fold over every k, and the constructor's band-window call.
void time_setup_pieces(Run& run, const omen::SimulationConfig& cfg) {
  const dft::BasisLibrary basis(cfg.functional);
  const bool periodic = cfg.structure.periodicity == lattice::Periodicity::kZ;
  const idx nk = periodic ? std::max<idx>(1, cfg.num_k) : 1;
  std::vector<dft::FoldedLead> folded;
  const double t0 = now_s();
  {
    Scope span(run.tracer, "dft.build_lead_blocks");
    for (idx ik = 0; ik < nk; ++ik) {
      dft::BuildOptions opts = cfg.build;
      opts.k_transverse =
          nk == 1 ? 0.0
                  : numeric::kPi * static_cast<double>(ik) /
                        static_cast<double>(nk - 1);
      folded.push_back(
          dft::fold_lead(dft::build_lead_blocks(cfg.structure, basis, opts)));
    }
  }
  run.m["dft.build_s"] = now_s() - t0;
  const double t1 = now_s();
  {
    Scope span(run.tracer, "transport.lead_band_structure");
    const auto bs = transport::lead_band_structure(folded.front());
    run.checks.op(!bs.bands.empty() && is_finite(bs.bands.front().front()),
                  "lead band structure finite", Severity::kInvalid);
  }
  run.m["transport.band_structure_s"] = now_s() - t1;
}

// ---------------------------------------------------------------- replay --

struct ReplayPoint {
  idx k = 0;
  double energy = 0.0;
};

/// Replays (k, E) points one call at a time through the layers a sweep
/// runs: obc::Strategy::boundary, the solver device phase (A = E*S - H,
/// prepare, boundary or attached solve), and transport::solve_energy_point
/// with the point's boundary pre-inserted in a local cache (so the pipeline
/// call measures the transport layer over a warm boundary).
void replay(Run& run, omen::Simulator& sim,
            const std::vector<double>& potential,
            const std::vector<ReplayPoint>& points,
            parallel::DevicePool& pool) {
  const omen::SimulationConfig& cfg = sim.config();
  transport::EnergyPointOptions opts = cfg.point;
  obc::BoundaryCache cache(points.size() * 2 + 16);
  opts.boundary_cache = &cache;
  const auto strategy = obc::make_obc_strategy(opts.obc);
  solvers::SolverContext binding;
  binding.pool = &pool;
  binding.partitions = opts.partitions;
  const auto& probes = sim.probe_sites();
  std::map<idx, dft::DeviceMatrices> devices;
  std::unique_ptr<solvers::Solver> solver;
  blockmat::BlockTridiag a;

  std::vector<double> t_obc, t_solve, t_point;
  double solve_flops = 0.0, solve_time = 0.0;
  const int root = run.tracer.begin("bench.replay");
  const double wall0 = now_s();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ReplayPoint& p = points[i];
    const dft::LeadBlocks& lead = sim.lead_blocks(p.k);
    const dft::FoldedLead& folded = sim.folded_lead(p.k);
    auto it = devices.find(p.k);
    if (it == devices.end())
      it = devices
               .emplace(p.k, dft::assemble_device(lead, cfg.structure.num_cells,
                                                  potential))
               .first;
    const dft::DeviceMatrices& dm = it->second;
    const cplx e{p.energy, 0.0};
    const Scope point_span(run.tracer, "bench.point", static_cast<int>(i));

    obc::Boundary bnd;
    {
      const Scope span(run.tracer, "obc.boundary");
      const double t0 = now_s();
      bnd = strategy->boundary(lead, folded, e, opts.obc_opts);
      t_obc.push_back(now_s() - t0);
    }
    {
      const Scope span(run.tracer, "solvers.solve");
      const numeric::FlopScope flops;
      const double t0 = now_s();
      if (a.num_blocks() != dm.h.num_blocks())
        a = blockmat::BlockTridiag(dm.h.num_blocks(), dm.h.block_size());
      const idx nb = a.num_blocks(), s = a.block_size();
      if (!solver)
        solver = solvers::make_solver(
            solvers::resolve_algorithm(opts.solver, nb, s, s, binding),
            binding);
      a.assign_es_minus_h(e, dm.s, dm.h);
      CMatrix x;
      if (probes.empty()) {
        // Green's-function corner columns plus the injected waves, the
        // right-hand side the two-terminal pipeline solves.
        const idx ninc = bnd.num_incident;
        CMatrix b_top(s, 2 * s + ninc), b_bot(s, 2 * s + ninc);
        for (idx r = 0; r < s; ++r) {
          b_top(r, r) = cplx{1.0};
          b_bot(r, s + r) = cplx{1.0};
          for (idx c = 0; c < ninc; ++c) b_top(r, 2 * s + c) = bnd.inj(r, c);
        }
        solver->prepare(a);
        x = solver->solve_boundary(a, bnd.sigma_l, bnd.sigma_r, b_top, b_bot);
      } else {
        // Multi-terminal: contacts at the corners, probes -i*eta*I on their
        // blocks, one identity block column per terminal.
        std::vector<CMatrix> sig;
        sig.reserve(probes.size());
        std::vector<solvers::Attachment> att{{0, &bnd.sigma_l},
                                             {nb - 1, &bnd.sigma_r}};
        std::vector<idx> blocks{0, nb - 1};
        for (const auto& ps : probes) {
          sig.push_back(CMatrix(s, s));
          for (idx r = 0; r < s; ++r) sig.back()(r, r) = cplx{0.0, -ps.eta};
          blocks.push_back(ps.block);
        }
        for (std::size_t q = 0; q < probes.size(); ++q)
          att.push_back({probes[q].block, &sig[q]});
        const idx m = s * static_cast<idx>(blocks.size());
        std::vector<CMatrix> rhs_mats(blocks.size(), CMatrix(s, m));
        std::vector<solvers::RhsBlock> rhs;
        for (std::size_t q = 0; q < blocks.size(); ++q) {
          for (idx r = 0; r < s; ++r)
            rhs_mats[q](r, static_cast<idx>(q) * s + r) = cplx{1.0};
          rhs.push_back({blocks[q], &rhs_mats[q]});
        }
        x = solver->solve_attached(a, att, rhs);
      }
      const double dt = now_s() - t0;
      t_solve.push_back(dt);
      solve_time += dt;
      solve_flops += static_cast<double>(flops.elapsed());
      bool ok = x.rows() == a.dim();
      for (idx r = 0; ok && r < x.rows(); r += std::max<idx>(1, x.rows() / 7))
        ok = is_finite(std::abs(x(r, 0)));
      run.checks.op(ok, "replayed device solve finite", Severity::kInvalid);
    }
    cache.insert({p.k, p.energy, opts.obc_opts.contact_shift,
                  static_cast<int>(opts.obc), 0.0},
                 std::move(bnd));
    {
      const Scope span(run.tracer, "transport.solve_energy_point");
      transport::EnergyPointOptions o = opts;
      o.k_index = p.k;
      const double t0 = now_s();
      const auto r =
          transport::solve_energy_point(dm, lead, folded, p.energy, o, &pool);
      t_point.push_back(now_s() - t0);
      bool ok = is_finite(r.transmission) && is_finite(r.transmission_caroli);
      for (const double t : r.t_matrix) ok = ok && is_finite(t) && t > -1e-9;
      run.checks.op(ok, "replayed point finite", Severity::kInvalid);
    }
  }
  const double wall = now_s() - wall0;
  run.tracer.end(root);

  run.m["obc.compute_p50_s"] = median(t_obc);
  run.m["obc.compute_p90_s"] = quantile(t_obc, 0.9);
  run.m["solvers.solve_p50_s"] = median(t_solve);
  run.m["solvers.solve_p90_s"] = quantile(t_solve, 0.9);
  run.m["solvers.gflops"] = solve_time > 0 ? solve_flops / solve_time / 1e9 : 0;
  run.m["transport.point_p50_s"] = median(t_point);
  run.m["transport.point_p90_s"] = quantile(t_point, 0.9);
  run.m["trace.replay_points"] = static_cast<double>(points.size());
  run.m["trace.replay_point_cache_hits"] =
      static_cast<double>(cache.stats().hits);

  // Per-layer self time of the replayed sweep; what the bench itself
  // spends between calls (span "bench.*" self time) is the uncovered part.
  const auto self = run.tracer.layer_self(root);
  double layers = 0.0;
  for (const auto& [layer, t] : self) {
    std::printf("replay self time %-10s %.4f s\n", layer.c_str(), t);
    if (layer != "bench") layers += t;
  }
  const auto self_of = [&](const char* l) {
    const auto f = self.find(l);
    return f == self.end() ? 0.0 : f->second;
  };
  run.m["obc.self_s"] = self_of("obc");
  run.m["solvers.self_s"] = self_of("solvers");
  run.m["transport.self_s"] = self_of("transport");
  run.m["trace.coverage"] = wall > 0 ? layers / wall : 0.0;
  char what[120];
  std::snprintf(what, sizeof(what),
                "per-layer self times cover %.4f of the replayed sweep",
                run.m["trace.coverage"]);
  run.checks.op(run.m["trace.coverage"] >= 0.95, what, Severity::kInvalid);
}

std::vector<ReplayPoint> sample_points(Run& run, idx num_k,
                                       const std::vector<double>& energies,
                                       std::size_t count) {
  std::vector<ReplayPoint> all;
  for (idx k = 0; k < num_k; ++k)
    for (const double e : energies) all.push_back({k, e});
  std::shuffle(all.begin(), all.end(), run.rng);
  all.resize(std::min(count, all.size()));
  return all;
}

// ------------------------------------------------------------- checks ---

/// Full observables at one energy through the simulator: wave-function vs
/// Caroli transmission, bond-current conservation, and (for a pristine
/// device) the integer staircase T = number of incident channels.
void check_point(Run& run, omen::Simulator& sim, double energy,
                 const std::vector<double>* potential, bool pristine) {
  transport::EnergyPointResult r;
  char what[200];
  try {
    r = sim.solve_point(energy, potential);
  } catch (const std::exception& e) {
    run.checks.op(false, std::string("solve_point threw: ") + e.what());
    return;
  }
  const double t = r.transmission, tc = r.transmission_caroli;
  std::snprintf(what, sizeof(what), "T finite at E = %.6f", energy);
  if (!run.checks.op(is_finite(t) && is_finite(tc), what, Severity::kInvalid))
    return;
  const double dt = std::abs(t - tc);
  std::snprintf(what, sizeof(what),
                "wave-function vs Caroli T at E = %.6f: %.3e vs %.3e", energy,
                t, tc);
  run.checks.op(dt <= 1e-6 * std::max(1.0, std::abs(t)), what);
  double lo = 0.0, hi = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < r.interface_current.size(); ++i) {
    const double c = r.interface_current[i];
    lo = i == 0 ? c : std::min(lo, c);
    hi = i == 0 ? c : std::max(hi, c);
    scale = std::max(scale, std::abs(c));
  }
  // Relative to one channel's flux (or the current, when larger): deep in
  // a tunnelling barrier the current itself is ~1e-8 and its rounding
  // floor is not a conservation failure.
  const double spread = (hi - lo) / std::max(1.0, scale);
  std::snprintf(what, sizeof(what), "bond-current spread at E = %.6f: %.3e",
                energy, spread);
  run.checks.op(spread <= 1e-6, what);
  if (pristine) {
    std::snprintf(what, sizeof(what),
                  "pristine staircase at E = %.6f: T = %.9f, channels %ld",
                  energy, t, static_cast<long>(r.num_propagating));
    run.checks.op(std::abs(t - static_cast<double>(r.num_propagating)) <= 1e-6,
                  what);
  }
  std::printf("check point E = %.6f: T = %.9f, |T - T_caroli| = %.2e, "
              "bond-current spread = %.2e\n",
              energy, t, dt, spread);
}

/// Spectrum sanity: every point finite and within [0, channels].  With
/// `pristine`, every point must sit on the integer staircase.
long check_spectrum(Run& run, const omen::Spectrum& sp, bool pristine) {
  long bad = 0;
  for (std::size_t i = 0; i < sp.transmission.size(); ++i) {
    const double t = sp.transmission[i];
    const double n = static_cast<double>(sp.propagating[i]);
    char what[160];
    std::snprintf(what, sizeof(what), "T(E = %.6f) = %.9f with %ld channels",
                  sp.energies[i], t, static_cast<long>(sp.propagating[i]));
    if (!run.checks.op(is_finite(t), what, Severity::kInvalid)) {
      ++bad;
      continue;
    }
    bool ok = t >= -1e-9 && t <= n + 1e-6;
    if (pristine) ok = ok && std::abs(t - n) <= 1e-6;
    bad += run.checks.op(ok, what) ? 0 : 1;
  }
  return bad;
}

/// CPU and wall time of every Simulator construction in a run.
struct Setup {
  std::vector<double> cpu, wall;
  void report(Run& run) const {
    run.m["setup_cpu_s"] = median(cpu);
    run.m["setup_wall_s"] = median(wall);
  }
};

std::unique_ptr<omen::Simulator> make_simulator(
    Run& run, const omen::SimulationConfig& cfg, Setup& setup) {
  const Stopwatch sw;
  std::unique_ptr<omen::Simulator> sim;
  {
    const Scope span(run.tracer, "omen.Simulator");
    sim = std::make_unique<omen::Simulator>(cfg);
  }
  setup.cpu.push_back(sw.cpu());
  setup.wall.push_back(sw.wall());
  return sim;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Timing samples of a loop whose odd iterations record spans in a traced
/// run: the untraced samples give the end-to-end figures (work per
/// CPU-second, and per wall second as context), and the ratio of the two
/// CPU-time medians is the tracing overhead.
struct Timed {
  std::vector<double> plain, plain_cpu, traced_cpu;
  void add(bool with_spans, double wall, double cpu) {
    if (with_spans) {
      traced_cpu.push_back(cpu);
    } else {
      plain.push_back(wall);
      plain_cpu.push_back(cpu);
    }
  }
  void add(bool with_spans, const Stopwatch& sw) {
    add(with_spans, sw.wall(), sw.cpu());
  }
  std::size_t size() const { return plain.size() + traced_cpu.size(); }
  /// points_per_cpu_s and points_per_s: medians over the untraced calls of
  /// `work` units each.
  void report_rates(Run& run, double work) const {
    std::vector<double> cpu_rates, wall_rates;
    for (const double dt : plain_cpu) cpu_rates.push_back(work / dt);
    for (const double dt : plain) wall_rates.push_back(work / dt);
    run.m["points_per_cpu_s"] = median(cpu_rates);
    run.m["points_per_s"] = median(wall_rates);
    print_rates("points per CPU-second per call", cpu_rates);
    print_rates("points per wall second per call", wall_rates);
  }
  void report_overhead(Run& run) const {
    if (!run.traced()) return;
    const double p = median(plain_cpu), t = median(traced_cpu);
    run.m["trace.overhead_frac"] = p > 0 && t > 0 ? t / p - 1.0 : 0.0;
  }
};

// ------------------------------------------------------------ workloads --

/// Si GAA nanowire gate sweep on the SplitSolve hot path: the pristine
/// spectrum fills the boundary cache, then every gate-barrier spectrum
/// reuses it, so the timed spectra run the device phase only.
void wire_gate_sweep(Run& run) {
  omen::SimulationConfig cfg;
  cfg.structure = lattice::make_nanowire(0.4, 48);
  cfg.point.obc = transport::ObcAlgorithm::kFeast;
  cfg.point.solver = transport::SolverAlgorithm::kSplitSolve;
  cfg.point.partitions = 2;
  cfg.batch_tasks = true;
  if (run.traced()) roofline(run, 120);

  // Fixed 16-point grid above the lead's conduction edge (0.158 eV).
  std::vector<double> grid;
  const double offset = run.uniform(0.0, 0.008);
  for (int i = 0; i < 16; ++i) grid.push_back(0.178 + 0.04 * i + offset);
  const lattice::DeviceRegions regions{16, 16, 16};
  poisson::PoissonOptions popts;
  std::vector<std::vector<double>> barriers;
  for (int b = 0; b < 5; ++b) {
    const double vgs = -0.1 - 0.1 * b + run.uniform(-0.01, 0.01);
    barriers.push_back(
        poisson::solve_device_potential(regions, vgs, 0.0, {}, popts));
  }

  // One construction: at 13-18 CPU-seconds a second one does not fit the
  // run budget.
  Setup setup;
  auto sim = make_simulator(run, cfg, setup);
  {
    const Scope span(run.tracer, "omen.transmission_spectrum");
    const auto sp0 = sim->transmission_spectrum(grid);
    check_spectrum(run, sp0, true);
  }

  EngineAcc acc;
  Window win;
  Timed timed;
  const int spectra = run.calls(1.2, 5);
  run.probe(8);
  for (int j = 0; j < spectra; ++j) {
    const auto& pot = barriers[static_cast<std::size_t>(j) % barriers.size()];
    const bool spans = run.traced() && j % 2 == 1;
    const auto m0 = Window::mark(*sim);
    const int id =
        spans ? run.tracer.begin("omen.transmission_spectrum", j) : -1;
    const Stopwatch sw;
    omen::Spectrum sp;
    try {
      sp = sim->transmission_spectrum(grid, &pot);
    } catch (const std::exception& e) {
      run.checks.op(false, std::string("spectrum threw: ") + e.what());
    }
    run.tracer.end(id);
    if (sp.transmission.empty()) continue;
    timed.add(spans, sw);
    run.probe(8);
    acc.add(sim->last_sweep_stats());
    win.add(m0, Window::mark(*sim), static_cast<double>(grid.size()));
    check_spectrum(run, sp, false);
  }
  check_point(run, *sim, grid[static_cast<std::size_t>(run.uniform(0, 16))],
              &barriers.back(), false);

  setup.report(run);
  timed.report_rates(run, static_cast<double>(grid.size()));
  std::printf("wire_gate_sweep: N_SS = %ld, %zu energies x %zu warm spectra, "
              "barrier peaks %.3f..%.3f eV\n",
              static_cast<long>(sim->hamiltonian_dimension()), grid.size(),
              timed.size(),
              *std::max_element(barriers.front().begin(),
                                barriers.front().end()),
              *std::max_element(barriers.back().begin(),
                                barriers.back().end()));
  acc.report(run.m);
  win.report(run.m);
  timed.report_overhead(run);
  if (run.traced()) {
    time_setup_pieces(run, cfg);
    parallel::DevicePool pool(std::max(1, cfg.num_devices));
    const auto pts = sample_points(run, 1, grid, 3);
    replay(run, *sim, barriers.front(), pts, pool);
    const double bytes = 3.0 * 16.0 * sim->hamiltonian_dimension() * 120.0;
    run.m["numeric.ops_per_byte"] =
        bytes > 0 ? run.m["numeric.flops_per_point"] / bytes : 0.0;
  }
}

/// z-periodic wire on four k points and four ranks: every spectrum uses a
/// fresh seeded grid, so every (k, E) point misses the boundary cache and
/// the OBC stage dominates.  A fresh simulator every few spectra bounds the
/// cache footprint and gives repeated set-up samples.
void kgrid_cold(Run& run) {
  omen::SimulationConfig cfg;
  cfg.structure = lattice::make_nanowire(0.3, 6);
  cfg.structure.periodicity = lattice::Periodicity::kZ;
  cfg.num_k = 4;
  cfg.num_ranks = 4;
  cfg.work_stealing = true;
  cfg.point.obc = transport::ObcAlgorithm::kFeast;
  cfg.point.solver = transport::SolverAlgorithm::kBlockLU;
  if (run.traced()) roofline(run, 24);

  constexpr int kEnergies = 48, kSpectraPerSim = 6;
  Setup setup;
  EngineAcc acc;
  Window win;
  Timed timed;
  double edge = 0.0;
  std::vector<double> last_grid;
  std::unique_ptr<omen::Simulator> sim;
  const int simulators = run.calls(0.8, 2);
  int spectra = 0;
  for (int n = 0; n < simulators; ++n) {
    sim = make_simulator(run, cfg, setup);
    if (spectra == 0)
      edge = transport::lowest_band_above(sim->bands(21), 0.0);
    for (int s = 0; s < kSpectraPerSim; ++s, ++spectra) {
      std::vector<double> grid;
      const double offset = run.uniform(0.0, 0.03);
      for (int i = 0; i < kEnergies; ++i)
        grid.push_back(edge + 0.02 + 0.6 * i / kEnergies + offset);
      const bool spans = run.traced() && spectra % 2 == 1;
      const auto m0 = Window::mark(*sim);
      const int id =
          spans ? run.tracer.begin("omen.transmission_spectrum", spectra)
                : -1;
      const Stopwatch sw;
      omen::Spectrum sp;
      try {
        sp = sim->transmission_spectrum(grid);
      } catch (const std::exception& e) {
        run.checks.op(false, std::string("spectrum threw: ") + e.what());
      }
      run.tracer.end(id);
      if (sp.transmission.empty()) continue;
      timed.add(spans, sw);
      run.probe();
      acc.add(sim->last_sweep_stats());
      win.add(m0, Window::mark(*sim),
              static_cast<double>(sim->last_sweep_stats().tasks_total));
      check_spectrum(run, sp, false);
      last_grid = grid;
    }
    check_point(run, *sim,
                last_grid[static_cast<std::size_t>(run.uniform(0, kEnergies))],
                nullptr, true);
  }
  setup.report(run);
  timed.report_rates(run, static_cast<double>(cfg.num_k * kEnergies));
  std::printf("kgrid_cold: N_SS = %ld, %ld k x %d energies x %d spectra on "
              "%zu simulators\n",
              static_cast<long>(sim->hamiltonian_dimension()),
              static_cast<long>(cfg.num_k), kEnergies, spectra,
              setup.cpu.size());
  acc.report(run.m);
  win.report(run.m);
  timed.report_overhead(run);
  if (run.traced()) {
    time_setup_pieces(run, cfg);
    parallel::DevicePool pool(std::max(1, cfg.num_devices));
    const auto pts = sample_points(run, cfg.num_k, last_grid, 24);
    replay(run, *sim, std::vector<double>(6, 0.0), pts, pool);
    const double bytes = 3.0 * 16.0 * sim->hamiltonian_dimension() * 24.0;
    run.m["numeric.ops_per_byte"] =
        bytes > 0 ? run.m["numeric.flops_per_point"] / bytes : 0.0;
  }
}

/// Chain-FET transfer characteristics: self-consistent Id-Vgs at two drain
/// biases, each family on a fresh simulator.  The families run the loop of
/// Simulator::transfer_characteristics (warm-started
/// poisson::self_consistent_potential per Vgs, then the Landauer current)
/// with the charge model a timed wrapper around Simulator::charge_density,
/// so every SCF charge evaluation is a timing sample; the traced run checks
/// the loop against transfer_characteristics itself.
void fet_iv_campaign(Run& run) {
  omen::SimulationConfig cfg;
  lattice::Structure chain;
  chain.cell_atoms = {{lattice::Species::kLi, {0.0, 0.0, 0.0}}};
  chain.cell_length = 0.5;
  chain.num_cells = 32;
  chain.name = "chain FET";
  cfg.structure = chain;
  cfg.build.cutoff_nm = 1.0;
  cfg.point.obc = transport::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = transport::SolverAlgorithm::kBlockLU;
  if (run.traced()) roofline(run, 2);

  const lattice::DeviceRegions regions{10, 12, 10};
  poisson::ScfOptions scf;
  scf.poisson.screening_length_cells = 2.0;
  scf.poisson.charge_coupling = 0.25;
  scf.tol = 1e-6;
  scf.charge_tol = 1e-5;
  scf.mixing = 0.3;
  scf.max_iter = 200;
  scf.anderson_depth = 3;
  scf.warm_start = true;
  scf.quadrature = charge::QuadratureAlgorithm::kContour;
  // The SCF iteration count is chaotic in the inputs (+-1.5 mV on Vgs or
  // 1 meV on the grid offset moves a family between ~420 and ~650
  // iterations and 0-3 unconverged points), so the seed jitters Vgs by at
  // most 0.1 mV and the grid by at most 0.1 meV: every seed then keeps the
  // nominal inputs' behaviour, including the Vds = 0.05 V point that stops
  // at max_iter.
  std::vector<double> vgs;
  for (int i = 0; i < 6; ++i)
    vgs.push_back(-0.15 + 0.07 * i + run.uniform(-1e-4, 1e-4));
  const double grid_offset = run.uniform(0.0, 1e-4);
  const std::vector<double> vds_values{0.05, 0.2};

  Setup setup;
  std::vector<double> grid;
  double mu_s = 0.0;
  {
    const auto win_b = transport::band_window(make_simulator(run, cfg, setup)
                                                  ->bands(9));
    mu_s = win_b.emin + 0.1;
    for (double e = win_b.emin - 0.02 + grid_offset; e <= mu_s + 0.3;
         e += 0.01)
      grid.push_back(e);
  }
  {
    // Warm-up outside the timed window: sweeps wide enough that every pool
    // thread solves both real-axis and contour tasks, so the per-thread
    // workspaces exist before timing.  Otherwise which threads happen to
    // pick up which task kind on these tiny sweeps decides ~9 MB of the
    // peak RSS from run to run.
    auto sim = make_simulator(run, cfg, setup);
    std::vector<double> wide;
    for (int i = 0; i < 256; ++i)
      wide.push_back(grid.front() + (grid.back() - grid.front()) * i / 255.0);
    sim->transmission_spectrum(wide);
    charge::QuadratureOptions q = scf.quadrature_options;
    q.contour_points = 512;
    sim->charge_density(grid, mu_s, mu_s - 0.2, nullptr, scf.quadrature, q);
  }

  EngineAcc acc;
  Window win;
  Timed timed;
  Tracer off(false);
  // Per drain bias: engine tasks per CPU-second and per wall second of
  // every untraced charge evaluation.
  std::vector<std::vector<double>> eval_cpu_rates(vds_values.size());
  std::vector<std::vector<double>> eval_rates(vds_values.size());
  std::vector<double> charge_t, first_family_currents;
  double poisson_self = 0.0, poisson_iters = 0.0, poisson_unconverged = 0.0;
  const int families = run.calls(3.0, 2);
  int pairs = 0;
  int request = 0;
  for (; pairs < families; ++pairs) {
    const bool spans = run.traced() && pairs % 2 == 1;
    Tracer& tracer = spans ? run.tracer : off;
    double pair_time = 0.0, pair_cpu = 0.0;
    int pair_iters = 0;
    for (std::size_t b = 0; b < vds_values.size(); ++b) {
      const double vds = vds_values[b];
      const double mu_d = mu_s - vds;
      auto sim = make_simulator(run, cfg, setup);
      const auto m0 = Window::mark(*sim);
      std::vector<double> warm, warm_charge;
      for (const double vg : vgs) {
        // The chain's set-up takes well under a millisecond: construct it
        // repeatedly, spread over the run like the timed calls, so its
        // median is steady.
        for (int i = 0; i < 8; ++i) make_simulator(run, cfg, setup);
        run.probe(2);
        const Accumulate point{pair_time, pair_cpu};
        double charge_time = 0.0;
        const poisson::ChargeModel charge = [&](const std::vector<double>& v) {
          const Scope span(tracer, "charge.charge_density");
          const Stopwatch sw;
          auto rho = sim->charge_density(grid, mu_s, mu_d, &v, scf.quadrature,
                                         scf.quadrature_options);
          const double dt = sw.wall(), dt_cpu = sw.cpu();
          charge_t.push_back(dt);
          charge_time += dt;
          const auto& st = sim->last_sweep_stats();
          acc.add(st);
          if (!spans) {
            const double tasks = static_cast<double>(st.tasks_total);
            eval_rates[b].push_back(tasks / dt);
            eval_cpu_rates[b].push_back(tasks / dt_cpu);
          }
          return rho;
        };
        const int root =
            tracer.begin("poisson.self_consistent_potential", request++);
        poisson::ScfResult res;
        double current = 0.0;
        bool threw = false;
        try {
          const bool use_warm = !warm.empty();
          const double s0 = now_s();
          res = poisson::self_consistent_potential(
              regions, vg, vds, charge, scf, use_warm ? &warm : nullptr,
              use_warm ? &warm_charge : nullptr);
          if (pairs == 0) poisson_self += now_s() - s0 - charge_time;
          const Scope span(tracer, "omen.current");
          current = sim->current(grid, mu_s, mu_d, &res.potential);
          acc.add(sim->last_sweep_stats());
        } catch (const std::exception& e) {
          threw = true;
          run.checks.op(false, std::string("SCF bias point threw: ") +
                                   e.what());
        }
        tracer.end(root);
        if (threw) continue;
        warm = res.potential;
        warm_charge = res.charge;
        char what[160];
        bool finite_out = is_finite(current);
        for (const double v : res.potential)
          finite_out = finite_out && is_finite(v);
        std::snprintf(what, sizeof(what), "Id finite at Vgs = %.4f, Vds = %.2f",
                      vg, vds);
        if (!run.checks.op(finite_out, what, Severity::kInvalid)) continue;
        std::snprintf(what, sizeof(what),
                      "SCF unconverged at Vgs = %.4f, Vds = %.2f after %d "
                      "iterations",
                      vg, vds, res.iterations);
        run.checks.op(res.converged, what);
        pair_iters += res.iterations;
        if (pairs == 0) {
          poisson_iters += res.iterations;
          poisson_unconverged += res.converged ? 0 : 1;
          if (b + 1 == vds_values.size()) first_family_currents.push_back(current);
        }
      }
      win.add(m0, Window::mark(*sim),
              static_cast<double>(sim->total_tasks_issued()));
    }
    timed.add(spans, pair_time, pair_cpu);
    if (pairs == 0) run.m["scf_iterations"] = pair_iters;
    std::printf("I-V family %d%s: %.3f s, %d SCF iterations\n", pairs,
                spans ? " (traced)" : "", pair_time, pair_iters);
  }
  // Per-evaluation rates are medians per drain bias, combined by geometric
  // mean, so the seed-dependent share of iterations at each bias (an
  // unconverged point adds 200 evaluations at one Vds) does not move it.
  const auto geomean_of_medians =
      [](const std::vector<std::vector<double>>& rates) {
        double log_rate = 0.0;
        for (const auto& r : rates) log_rate += std::log(median(r));
        return std::exp(log_rate / static_cast<double>(rates.size()));
      };
  setup.report(run);
  run.m["points_per_cpu_s"] = geomean_of_medians(eval_cpu_rates);
  run.m["points_per_s"] = geomean_of_medians(eval_rates);
  print_rates("tasks per CPU-second per charge evaluation, Vds = 0.05 V",
              eval_cpu_rates[0]);
  print_rates("tasks per CPU-second per charge evaluation, Vds = 0.2 V",
              eval_cpu_rates[1]);
  print_rates("tasks/s per charge evaluation, Vds = 0.05 V", eval_rates[0]);
  print_rates("tasks/s per charge evaluation, Vds = 0.2 V", eval_rates[1]);
  run.m["iv_s"] = median(timed.plain);
  std::printf("fet_iv_campaign: %d families, %zu + %zu charge evaluations, "
              "iv_s = %.3f s, scf_iterations = %.0f (first family), Vgs = {",
              pairs, eval_rates[0].size(), eval_rates[1].size(),
              run.m["iv_s"], run.m["scf_iterations"]);
  for (const double v : vgs) std::printf(" %.4f", v);
  std::printf(" } V\n");
  acc.report(run.m);
  win.report(run.m);
  timed.report_overhead(run);
  if (run.traced()) {
    // The driver loop must reproduce Simulator::transfer_characteristics
    // on the same inputs (the last-bias family of the first pair).
    auto sim = make_simulator(run, cfg, setup);
    const auto ref = sim->transfer_characteristics(vgs, vds_values.back(),
                                                   regions, grid, mu_s, scf);
    double d = ref.size() == first_family_currents.size() ? 0.0 : 1.0;
    double scale = 0.0;
    for (std::size_t i = 0; i < ref.size() && i < first_family_currents.size();
         ++i) {
      d = std::max(d, std::abs(ref[i].current - first_family_currents[i]));
      scale = std::max(scale, std::abs(ref[i].current));
    }
    char what[160];
    std::snprintf(what, sizeof(what),
                  "SCF driver loop vs transfer_characteristics: max |dI| = "
                  "%.3e",
                  d);
    run.checks.op(d <= 1e-9 * std::max(1e-12, scale), what,
                  Severity::kInvalid);
    run.m["poisson.iterations"] = poisson_iters;
    run.m["poisson.unconverged"] = poisson_unconverged;
    run.m["poisson.self_s"] = poisson_self;
    run.m["charge.eval_p50_s"] = median(charge_t);
    run.m["charge.eval_p90_s"] = quantile(charge_t, 0.9);
    time_setup_pieces(run, cfg);
    parallel::DevicePool pool(std::max(1, cfg.num_devices));
    std::vector<double> window;
    for (const double e : grid)
      if (e <= mu_s) window.push_back(e);
    const auto pts = sample_points(run, 1, window, 24);
    replay(run, *sim, std::vector<double>(32, 0.0), pts, pool);
    const double bytes = 3.0 * 16.0 * sim->hamiltonian_dimension() * 2.0;
    run.m["numeric.ops_per_byte"] =
        bytes > 0 ? run.m["numeric.flops_per_point"] / bytes : 0.0;
  }
}

/// Dephasing wire: Buettiker probes on every interior block, terminal
/// currents over a Vds ramp on the multi-terminal rgf path with the probe
/// potentials tuned to zero net current on every call.
void wire_dephasing(Run& run) {
  omen::SimulationConfig cfg;
  cfg.structure = lattice::make_nanowire(0.3, 16);
  cfg.point.obc = transport::ObcAlgorithm::kFeast;
  cfg.point.solver = transport::SolverAlgorithm::kRgf;
  cfg.point.scattering.algorithm =
      scattering::ScatteringAlgorithm::kButtikerProbe;
  cfg.point.scattering.options.buttiker.eta = 0.05;
  if (run.traced()) roofline(run, 24);

  constexpr int kEnergies = 32;
  const lattice::DeviceRegions regions{5, 6, 5};
  const double vgs = -0.1 + run.uniform(-0.01, 0.01);
  const auto potential =
      poisson::solve_device_potential(regions, vgs, 0.0, {}, {});
  const std::vector<double> ramp{0.02, 0.05, 0.1, 0.2};
  const double grid_offset = run.uniform(0.0, 0.005);

  Setup setup;
  EngineAcc acc;
  Window win;
  Timed timed;
  double newton = 0.0, leak = 0.0;
  std::vector<double> grid;
  double mu = 0.0;
  std::unique_ptr<omen::Simulator> sim;
  const int ramps = run.calls(0.25, 2);
  int units = 0;
  for (; units < ramps; ++units) {
    sim = make_simulator(run, cfg, setup);
    if (grid.empty()) {
      const double edge = transport::lowest_band_above(sim->bands(21), 0.0);
      mu = edge + 0.15;
      for (int i = 0; i < kEnergies; ++i)
        grid.push_back(edge + 0.01 + 0.5 * i / kEnergies + grid_offset);
    }
    const bool spans = run.traced() && units % 2 == 1;
    double unit_time = 0.0, unit_cpu = 0.0;
    for (const double vds : ramp) {
      const auto m0 = Window::mark(*sim);
      const int id = spans ? run.tracer.begin("omen.terminal_currents") : -1;
      const Stopwatch sw;
      std::vector<double> currents;
      try {
        currents = sim->terminal_currents(
            grid, {mu + 0.5 * vds, mu - 0.5 * vds}, &potential);
      } catch (const std::exception& e) {
        run.checks.op(false, std::string("terminal_currents threw: ") +
                                 e.what());
      }
      unit_time += sw.wall();
      unit_cpu += sw.cpu();
      run.tracer.end(id);
      acc.add(sim->last_sweep_stats());
      win.add(m0, Window::mark(*sim), static_cast<double>(grid.size()));
      const auto& tune = sim->last_probe_tune();
      newton += tune.iterations;
      leak = std::max(leak, tune.max_residual);
      bool ok = currents.size() >= 2;
      double scale = 0.0;
      for (const double c : currents) {
        ok = ok && is_finite(c);
        scale = std::max(scale, std::abs(c));
      }
      char what[200];
      std::snprintf(what, sizeof(what), "terminal currents finite at Vds = %.2f",
                    vds);
      if (!run.checks.op(ok, what, Severity::kInvalid)) continue;
      const double balance =
          std::abs(currents[0] + currents[1]) / std::max(1.0, scale);
      std::snprintf(what, sizeof(what),
                    "probe tuning at Vds = %.2f: converged %d, leak %.3e, "
                    "terminal imbalance %.3e",
                    vds, tune.converged ? 1 : 0, tune.max_residual, balance);
      run.checks.op(tune.converged && tune.max_residual <= 1e-10 &&
                        balance <= 1e-10 && scale > 0,
                    what);
    }
    timed.add(spans, unit_time, unit_cpu);
    run.probe(2);
  }
  setup.report(run);
  timed.report_rates(run, static_cast<double>(ramp.size() * grid.size()));
  std::printf("wire_dephasing: N_SS = %ld, %zu probes, %zu Vds x %d energies "
              "x %d ramps, max probe leak %.2e\n",
              static_cast<long>(sim->hamiltonian_dimension()),
              sim->probe_sites().size(), ramp.size(), kEnergies, units, leak);
  acc.report(run.m);
  win.report(run.m);
  timed.report_overhead(run);
  if (run.traced()) {
    run.m["scattering.newton_iterations"] = newton;
    run.m["scattering.probe_leak"] = leak;
    // Probe tuning replayed on the swept T matrix.
    const auto sp = sim->transmission_spectrum(grid, &potential);
    const std::size_t nc = 2 + sim->probe_sites().size();
    std::vector<bool> is_probe(nc, true);
    is_probe[0] = is_probe[1] = false;
    std::vector<double> mu0(nc, mu);
    mu0[0] = mu + 0.1;
    mu0[1] = mu - 0.1;
    const double kt = 8.617e-5 * cfg.temperature_k;
    std::vector<double> t;
    scattering::ProbeTuneResult tuned;
    const double stop = now_s() + 0.2;
    while (t.size() < 3 || now_s() < stop) {
      const Scope span(run.tracer, "scattering.tune_probe_potentials");
      const double t0 = now_s();
      tuned = scattering::tune_probe_potentials(sp.energies, sp.t_matrix, mu0,
                                                is_probe, kt, cfg.probe_tune);
      t.push_back(now_s() - t0);
    }
    run.checks.op(tuned.converged && tuned.max_residual <= 1e-10,
                  "replayed probe tuning leak");
    run.m["scattering.tune_s"] = median(t);
    time_setup_pieces(run, cfg);
    parallel::DevicePool pool(std::max(1, cfg.num_devices));
    const auto pts = sample_points(run, 1, grid, 24);
    replay(run, *sim, potential, pts, pool);
    const double bytes = 3.0 * 16.0 * sim->hamiltonian_dimension() * 24.0;
    run.m["numeric.ops_per_byte"] =
        bytes > 0 ? run.m["numeric.flops_per_point"] / bytes : 0.0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: omenx_bench <workload> <seed> <seconds> <trace 0|1> "
                 "[trace_file]\n");
    return 2;
  }
  Run run;
  run.workload = argv[1];
  run.seed = std::strtoull(argv[2], nullptr, 10);
  run.seconds = std::atof(argv[3]);
  run.tracer = Tracer(std::atoi(argv[4]) != 0);
  run.rng.seed(run.seed);
  const std::string trace_file = argc > 5 ? argv[5] : "";

  try {
    if (run.workload == "wire_gate_sweep")
      wire_gate_sweep(run);
    else if (run.workload == "kgrid_cold")
      kgrid_cold(run);
    else if (run.workload == "fet_iv_campaign")
      fet_iv_campaign(run);
    else if (run.workload == "wire_dephasing")
      wire_dephasing(run);
    else {
      std::fprintf(stderr, "unknown workload %s\n", run.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", run.workload.c_str(),
                 e.what());
    return 1;
  }
  run.m["peak_rss_mb"] = peak_rss_mb();
  // End-to-end times at the reference host speed (see host_probe).
  const double probe = median(run.host);
  const double speed = probe / kReferenceProbeGflops;
  run.m["host.probe_gflops"] = probe;
  run.m["points_per_ref_cpu_s"] = run.m["points_per_cpu_s"] / speed;
  run.m["setup_s"] = run.m["setup_cpu_s"] * speed;
  if (run.traced()) run.m["trace.spans"] = static_cast<double>(run.tracer.size());
  run.tracer.write(trace_file, run.workload, run.seed);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.checks.correct ? "true" : "false", run.checks.attempted,
              run.checks.failed);
  bool first = true;
  for (const auto& [name, value] : run.m) {
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(),
                is_finite(value) ? value : -1.0);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
