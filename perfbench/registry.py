"""Names, units and rationale of the benchmark's workloads and metrics.

This is the single source of truth for the benchmark definition:
`run.py --list` prints it, `run.py --benchmark-json` renders the root
BENCHMARK.json from it, and `run.py` attaches the units below to the values
the driver binary measures.

Layers are the library's `src/` modules.  Every per-layer metric records
which end-to-end metric it should move, on which workload, and the workload
where the prediction is no change.
"""

RUN_SECONDS = 6
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# name, why (one line, <= 200 characters), layers the workload reaches.
WORKLOADS = [
    ("wire_gate_sweep",
     "Si GAA wire d=0.4 nm, N_SS=2880: warm SplitSolve spectra over gate "
     "barriers with every boundary a cache hit, so device-phase and kernel "
     "gains show here first",
     ["omen", "transport", "solvers", "numeric", "poisson"]),
    ("kgrid_cold",
     "z-periodic d=0.3 nm wire, 4 k x 4 ranks, stealing: each 192-point "
     "spectrum is a fresh seeded grid that misses the boundary cache, so "
     "OBC and the engine levels dominate",
     ["omen", "obc", "transport", "solvers", "numeric"]),
    ("fet_iv_campaign",
     "32-cell chain FET Id-Vgs at Vds 0.05/0.2 V: Anderson SCF with contour "
     "charge, tens of thousands of tiny cached tasks, so Poisson, charge "
     "and engine overhead dominate",
     ["poisson", "charge", "omen", "transport", "obc"]),
    ("wire_dephasing",
     "d=0.3 nm wire, Buettiker probes on all 6 interior blocks: terminal "
     "currents over a 4-Vds ramp on the multi-terminal rgf path with probe "
     "tuning, the only scattering workload",
     ["scattering", "omen", "transport", "solvers", "obc"]),
]

# name, unit, better, bound (share of the parent's median), description.
# The end-to-end rate and set-up time are CPU time of the whole process
# (every thread) at a reference host speed.  On a shared host the wall time
# of a multi-threaded call measures how many cores the other tenants left
# free, and even CPU time drifts by tens of percent within minutes as they
# load the machine.  So the driver times a fixed kernel of its own (no
# library code) on every hardware thread between the timed calls and scales
# the CPU times by the run's median probe rate over a fixed reference of
# 4 GFLOP per CPU-second.  The unscaled CPU and wall figures are per-layer
# context, unbounded.
END_TO_END = [
    ("points_per_ref_cpu_s", "1/cpu-s", "higher", 0.25,
     "(k, E) points solved per CPU-second at the reference host speed in "
     "the timed calls after set-up: median over the run's spectra / ramps; "
     "on fet_iv_campaign engine tasks (contour nodes included) per charge "
     "evaluation, median per Vds, geometric mean of the two"),
    ("setup_s", "s", "lower", 0.25,
     "CPU time of omen::Simulator construction at the reference host "
     "speed (median over the run's constructions; one construction on "
     "wire_gate_sweep, where it takes 13-18 s)"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident set of the run (getrusage), so work moved into caches "
     "or set-up shows"),
]

# name, unit, better, layer, moves (end-to-end metric @ workloads),
# flat_on (workload where the prediction is no change), description.
PER_LAYER = [
    ("points_per_s", "1/s", "higher", "all",
     "time to solution @ all", "-",
     "points_per_ref_cpu_s in wall seconds, unscaled: (k, E) points (engine "
     "tasks on fet_iv_campaign) per second, median over the untraced calls; "
     "also moved by overlap and load balance, which CPU time does not see"),
    ("points_per_cpu_s", "1/cpu-s", "higher", "all",
     "points_per_ref_cpu_s @ all", "-",
     "points_per_ref_cpu_s before the host-speed scaling"),
    ("setup_wall_s", "s", "lower", "all",
     "setup_s @ all", "-",
     "setup_s in wall seconds, unscaled"),
    ("setup_cpu_s", "s", "lower", "all",
     "setup_s @ all", "-",
     "setup_s before the host-speed scaling"),
    ("host.probe_gflops", "GFLOP/s", "higher", "bench",
     "host-speed scaling", "-",
     "median rate of the driver's own probe kernel, GFLOP per CPU-second "
     "over every hardware thread"),
    ("dft.build_s", "s", "lower", "dft", "setup_s @ all", "-",
     "build_lead_blocks + fold_lead over all k"),
    ("transport.band_structure_s", "s", "lower", "transport",
     "setup_s @ wire_gate_sweep, kgrid_cold, wire_dephasing",
     "fet_iv_campaign",
     "lead_band_structure on the k=0 folded lead (the constructor's "
     "band-window call)"),
    ("obc.solves", "count", "lower", "obc",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "lead eigenproblems solved in the timed calls "
     "(obc::boundary_solve_count delta)"),
    ("obc.compute_p50_s", "s", "lower", "obc",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "replayed obc::Strategy::boundary, median"),
    ("obc.compute_p90_s", "s", "lower", "obc",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "replayed obc::Strategy::boundary, 90th percentile"),
    ("obc.cache_hit_ratio", "ratio", "higher", "obc",
     "points_per_ref_cpu_s @ wire_gate_sweep, fet_iv_campaign", "kgrid_cold",
     "boundary-cache hits / lookups in the timed calls"),
    ("obc.self_s", "s", "lower", "obc",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "self time of the obc spans in the replayed sweep"),
    ("solvers.solve_p50_s", "s", "lower", "solvers",
     "points_per_ref_cpu_s @ wire_gate_sweep, wire_dephasing", "kgrid_cold",
     "replayed device phase (A = E*S - H, prepare, boundary or attached "
     "solve), median"),
    ("solvers.solve_p90_s", "s", "lower", "solvers",
     "points_per_ref_cpu_s @ wire_gate_sweep, wire_dephasing", "kgrid_cold",
     "replayed device phase, 90th percentile"),
    ("solvers.gflops", "GFLOP/s", "higher", "solvers",
     "points_per_ref_cpu_s @ wire_gate_sweep", "kgrid_cold",
     "FlopCounter rate of the replayed device phase"),
    ("solvers.self_s", "s", "lower", "solvers",
     "points_per_ref_cpu_s @ wire_gate_sweep", "kgrid_cold",
     "self time of the solver spans in the replayed sweep"),
    ("transport.point_p50_s", "s", "lower", "transport",
     "points_per_ref_cpu_s @ all sweep workloads", "-",
     "replayed transport::solve_energy_point over a warm boundary, median"),
    ("transport.point_p90_s", "s", "lower", "transport",
     "points_per_ref_cpu_s @ all sweep workloads", "-",
     "replayed transport::solve_energy_point, 90th percentile"),
    ("transport.self_s", "s", "lower", "transport",
     "points_per_ref_cpu_s @ all sweep workloads", "-",
     "self time of the solve_energy_point spans in the replayed sweep"),
    ("transport.batches", "count", "lower", "transport",
     "points_per_ref_cpu_s @ wire_gate_sweep", "wire_dephasing",
     "batched pipeline calls in the timed sweeps"),
    ("transport.mean_batch_size", "count", "higher", "transport",
     "points_per_ref_cpu_s @ wire_gate_sweep", "wire_dephasing",
     "tasks per batched call"),
    ("transport.prefetch_hit_ratio", "ratio", "higher", "transport",
     "points_per_ref_cpu_s @ wire_gate_sweep", "wire_dephasing",
     "boundary-cache hits during the batched OBC prefetch"),
    ("numeric.flops_per_point", "count", "lower", "numeric",
     "points_per_ref_cpu_s @ all sweep workloads", "-",
     "FlopCounter delta / points solved in the timed calls"),
    ("numeric.heap_allocs_per_point", "count", "lower", "numeric",
     "points_per_ref_cpu_s @ all sweep workloads", "-",
     "matrix_heap_allocations delta / points solved in the timed calls"),
    ("numeric.gemm_gflops", "GFLOP/s", "higher", "numeric",
     "points_per_ref_cpu_s @ wire_gate_sweep", "fet_iv_campaign",
     "numeric::gemm at 120 x 120 (the wire's supercell block)"),
    ("numeric.gemm_gflops_240", "GFLOP/s", "higher", "numeric",
     "points_per_ref_cpu_s @ wire_gate_sweep", "fet_iv_campaign",
     "numeric::gemm at 240 x 240"),
    ("numeric.lu_gflops", "GFLOP/s", "higher", "numeric",
     "points_per_ref_cpu_s @ wire_gate_sweep", "fet_iv_campaign",
     "numeric::LUFactor at 120 x 120"),
    ("numeric.lu_gflops_240", "GFLOP/s", "higher", "numeric",
     "points_per_ref_cpu_s @ wire_gate_sweep", "fet_iv_campaign",
     "numeric::LUFactor at 240 x 240"),
    ("numeric.hermitian_eig_s", "s", "lower", "numeric",
     "setup_s @ wire_gate_sweep", "fet_iv_campaign",
     "numeric::hermitian_eig at the workload's folded-lead size"),
    ("numeric.mem_gbps", "GB/s", "higher", "numeric",
     "roofline context", "-",
     "triad bandwidth, 4 threads, working set >= 4x the last-level cache "
     "(both sizes printed)"),
    ("numeric.ops_per_byte", "flop/B", "higher", "numeric",
     "roofline context", "-",
     "flops per point / bytes of the point's A = E*S - H blocks, computed "
     "from array sizes"),
    ("omen.tasks", "count", "higher", "omen",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "engine tasks in the timed sweeps"),
    ("omen.tasks_stolen", "count", "lower", "omen",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "tasks served outside their momentum group"),
    ("omen.sweeps", "count", "higher", "omen",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "engine sweeps in the timed calls"),
    ("omen.busy_frac", "ratio", "higher", "omen",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "sum of rank busy / (ranks x wall); the flat loop's pool busy time is "
     "divided by its worker count"),
    ("omen.load_balance", "ratio", "higher", "omen",
     "points_per_ref_cpu_s @ kgrid_cold", "wire_gate_sweep",
     "mean / max rank busy"),
    ("omen.sweep_overhead_p50_s", "s", "lower", "omen",
     "iv_s @ fet_iv_campaign", "wire_gate_sweep",
     "engine-run wall minus max rank busy, median over sweeps"),
    ("poisson.iterations", "count", "lower", "poisson",
     "iv_s, scf_iterations @ fet_iv_campaign", "wire_gate_sweep",
     "outer SCF iterations of the first family (both Vds)"),
    ("poisson.unconverged", "count", "lower", "poisson",
     "failed_frac @ fet_iv_campaign", "wire_gate_sweep",
     "bias points of the first family stopped at max_iter"),
    ("poisson.self_s", "s", "lower", "poisson",
     "iv_s @ fet_iv_campaign", "wire_gate_sweep",
     "time inside self_consistent_potential outside the charge model, "
     "first family"),
    ("charge.eval_p50_s", "s", "lower", "charge",
     "iv_s @ fet_iv_campaign", "wire_gate_sweep",
     "Simulator::charge_density per SCF evaluation, median"),
    ("charge.eval_p90_s", "s", "lower", "charge",
     "iv_s @ fet_iv_campaign", "wire_gate_sweep",
     "Simulator::charge_density per SCF evaluation, 90th percentile"),
    ("charge.gf_tasks_frac", "ratio", "higher", "charge",
     "iv_s @ fet_iv_campaign", "wire_gate_sweep",
     "contour Green's-function tasks / engine tasks"),
    ("scattering.newton_iterations", "count", "lower", "scattering",
     "points_per_ref_cpu_s @ wire_dephasing", "wire_gate_sweep",
     "probe-tuning Newton iterations over the timed ramps"),
    ("scattering.probe_leak", "ratio", "lower", "scattering",
     "correctness @ wire_dephasing", "-",
     "largest relative probe-current leak after tuning"),
    ("scattering.tune_s", "s", "lower", "scattering",
     "points_per_ref_cpu_s @ wire_dephasing", "wire_gate_sweep",
     "replayed scattering::tune_probe_potentials, median"),
    ("iv_s", "s", "lower", "poisson",
     "time to solution @ fet_iv_campaign", "-",
     "wall time of one untraced Id-Vgs family at both Vds (median); only "
     "fet_iv_campaign has one, so it is listed here, without a bound"),
    ("scf_iterations", "count", "lower", "poisson",
     "iv_s @ fet_iv_campaign", "-",
     "outer SCF iterations of the first family (both Vds)"),
    ("failed_frac", "ratio", "lower", "bench",
     "correctness @ all", "-",
     "failed / attempted operations (both counts are in the result line)"),
    ("trace.overhead_frac", "ratio", "lower", "bench",
     "tracing overhead", "-",
     "median traced / median untraced CPU time of the timed calls - 1"),
    ("trace.coverage", "ratio", "higher", "bench",
     "self-time closure", "-",
     "per-layer self time / wall of the replayed sweep (stated margin: "
     ">= 0.95)"),
    ("trace.replay_points", "count", "higher", "bench",
     "sample size", "-",
     "(k, E) points replayed layer by layer"),
]


def benchmark_json():
    """The root BENCHMARK.json, rendered from the tables above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w, _ in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, *_ in PER_LAYER
        ],
    }


def listing():
    """Human-readable listing of every workload and metric."""
    lines = ["workloads:"]
    for name, why, layers in WORKLOADS:
        lines.append(f"  {name:<18} layers: {', '.join(layers)}")
        lines.append(f"  {'':<18} why: {why}")
    lines.append("end-to-end metrics (untraced run):")
    for name, unit, better, bound, desc in END_TO_END:
        lines.append(f"  {name:<30} [{unit}] {better} is better, "
                     f"bound {bound:.0%}: {desc}")
    lines.append("per-layer metrics (traced run):")
    for name, unit, better, layer, moves, flat, desc in PER_LAYER:
        lines.append(f"  {name:<30} [{unit}] layer {layer}, {better} is "
                     f"better; moves {moves}; no change on {flat}: {desc}")
    return "\n".join(lines)
