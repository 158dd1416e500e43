#!/usr/bin/env python3
"""Repository benchmark: run one named workload from a seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list             # workloads and metrics, no run
    python3 perfbench/run.py --benchmark-json   # render BENCHMARK.json

The first run builds the library sources under src/ together with the
driver (perfbench/omenx_bench.cpp) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).  The driver checks the program's outputs
and measures; this script attaches units from registry.py and prints, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric with --trace 0, every per-layer metric
with --trace 1.  Traced runs also write their spans to
<build>/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True

import registry  # noqa: E402

RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO_ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build the driver; returns the binary path."""
    if not (REPO_ROOT / "src" / "omen" / "simulator.hpp").is_file():
        fail("library sources not found under src/", code=2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(out / "build.log", "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=REPO_ROOT).returncode != 0:
                fail(f"build failed, see {out / 'build.log'}")
    binary = out / "omenx_bench"
    if not binary.is_file():
        fail("build produced no omenx_bench binary")
    return binary


def run(args):
    names = [w[0] for w in registry.WORKLOADS]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(names)}",
             code=2)
    binary = build()
    traces = build_dir() / "traces"
    traces.mkdir(exist_ok=True)
    trace_file = traces / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), args.workload, str(args.seed), str(args.seconds),
           str(args.trace), str(trace_file)]
    # Idle OpenMP workers sleep instead of spinning, so the CPU time the
    # driver reports is work done, not waiting.
    env = dict(os.environ, OMP_WAIT_POLICY="PASSIVE")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=REPO_ROOT, env=env)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    measured = dict(raw["metrics"])
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted < 1:
        fail("driver attempted no operation")
    measured["failed_frac"] = failed / attempted

    units = {n: u for n, u, *_ in registry.END_TO_END}
    units.update({n: u for n, u, *_ in registry.PER_LAYER})
    declared = [m[0] for m in
                (registry.PER_LAYER if args.trace else registry.END_TO_END)]
    metrics = {}
    for name in declared:
        if name not in measured and not args.trace:
            fail(f"workload {args.workload} did not measure {name}")
        # Layers a workload does not reach report 0 (traced run only).
        value = float(measured.get(name, 0.0))
        if not math.isfinite(value):
            fail(f"metric {name} is not finite")
        metrics[name] = {"value": value, "unit": units[name]}

    print(f"seed {args.seed}, workload {args.workload}, "
          f"trace {args.trace}: failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.4g}, correct = {raw['correct']}")
    for name in sorted(measured):
        unit = units.get(name, "")
        tag = "" if name in metrics else " (context)"
        print(f"  {name} = {measured[name]:.6g} {unit}{tag}")
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true",
                   help="print every workload and metric, then exit")
    p.add_argument("--benchmark-json", action="store_true",
                   help="print the BENCHMARK.json this registry defines")
    args = p.parse_args()
    if args.list:
        print(registry.listing())
    elif args.benchmark_json:
        print(json.dumps(registry.benchmark_json(), indent=2))
    elif args.workload:
        run(args)
    else:
        p.error("--workload is required unless --list or --benchmark-json")


if __name__ == "__main__":
    main()
