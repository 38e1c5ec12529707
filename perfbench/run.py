#!/usr/bin/env python3
"""Benchmark for tetrafermat: one workload per invocation.

    python3 perfbench/run.py --workload cube-batch --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/`` (nothing is installed or built).  Each workload runs in a child
interpreter, single-threaded.  With ``--trace 0`` the last line of stdout is
the end-to-end result; with ``--trace 1`` it is the per-layer result.  The
line before it records the run's metadata: backend, versions, core count,
seed, input count, passes, failure share and, for near-tie, every failing
input.  Exits non-zero, printing no result, when the package source is
missing or a child fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
WORKLOADS = ("cube-batch", "cube-scalar", "near-tie", "oracle-crosscheck")
#: fresh interpreters timed for setup_s, before and after the measured
#: run so that they meet different phases of load on the machine; the
#: median of all of them is reported
SETUP_BEFORE, SETUP_AFTER = 4, 3
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150

UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # numpy's BLAS would otherwise start one thread per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict[str, str]) -> str:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return proc.stdout


def setup_times(workload: str, seed: int, env: dict[str, str], n: int):
    """Wall times, raw and scaled to reference speed (see calibrate.py), of
    ``n`` fresh interpreters that each import tetrafermat, build one input
    and run it once."""
    raw, scaled = [], []
    for _ in range(n):
        before = reference_time()
        t0 = time.perf_counter()
        run_child(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--setup-only"], env)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * REFERENCE_S / (0.5 * (before + reference_time())))
    return raw, scaled


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--count", type=int, help="inputs per pass (default: the workload's)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tetrafermat" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.count is not None:
        worker_args += ["--count", str(args.count)]
    if not args.trace:
        raw, scaled = setup_times(args.workload, args.seed, env, SETUP_BEFORE)
    record = json.loads(run_child(worker_args, env).splitlines()[-1])
    metrics = record.pop("metrics")
    if not args.trace:
        more_raw, more_scaled = setup_times(args.workload, args.seed, env, SETUP_AFTER)
        metrics["setup_s"] = statistics.median(scaled + more_scaled)
        record["unscaled"]["setup_s"] = statistics.median(raw + more_raw)
        record["setup_repeats"] = len(raw + more_raw)
    record["nproc"] = os.cpu_count()
    print(json.dumps(record))
    units = {name: UNITS.get(name) or _layer_unit(name) for name in metrics}
    print(json.dumps({
        "correct": not record["wrong"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
