"""Self-test of the benchmark, fast enough to run before every measurement.

    PYTHONPATH=src python -m pytest perfbench -q

Every workload at a tiny count must report exactly the metrics
BENCHMARK.json names, and the correctness gate must reject perturbed
answers.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from tetrafermat import Tetrahedron, solve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--count", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def test_no_result_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cube-scalar", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_accepts_solutions_and_rejects_perturbed_points(right_corner_vertices):
    t = Tetrahedron(right_corner_vertices)
    sol = solve(t)
    assert sol.kind == "interior"
    assert workloads.gate(t.vertices, sol) is None
    moved = dataclasses.replace(sol, point=sol.point + 1e-7)
    assert "interior residual" in workloads.gate(t.vertices, moved)

    # the apex of a flat pyramid is optimal; any other vertex is not
    flat = Tetrahedron(np.array([[0, 0, 0.1], [1, 0, 0], [-0.5, 0.87, 0], [-0.5, -0.87, 0]]))
    vsol = solve(flat)
    assert vsol.kind == "vertex" and workloads.gate(flat.vertices, vsol) is None
    other = dataclasses.replace(vsol, vertex_index=2, point=flat.vertices[1].copy())
    assert "pull norm" in workloads.gate(flat.vertices, other)


def test_gate_miss_counts_as_failed_and_wrong(right_corner_vertices):
    w = workloads.make_workload("cube-scalar", 0)
    tally = workloads.Tally(w)
    out = workloads.verify_path(Tetrahedron(right_corner_vertices), workloads.untraced)
    tally.outcomes(0, [out])
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, [])
    out.solution = dataclasses.replace(out.solution, point=out.solution.point + 1e-7)
    tally.outcomes(1, [out])
    assert (tally.attempted, tally.failed, len(tally.wrong)) == (2, 1, 1)


def test_each_instance_counts_once_over_passes(right_corner_vertices):
    w = workloads.make_workload("cube-scalar", 0)
    tally = workloads.Tally(w)
    ok = workloads.verify_path(Tetrahedron(right_corner_vertices), workloads.untraced)
    bad = workloads.verify_path(Tetrahedron(right_corner_vertices), workloads.untraced)
    bad.error = "NonConvergence: budget spent"
    for _ in range(3):
        tally.outcomes(0, [ok])
        tally.outcomes(1, [bad])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, [])
    tally.outcomes(1, [ok])
    assert (tally.attempted, tally.failed, len(tally.wrong)) == (2, 1, 1)


def test_near_tie_inputs_cover_each_decade():
    for i in range(6):
        v = workloads.near_tie_vertices(0, i)
        gap = workloads.pull_norms(v).min() - 1.0
        lo = workloads.NEAR_TIE_DECADES[i % 3]
        assert 10.0 ** lo <= gap * (1 + 1e-6) and gap <= 10.0 ** (lo + 1) * (1 + 1e-6)


@pytest.fixture
def right_corner_vertices():
    return np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
