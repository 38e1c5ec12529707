"""Acceptance suite: one test per criterion, one printed line per criterion.

The corpus criteria share a single solved seed-0, 1000-instance corpus via a
session fixture.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines as they pass.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tetrafermat import (
    DirectionConfig,
    FiveAngles,
    InfeasiblePair,
    Tetrahedron,
    angle_sextuple,
    classify,
    config_from_five_angles,
    direction_config,
    ft_substitution_residual,
    hull_points,
    objective,
    oracle_solve,
    resolve_branch,
    sixth_angle,
    solve,
    verify_fundamental_property,
)
from tetrafermat.batch import run_batch_verify
from tetrafermat.sampling import random_tetrahedron

from corpora import (
    balanced_quadruple,
    random_five_angles,
    random_unit_quadruple,
)

SEED = 0
COUNT = 1000
ARCCOS_THIRD = math.acos(-1.0 / 3.0)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@dataclass
class SolvedInstance:
    tetra: Tetrahedron
    solution: object
    config: object = None
    sextuple: object = None


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    out = []
    for i in range(COUNT):
        t = random_tetrahedron(SEED, i)
        sol = solve(t)
        inst = SolvedInstance(tetra=t, solution=sol)
        if sol.kind == "interior":
            inst.config = direction_config(t, sol.point)
            inst.sextuple = angle_sextuple(inst.config)
        out.append(inst)
    return out, time.perf_counter() - t0


def test_criterion_1_regular_tetrahedron():
    t = Tetrahedron(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    )
    solve(t)  # warm path once; the timed runs follow
    elapsed = min(
        _timed(lambda: solve(t))[0] for _ in range(3)
    )
    sol = solve(t)
    s = angle_sextuple(direction_config(t, sol.point))
    pos_ok = sol.kind == "interior" and float(np.linalg.norm(sol.point)) <= 1e-8
    ang_err = max(abs(a - ARCCOS_THIRD) for a in s.as_tuple())
    obj_err = abs(sol.objective_value - 4.0 * math.sqrt(3.0))
    ok = pos_ok and ang_err <= 1e-8 and obj_err <= 1e-10 and elapsed < 0.010
    report(
        1,
        ok,
        f"interior at origin, angle err {ang_err:.2e}, objective err "
        f"{obj_err:.2e}, solve time {elapsed * 1e3:.2f} ms",
    )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_criterion_2_opposite_angle_and_cosine_sum_identities(corpus):
    instances, solve_time = corpus
    t0 = time.perf_counter()
    worst_opp = worst_sum = 0.0
    interior = 0
    for inst in instances:
        if inst.solution.kind != "interior":
            continue
        interior += 1
        s = inst.sextuple
        worst_opp = max(
            worst_opp,
            abs(math.cos(s.a102) - math.cos(s.a304)),
            abs(math.cos(s.a203) - math.cos(s.a104)),
            abs(math.cos(s.a103) - math.cos(s.a204)),
        )
        worst_sum = max(
            worst_sum,
            abs(1 + math.cos(s.a102) + math.cos(s.a103) + math.cos(s.a104)),
        )
    elapsed = solve_time + (time.perf_counter() - t0)
    ok = worst_opp <= 1e-6 and worst_sum <= 1e-6 and elapsed < 10.0
    report(
        2,
        ok,
        f"{interior} interior instances, max opposite-angle residual "
        f"{worst_opp:.2e}, max cosine-sum residual {worst_sum:.2e}, "
        f"solve+check time {elapsed:.2f} s",
    )


def test_criterion_3_bisector_orthogonality_and_antiparallelism(corpus):
    instances, _ = corpus
    worst_orth = worst_anti = 0.0
    for inst in instances:
        if inst.solution.kind != "interior":
            continue
        rep = verify_fundamental_property(inst.config, tol=1e-6)
        worst_orth = max(worst_orth, max(rep.bisector_dot_residuals))
        worst_anti = max(worst_anti, max(rep.antiparallel_residuals))
    ok = worst_orth <= 1e-6 and worst_anti <= 1e-6
    report(
        3,
        ok,
        f"max bisector dot {worst_orth:.2e}, max antiparallel residual "
        f"{worst_anti:.2e}",
    )


def test_criterion_4_oracle_equivalence(corpus):
    instances, _ = corpus
    worst_obj = worst_pos = 0.0
    vertex_checked = 0
    for i, inst in enumerate(instances):
        t = inst.tetra
        sol = inst.solution
        orc = oracle_solve(t, seed=i)
        worst_obj = max(
            worst_obj,
            abs(objective(t, orc) - sol.objective_value) / t.scale,
        )
        worst_pos = max(worst_pos, float(np.linalg.norm(orc - sol.point)))
        if sol.kind == "vertex":
            rng = np.random.default_rng([SEED, i, 97])
            probes = hull_points(t, 10_000, rng)
            dists = np.linalg.norm(
                probes[:, None, :] - np.asarray(t.vertices)[None, :, :], axis=2
            )
            best_probe = float(dists.sum(axis=1).min())
            assert sol.objective_value <= best_probe + 1e-9 * t.scale
            vertex_checked += 1
    ok = worst_obj <= 1e-7 and worst_pos <= 1e-5
    report(
        4,
        ok,
        f"max objective gap {worst_obj:.2e} (relative to scale), max "
        f"position gap {worst_pos:.2e}, {vertex_checked} vertex instances "
        "beat their probe clouds",
    )


def test_criterion_5_sixth_angle_identity():
    worst = 0.0
    for i in range(500):
        for units in (balanced_quadruple(SEED, i), random_unit_quadruple(SEED, i)):
            cfg = DirectionConfig(units)
            s = angle_sextuple(cfg)
            fa = FiveAngles(s.a102, s.a103, s.a104, s.a203, s.a204)
            r = sixth_angle(fa)
            diff = r.branch_error(resolve_branch(cfg), math.cos(s.a304))
            worst = max(worst, diff)
    regular = sixth_angle(FiveAngles(*(ARCCOS_THIRD,) * 5))
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
    branch = resolve_branch(DirectionConfig(v / math.sqrt(3.0)))
    regular_err = abs(regular.cos_minus + 1.0 / 3.0)
    ok = worst <= 1e-8 and branch == -1 and regular_err <= 1e-12
    report(
        5,
        ok,
        f"max identity residual over 1000 quadruples {worst:.2e}, regular "
        f"inputs select branch {branch:+d} with cos error {regular_err:.2e}",
    )


def test_criterion_6_substitution_residual(corpus):
    instances, _ = corpus
    worst = 0.0
    interior = 0
    for inst in instances:
        if inst.solution.kind != "interior":
            continue
        interior += 1
        s = inst.sextuple
        worst = max(worst, ft_substitution_residual(s.a102, s.a203))
    with pytest.raises(InfeasiblePair):
        ft_substitution_residual(math.pi / 2, math.pi / 2)
    ok = worst < 1e-6
    report(
        6,
        ok,
        f"max substitution residual over {interior} interior instances "
        f"{worst:.2e}; right-angle pair raises InfeasiblePair",
    )


def test_criterion_7_five_angle_round_trip():
    worst = 0.0
    for i in range(1000):
        fa, branch, _ = random_five_angles(SEED, i)
        rebuilt = angle_sextuple(config_from_five_angles(fa, branch))
        worst = max(
            worst,
            abs(rebuilt.a102 - fa.a102),
            abs(rebuilt.a103 - fa.a103),
            abs(rebuilt.a104 - fa.a104),
            abs(rebuilt.a203 - fa.a203),
            abs(rebuilt.a204 - fa.a204),
        )
    ok = worst <= 1e-9
    report(7, ok, f"max angle reconstruction error over 1000 draws {worst:.2e}")


def test_criterion_8_batch_verify_reproducible():
    t0 = time.perf_counter()
    first = run_batch_verify(seed=SEED, count=COUNT, tol=1e-6)
    t1 = time.perf_counter() - t0
    second = run_batch_verify(seed=SEED, count=COUNT, tol=1e-6)
    identical = first.format_text() == second.format_text()
    ok = first.passed and identical and t1 < 60.0
    report(
        8,
        ok,
        f"batch-verify over {COUNT} instances in {t1:.1f} s, pass="
        f"{first.passed}, bit-identical reruns={identical}",
    )


@pytest.mark.parametrize("seed", range(1, 8))
def test_batch_verify_passes_on_other_seeds(seed):
    # a smaller standing corpus per seed beside the seed-0 one above; seed 7
    # holds a near-vertex interior input (#187) that once exhausted the
    # solver's budget
    summary = run_batch_verify(seed=seed, count=200, tol=1e-6)
    assert summary.passed, summary.format_text()


#: ``run_batch_verify(0, 300).format_text()``, recorded once: criterion 8
#: only checks that a rerun matches itself, this catches a rounding change
#: at the last printed digit
BATCH_0_300_TEXT = """\
batch-verify seed=0 count=300 tol=1.000e-06 grad_tol=1.000e-10
instances: 272 interior, 28 vertex
max residual per check:
  solve_residual           9.831736e-11
  vertex_optimality        0.000000e+00
  opposite_angles          1.264724e-10
  cosine_sum               7.490672e-11
  bisector_orthogonality   7.286571e-11
  bisector_antiparallel    4.440892e-16
  sixth_angle_identity     3.264056e-14
  substitution_residual    3.863576e-14
result: PASS"""

#: ``run_batch_verify(2, 1000).format_text()``, recorded once: seed 2 holds
#: rows whose full Newton step is rejected, which leave the column solve for
#: the per-instance path (seed 0 has none)
BATCH_2_1000_TEXT = """\
batch-verify seed=2 count=1000 tol=1.000e-06 grad_tol=1.000e-10
instances: 933 interior, 67 vertex
max residual per check:
  solve_residual           9.940812e-11
  vertex_optimality        0.000000e+00
  opposite_angles          1.565984e-10
  cosine_sum               9.204337e-11
  bisector_orthogonality   8.554042e-11
  bisector_antiparallel    4.440892e-16
  sixth_angle_identity     1.156852e-13
  substitution_residual    2.577938e-13
result: PASS"""


@pytest.mark.parametrize("seed, count, text", [
    pytest.param(0, 300, BATCH_0_300_TEXT, id="seed0_300"),
    pytest.param(2, 1000, BATCH_2_1000_TEXT, id="seed2_1000"),
])
def test_batch_verify_text_pinned(seed, count, text):
    assert run_batch_verify(seed, count).format_text() == text
