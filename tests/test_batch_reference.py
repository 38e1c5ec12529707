"""batch-verify against its per-instance loop.

``run_batch_verify`` solves one instance at a time, then evaluates the
identity layer per chunk on float64 columns of the interior solutions.
``loop_batch_verify`` below is its earlier form: ``build_report``, then
``_check_residuals``, then the max/failure merge, one instance at a time,
all through the scalar API.  The two must return equal ``BatchSummary``
records: the same counts, the same maxima, and the same failures and
errors, values and text, in the same order.
"""

import numpy as np
import pytest

from tetrafermat import (
    FermatSolution,
    TetrafermatError,
    Tetrahedron,
    direction_config,
    sampling,
    verify_fundamental_property,
)
from tetrafermat import batch
from tetrafermat.batch import (
    CHUNK,
    BatchSummary,
    SolutionReport,
    _check_residuals,
    build_report,
    run_batch_verify,
)
from tetrafermat.errors import NonConvergence
from tetrafermat.properties import DEFAULT_TOL
from tetrafermat.solver import INTERIOR, MAX_ITER


def loop_batch_verify(seed, count, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    max_residuals = {}
    failures = []
    errors = []
    interior = vertex = 0
    for i in range(count):
        tetra = sampling.random_tetrahedron(seed, i)
        try:
            report = build_report(tetra, tol, max_iter)
        except NonConvergence as exc:
            errors.append((i, f"no convergence (residual {exc.residual:.3e})"))
            continue
        try:
            residuals = _check_residuals(report)
        except TetrafermatError as exc:
            errors.append((i, f"formula cross-check failed: {exc}"))
            continue
        if report.solution.kind == INTERIOR:
            interior += 1
        else:
            vertex += 1
        for name, value in residuals.items():
            if name not in max_residuals or value > max_residuals[name]:
                max_residuals[name] = value
            if not value <= tol:
                failures.append((i, name, value))
    return BatchSummary(
        seed=seed,
        count=count,
        tol=tol,
        interior_count=interior,
        vertex_count=vertex,
        max_residuals=max_residuals,
        failures=failures,
        errors=errors,
        passed=not failures and not errors,
    )


def assert_same(seed, count, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    got = run_batch_verify(seed, count, tol, max_iter)
    want = loop_batch_verify(seed, count, tol, max_iter)
    assert got == want
    assert got.format_text() == want.format_text()
    return got


@pytest.mark.parametrize("seed", range(4))
def test_corpora(seed):
    assert assert_same(seed, 1000).passed


def test_failures_at_a_tight_tolerance():
    # hundreds of failures, so their order and values are compared too
    summary = assert_same(0, 300, tol=1e-15)
    assert len(summary.failures) > 300


@pytest.mark.parametrize("max_iter", [1, 2])
def test_nonconvergence_interleaved(max_iter):
    summary = assert_same(0, 300, max_iter=max_iter)
    assert 0 < len(summary.errors) < 300
    assert summary.interior_count + summary.vertex_count > 0


def test_count_spanning_three_chunks():
    count = 2 * CHUNK + 452
    assert assert_same(1, count).count == count


def right_corner():
    return Tetrahedron(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]]))


def midpoint_solution(tetra, j=2):
    """An interior solution record at the midpoint of edge A1Aj, where legs
    1 and j are antiparallel."""
    point = 0.5 * (tetra.vertex(1) + tetra.vertex(j))
    return FermatSolution(INTERIOR, point, None, 0.0, 0, 0.0, (2.0,) * 4)


def test_base_angle_of_pi_is_a_typed_error():
    # on the right corner the legs to A1 and A2 from the midpoint are exactly
    # -x and +x, so the measured a102 is pi, outside FiveAngles' range
    t = right_corner()
    sol = midpoint_solution(t)
    frame = direction_config(t, sol.point)
    report = SolutionReport(sol, frame, verify_fundamental_property(frame))
    assert report.property_report.angles.a102 == np.pi
    with pytest.raises(TetrafermatError, match="a102 must lie strictly between"):
        _check_residuals(report)


def test_rows_failing_a_check_take_the_scalar_path(monkeypatch):
    # instance 3 becomes the right corner, and three instances are solved to
    # an edge midpoint: a102 of pi (3), a base angle too close to pi (6) and
    # a degenerate bisector pair (8, a flag and a NaN residual); the columns
    # leave all three to the scalar API, which records the first two as
    # errors and measures the third
    draw = sampling.random_tetrahedron

    def random_tetrahedron(seed, index):
        return right_corner() if index == 3 else draw(seed, index)

    edge = {right_corner(): 2, draw(0, 6): 2, draw(0, 8): 4}
    solve = batch.solve

    def fake_solve(tetra, max_iter=MAX_ITER):
        if tetra in edge:
            return midpoint_solution(tetra, edge[tetra])
        return solve(tetra, max_iter)

    monkeypatch.setattr(sampling, "random_tetrahedron", random_tetrahedron)
    monkeypatch.setattr(batch, "solve", fake_solve)
    summary = assert_same(0, 12)
    (i3, text3), (i6, text6) = summary.errors
    assert (i3, i6) == (3, 6)
    assert "a102 must lie strictly between 0 and pi" in text3
    assert "too small for the substituted formula" in text6
    report = build_report(draw(0, 8), DEFAULT_TOL)
    assert report.property_report.flags == ("degenerate_bisector_203_104",)
    assert 8 in {i for i, _, _ in summary.failures}
