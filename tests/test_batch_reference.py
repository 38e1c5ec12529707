"""batch-verify against its per-instance loop.

``run_batch_verify`` takes two paths per chunk.  ``solve_columns`` settles
the vertex instances and gives every interior one ``newton``'s outcome on
float64 columns in lockstep, and the identity checks run on columns of
the solutions.  Every other instance (one the columns left, one whose
Newton iteration ended MAXITER, or one that fails a column check) takes
the body of ``loop_batch_verify`` below, in instance order:
``build_report`` (with the column outcome when there is one), then
``_check_residuals``.  ``loop_batch_verify`` is batch-verify's earlier
form, that body and the max/failure merge one instance at a time, all
through the scalar API.  The two must return equal ``BatchSummary``
records: the same counts, the same maxima, and the same failures and
errors, values and text, in the same order.
"""

import dataclasses
import math

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
from tetrafermat import batch, kernels, solver
from tetrafermat.batch import (
    CHUNK,
    INTERIOR_CHECKS,
    BatchSummary,
    SolutionReport,
    _check_residuals,
    build_report,
    run_batch_verify,
)
from tetrafermat.errors import NonConvergence
from tetrafermat.geometry import frame_columns
from tetrafermat.properties import DEFAULT_TOL
from tetrafermat.solver import (
    INTERIOR, MAX_ITER, VERTEX, classify, solve, solve_columns,
)

from corpora import MIRROR_TIE, known_answer_tetrahedron

#: unit-cube instances whose full Newton step is rejected on the way to the
#: minimizer: they leave the lockstep, and newton's retry on floats
#: converges inside the column solve
REJECTED_FULL_STEP = ((2, 156), (2, 772), (3, 288), (3, 492), (4, 13))


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


def exact(summary):
    """The summary with each residual as its ``float.hex``: equal records
    compare equal also with a NaN residual, and a -0.0 differs from 0.0."""
    return dataclasses.replace(
        summary,
        max_residuals={k: float.hex(v) for k, v in summary.max_residuals.items()},
        failures=[(i, name, float.hex(v)) for i, name, v in summary.failures],
    )


def assert_same(seed, count, tol=DEFAULT_TOL, max_iter=MAX_ITER):
    got = run_batch_verify(seed, count, tol, max_iter)
    want = loop_batch_verify(seed, count, tol, max_iter)
    assert exact(got) == exact(want)
    assert got.format_text() == want.format_text()
    return got


@pytest.mark.parametrize("seed", range(4))
def test_corpora(seed):
    assert assert_same(seed, 1000).passed


def test_failures_at_a_tight_tolerance():
    # hundreds of failures, so their order and values are compared too
    summary = assert_same(0, 300, tol=1e-15)
    assert len(summary.failures) > 300


def test_failures_across_three_chunks():
    # each chunk's failures are offset by its start and listed after the
    # previous chunk's
    summary = assert_same(1, 2 * CHUNK + 452, tol=1e-15)
    assert {i // CHUNK for i, _, _ in summary.failures} == {0, 1, 2}


@pytest.mark.parametrize("max_iter", [1, 2, 4])
def test_nonconvergence_interleaved(max_iter):
    summary = assert_same(0, 300, max_iter=max_iter)
    assert 0 < len(summary.errors) < 300
    assert summary.interior_count + summary.vertex_count > 0


def test_count_spanning_three_chunks():
    count = 2 * CHUNK + 452
    assert assert_same(1, count).count == count


def test_two_word_seed():
    # the chunk's column draw reads a seed of 2**32 as two uint32 words
    assert assert_same(2**32, 300).passed


def test_empty_corpus_raises():
    # no verdict on no instances, as the command line's --count 0
    with pytest.raises(ValueError, match="count must be at least 1"):
        run_batch_verify(0, 0)


def test_negative_count_or_seed_raises():
    with pytest.raises(ValueError, match="count must be non-negative, got -3"):
        run_batch_verify(0, -3)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_batch_verify(-1, 0)


def columns(tetras, max_iter=MAX_ITER):
    """``solve_columns`` on the tetrahedra's vertices, framed on columns."""
    frame, scale, m, rejected = frame_columns(np.array([t.vertices for t in tetras]))
    assert not rejected.any()
    return solve_columns(frame, scale, m, max_iter)


def solved_bytes(chunk):
    """Every field of a ``ColumnSolutions``, as dtype, shape and bytes."""
    return [
        (a.dtype.str, a.shape, a.tobytes())
        for a in (getattr(chunk, f.name) for f in dataclasses.fields(chunk))
    ]


def without(chunk, drop):
    """``chunk`` without the solved rows where ``drop`` is true, which
    batch-verify then hands to the per-instance solve."""
    keep = ~np.array(drop, dtype=bool)
    return dataclasses.replace(
        chunk,
        rows=chunk.rows[keep],
        point=chunk.point[:, keep],
        residual=chunk.residual[keep],
        iterations=chunk.iterations[keep],
        objective=chunk.objective[keep],
        pull_norms=chunk.pull_norms[:, keep],
        status=chunk.status[keep],
    )


def assert_solve_outcome(chunk, j, tetra, max_iter=MAX_ITER):
    """Column j of ``chunk`` gives ``solve``'s outcome on ``tetra``: its
    record, or a NonConvergence with the same point, residual and
    iterations, bit for bit.  Returns whether it ended MAXITER."""
    if chunk.status[j] != kernels.MAXITER:
        assert chunk.solution(j) == solve(tetra, max_iter)
        return False
    with pytest.raises(NonConvergence) as got:
        chunk.solution(j)
    with pytest.raises(NonConvergence) as want:
        solve(tetra, max_iter)
    assert got.value.point.tobytes() == want.value.point.tobytes()
    assert float.hex(got.value.residual) == float.hex(want.value.residual)
    assert got.value.iterations == want.value.iterations
    return True


@pytest.mark.parametrize("seed", range(4))
def test_column_solutions_are_solves(seed):
    tetras = [sampling.random_tetrahedron(seed, i) for i in range(1000)]
    chunk = columns(tetras)
    for j, i in enumerate(chunk.rows.tolist()):
        assert chunk.solution(j) == solve(tetras[i])
    for i, residual in zip(chunk.vertex_rows.tolist(), chunk.vertex_residual.tolist()):
        solution = solve(tetras[i])
        assert solution.kind == VERTEX
        assert residual == solution.residual
    kinds = {i: classify(t).kind for i, t in enumerate(tetras)}
    interior = {i for i, kind in kinds.items() if kind == INTERIOR}
    # no interior row is left to solve: the rejected full steps finish on
    # floats inside the column solve, and their solutions are solve's too
    assert set(chunk.rows.tolist()) == interior
    assert {i for s, i in REJECTED_FULL_STEP if s == seed} <= interior
    assert set(chunk.vertex_rows.tolist()) == set(kinds) - interior


def test_least_pull_norm_ties_start_off_the_first(monkeypatch):
    # both drivers start off the first vertex tied at the least pull norm:
    # vertex 3 of the mirror tie, vertex 1 of the regular tetrahedron
    tetras = [
        Tetrahedron(np.array(v, dtype=float))
        for v in (MIRROR_TIE, [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    ]
    mirror, regular = (classify(t).pull_norms for t in tetras)
    assert mirror[2] == mirror[3] < min(mirror[:2])
    assert regular == (2.449489742783178,) * 4
    starts = []
    ray_start = kernels.ray_start

    def watched(v, others, xp):
        starts.append(np.array(v).T.tolist())
        return ray_start(v, others, xp)

    monkeypatch.setattr(kernels, "ray_start", watched)
    solutions = [solve(t) for t in tetras]
    chunk = columns(tetras)
    assert chunk.rows.tolist() == [0, 1]
    assert [chunk.solution(j) for j in range(2)] == solutions
    first = [list(tetras[0].frame[2]), list(tetras[1].frame[0])]
    assert starts == first + [first]


def test_chunk_with_no_interior_row():
    chunk = columns([sampling.random_tetrahedron(0, 4), boundary_tie()])
    assert chunk.rows.size == 0 and chunk.point.shape == (3, 0)
    assert chunk.vertex_rows.tolist() == [0, 1]


@pytest.mark.parametrize("seed", range(4))
def test_tetrahedra_only_on_the_scalar_path(seed, monkeypatch):
    # a chunk is validated and framed on columns, and its vertex rows are
    # settled there: a Tetrahedron is built, once, only for a row left to
    # solve or one that fails an identity check; on these corpora no row
    # is left (the rejected full steps finish on floats in the column
    # solve) and none fails, so the first two and the last column rows
    # are made to fail one
    tetras = [sampling.random_tetrahedron(seed, i) for i in range(1000)]
    solved = columns(tetras).rows.tolist()
    failing = {solved[0], solved[1], solved[-1]}
    expected = run_batch_verify(seed, 1000)
    column_residuals = batch._column_residuals

    def fail_three(point, m, frame):
        checks, failed = column_residuals(point, m, frame)
        failed[[0, 1, -1]] = True
        return checks, failed

    built = []
    post_init = Tetrahedron.__post_init__

    def counted(self):
        built.append(self.vertices.tobytes())
        post_init(self)

    monkeypatch.setattr(batch, "_column_residuals", fail_three)
    monkeypatch.setattr(Tetrahedron, "__post_init__", counted)
    assert run_batch_verify(seed, 1000) == expected
    assert len(built) == len(failing)
    assert sorted(built) == sorted(tetras[i].vertices.tobytes() for i in failing)


@pytest.mark.parametrize("seed", [2, 3])
def test_column_rows_and_left_rows_take_one_path_each(seed, monkeypatch):
    # the identity columns see exactly the rows solve_columns solved, the
    # rejected full steps among them, and no row reaches the per-instance
    # path; with a budget of 4 every interior row is a column row too: each
    # one that ends MAXITER takes the per-instance path with its column
    # outcome and ends in solve's NonConvergence text, and no row reaches
    # solve or _check_residuals
    tetras = [sampling.random_tetrahedron(seed, i) for i in range(1000)]
    interior = {i for i, t in enumerate(tetras) if classify(t).kind == INTERIOR}
    column_residuals = batch._column_residuals
    check_residuals = batch._check_residuals
    scalar_solve = batch.solve
    seen = []
    reached = []
    solved = []

    def watched_columns(point, m, frame):
        seen.append(point.copy())
        return column_residuals(point, m, frame)

    def watched_check(report):
        reached.append(report.solution.point.tobytes())
        return check_residuals(report)

    def watched_solve(tetra, max_iter=MAX_ITER):
        solved.append(tetra.vertices.tobytes())
        return scalar_solve(tetra, max_iter)

    monkeypatch.setattr(batch, "_column_residuals", watched_columns)
    monkeypatch.setattr(batch, "_check_residuals", watched_check)
    monkeypatch.setattr(batch, "solve", watched_solve)
    chunk = columns(tetras)
    assert {i for s, i in REJECTED_FULL_STEP if s == seed} <= set(chunk.rows.tolist())
    assert run_batch_verify(seed, 1000).passed
    (point,) = seen
    assert point.tobytes() == chunk.point.tobytes()
    assert reached == solved == []
    seen.clear()
    chunk = columns(tetras, max_iter=4)
    assert set(chunk.rows.tolist()) == interior
    stalled = chunk.rows[chunk.status == kernels.MAXITER].tolist()
    assert stalled
    summary = run_batch_verify(seed, 1000, max_iter=4)
    (point,) = seen
    assert point.tobytes() == chunk.point.tobytes()
    texts = []
    for i in stalled:
        with pytest.raises(NonConvergence) as exc:
            solve(tetras[i], 4)
        texts.append((i, f"no convergence (residual {exc.value.residual:.3e})"))
    assert summary.errors == texts
    assert reached == solved == []


def test_nan_and_inf_residuals_on_the_scalar_path(monkeypatch):
    # the columns leave every row to _check_residuals, which is made to
    # return a NaN or an inf on some: a NaN first value of a check is its
    # maximum, a NaN later replaces nothing, also when it opens the second
    # chunk, and both fail, as in the reference loop
    count = CHUNK + 100
    tetras = [sampling.random_tetrahedron(0, i) for i in range(count)]
    interior = [i for i, t in enumerate(tetras) if classify(t).kind == INTERIOR]
    first, later = interior[0], interior[5]
    second_chunk = [i for i in interior if i >= CHUNK]
    opening, further = second_chunk[0], second_chunk[5]
    forced = {
        first: {"sixth_angle_identity": math.nan},
        later: {"cosine_sum": math.inf, "opposite_angles": math.nan},
        opening: {"substitution_residual": math.nan},
        further: {"substitution_residual": 1.0},
    }
    points = {solve(tetras[i]).point.tobytes(): i for i in forced}
    check_residuals = batch._check_residuals

    def forced_residuals(report):
        residuals = check_residuals(report)
        i = points.get(report.solution.point.tobytes())
        return residuals if i is None else {**residuals, **forced[i]}

    column_residuals = batch._column_residuals

    def fail_all(point, m, frame):
        checks, failed = column_residuals(point, m, frame)
        return checks, failed | True

    monkeypatch.setattr(batch, "_check_residuals", forced_residuals)
    monkeypatch.setattr(batch, "_column_residuals", fail_all)
    monkeypatch.setitem(globals(), "_check_residuals", forced_residuals)
    summary = assert_same(0, count)
    assert math.isnan(summary.max_residuals["sixth_angle_identity"])
    assert summary.max_residuals["cosine_sum"] == math.inf
    assert summary.max_residuals["substitution_residual"] == 1.0
    assert [(i, name) for i, name, _ in summary.failures] == [
        (first, "sixth_angle_identity"),
        (later, "opposite_angles"),
        (later, "cosine_sum"),
        (opening, "substitution_residual"),
        (further, "substitution_residual"),
    ]


def boundary_tie():
    """Apex height r/sqrt(8) over an equilateral base of circumradius r: the
    apex pull norm is 1 within rounding, a vertex solution flagged
    boundary_tie."""
    h = 1.0 / math.sqrt(8.0)
    return Tetrahedron(np.array([
        [1.0, 0.0, 0.0],
        [-0.5, math.sqrt(3.0) / 2.0, 0.0],
        [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
        [0.0, 0.0, h],
    ]))


def stacked(draw):
    """A chunk's column draw made of ``draw(seed, i)`` per instance."""
    return lambda seed, indices: np.array([draw(seed, i) for i in indices])


def leaving_corpus():
    """Known-answer tetrahedra, some stalled at their rounding floor until
    the budget runs out (NonConvergence; one of them, 38, alternates
    vertex escapes and steps), the rejected full steps (5-9) and the
    boundary tie (11), interleaved with unit-cube instances."""
    corpus = []
    for k in range(24):
        corpus += [known_answer_tetrahedron(0, k)[0], sampling.random_tetrahedron(0, k)]
    corpus[5:5] = [sampling.random_tetrahedron(s, i) for s, i in REJECTED_FULL_STEP]
    corpus.insert(11, boundary_tie())
    return corpus


def test_rows_leaving_the_columns(monkeypatch):
    # the rows that leave the lockstep: the rejected full steps finish on
    # floats inside the column solve, with solve's solutions, the stalled
    # rows, escapes included, end MAXITER there with solve's
    # NonConvergence, and only the vertex rows lie outside the column rows
    corpus = leaving_corpus()
    assert solve(corpus[11]).flags == ("boundary_tie",)
    # the reference loop draws through random_vertices, a chunk through
    # random_vertex_columns: both read the corpus
    def draw(seed, i):
        return corpus[i].vertices

    monkeypatch.setattr(sampling, "random_vertices", draw)
    monkeypatch.setattr(sampling, "random_vertex_columns", stacked(draw))
    summary = assert_same(0, len(corpus))
    errors = {i for i, text in summary.errors if "no convergence" in text}
    assert 38 in errors and len(errors) == len(summary.errors)
    chunk = columns(corpus)
    rows = chunk.rows.tolist()
    stalled = {i for j, i in enumerate(rows) if assert_solve_outcome(chunk, j, corpus[i])}
    assert stalled == errors
    assert {5, 6, 7, 8, 9} <= set(rows) - stalled
    assert 11 in chunk.vertex_rows.tolist()
    left = set(range(len(corpus))) - set(rows)
    assert left == set(chunk.vertex_rows.tolist())
    assert len(left) == summary.vertex_count
    assert len(rows) == summary.interior_count + len(summary.errors)


@pytest.mark.parametrize("tail", [solver.FLOAT_TAIL, 0])
def test_column_outcomes_are_solves_at_budget_100(tail, monkeypatch):
    # about a fifth of these known-answer rows stall at their rounding
    # floor and spend the whole budget, on floats after the sweeps hold at
    # most FLOAT_TAIL rows, or in lockstep to the end (0); every interior
    # row gives solve's outcome either way
    monkeypatch.setattr(solver, "FLOAT_TAIL", tail)
    tetras = [known_answer_tetrahedron(0, k)[0] for k in range(100)]
    chunk = columns(tetras, max_iter=100)
    interior = {i for i, t in enumerate(tetras) if classify(t).kind == INTERIOR}
    assert set(chunk.rows.tolist()) == interior
    stalled = [
        assert_solve_outcome(chunk, j, tetras[i], 100)
        for j, i in enumerate(chunk.rows.tolist())
    ]
    assert any(stalled) and not all(stalled)


@pytest.mark.parametrize("corpus", ["seed0", "seed1", "leaving"])
def test_handoff_leaves_column_solutions_unchanged(corpus, monkeypatch):
    # the lockstep hands its last rows to newton on floats once a sweep
    # would hold at most FLOAT_TAIL of them: with none handed over early
    # (0), or every row on floats from its start (CHUNK), the solutions
    # are byte for byte the same
    if corpus == "leaving":
        tetras = leaving_corpus()
    else:
        tetras = [sampling.random_tetrahedron(int(corpus[-1]), i) for i in range(1000)]
    want = solved_bytes(columns(tetras))
    for tail in (0, CHUNK):
        monkeypatch.setattr(solver, "FLOAT_TAIL", tail)
        assert solved_bytes(columns(tetras)) == want


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
    vertices = sampling.random_vertices

    def random_vertices(seed, index):
        return right_corner().vertices if index == 3 else vertices(seed, index)

    edge = {right_corner(): 2, draw(0, 6): 2, draw(0, 8): 4}
    solve = batch.solve
    solve_columns = batch.solve_columns

    def fake_solve(tetra, max_iter=MAX_ITER):
        if tetra in edge:
            return midpoint_solution(tetra, edge[tetra])
        return solve(tetra, max_iter)

    def fake_solve_columns(frame, scale, to_frame, max_iter=MAX_ITER):
        # the three take the per-instance solve, which answers the midpoint
        chunk = solve_columns(frame, scale, to_frame, max_iter)
        return without(chunk, [i in (3, 6, 8) for i in chunk.rows.tolist()])

    monkeypatch.setattr(sampling, "random_vertices", random_vertices)
    monkeypatch.setattr(sampling, "random_vertex_columns", stacked(random_vertices))
    monkeypatch.setattr(batch, "solve", fake_solve)
    monkeypatch.setattr(batch, "solve_columns", fake_solve_columns)
    summary = assert_same(0, 12)
    (i3, text3), (i6, text6) = summary.errors
    assert (i3, i6) == (3, 6)
    assert "a102 must lie strictly between 0 and pi" in text3
    assert "too small for the substituted formula" in text6
    report = build_report(draw(0, 8), DEFAULT_TOL)
    assert report.property_report.flags == ("degenerate_bisector_203_104",)
    assert 8 in {i for i, _, _ in summary.failures}


def scalar_checks(report):
    """``_check_residuals`` of an interior report after ``solve_residual``,
    as ``float.hex``."""
    residuals = _check_residuals(report)
    return [float.hex(residuals[name]) for name in INTERIOR_CHECKS[1:]]


def column_checks(tetras, point):
    """``_column_residuals`` of the tetrahedra's solutions at the (3, k)
    ``point``: each instance's checks as ``float.hex``, and the mask of the
    instances that fail one."""
    frame, _, m, _ = frame_columns(np.array([t.vertices for t in tetras]))
    checks, failed = batch._column_residuals(point, m, frame)
    return [list(map(float.hex, c)) for c in checks.T.tolist()], failed.tolist()


def test_degenerate_bisector_stays_on_the_columns():
    # from the origin u3 = -u4, so the pair 102_304 has a short bisector
    # and every other check passes: the row stays on the columns, with the
    # value the scalar API gives it, the largest over the other two pairs
    h = math.sqrt(3.0) / 2.0
    t = Tetrahedron(np.array([[1.0, 0, 0], [-0.5, h, 0], [0, 0, 1.0], [0, 0, -1.0]]))
    sol = FermatSolution(INTERIOR, np.zeros(3), None, 0.0, 0, 0.0, (2.0,) * 4)
    frame = direction_config(t, sol.point)
    report = SolutionReport(sol, frame, verify_fundamental_property(frame))
    assert report.property_report.flags == ("degenerate_bisector_102_304",)
    (got,), failed = column_checks([t], np.zeros((3, 1)))
    assert failed == [False]
    assert got == scalar_checks(report)


@pytest.mark.parametrize("seed", range(4))
def test_column_checks_are_the_scalar_checks(seed):
    # every row the identity columns pass holds, check by check, the value
    # _check_residuals gives build_report's record, bit for bit
    tetras = [sampling.random_tetrahedron(seed, i) for i in range(1000)]
    chunk = columns(tetras)
    solved = [tetras[i] for i in chunk.rows.tolist()]
    got, failed = column_checks(solved, chunk.point)
    passed = [(t, checks) for t, checks, f in zip(solved, got, failed) if not f]
    assert len(passed) > 800
    for t, checks in passed:
        assert checks == scalar_checks(build_report(t, DEFAULT_TOL))
