"""Per-instance reports and seeded batch verification.

``build_report`` is the one per-instance pipeline: solve, take the unit
legs from the interior minimizer toward the vertices, measure the
junction-angle identities on them.  The ``solve`` and ``verify`` commands
print its ``SolutionReport``.  Batch-verify's interior checks, the
sixth-angle cross-check included, have one definition for both paths below,
``_interior_residuals`` of unit legs as floats or as columns.

``run_batch_verify`` checks a seeded corpus in chunks of ``CHUNK``
instances, by two paths.  A chunk's vertices are drawn on integer
columns, byte for byte the per-instance ``random_vertices`` draws
(``sampling.random_vertex_columns``), then validated and framed on float64
columns, one element per instance, by the kernel ``Tetrahedron`` runs on
floats (``geometry.frame_columns``).

- **Columns.** ``solver.solve_columns`` settles the chunk's vertex
  instances from their column pull norms and gives every interior
  instance ``kernels.newton``'s outcome, in lockstep Newton sweeps of
  full steps; each one that needs a safeguard, and the chunk's last few,
  finish on floats from the iterate where they stand.  The identity
  checks then run on columns of the interior solutions
  (``_column_residuals``): every solution and every residual is bit for
  bit the one ``_check_residuals`` gives ``build_report``'s record.
- **Per instance.** Every other row takes, in instance order, the body of
  a loop of ``build_report`` and ``_check_residuals``, less the
  ``PropertyReport`` the checks do not read: a row whose Newton
  iteration ended MAXITER (a budget run out, a non-positive ``det H`` or
  a step with no acceptable trial point) or that fails a column check
  keeps its column outcome, and a row ``solve_columns`` left (two winning
  vertices, a NaN pull norm) is solved by ``solve``.  Its ``Tetrahedron``
  is built then, once, so every error text and flag is the scalar one.

A chunk returns its residuals as columns, one row per check and one
column per instance, with the mask of the checks that apply to each
instance; ``run_batch_verify`` reduces them to each check's maximum and
failures, in the order a merge one instance at a time gives.  ``CHUNK``
bounds the columns' memory for any count.

A caller sets the verification tolerance and the solver's iteration
budget; the solver's stopping residual is the constant
``solver.GRAD_TOL``, which the batch-verify header prints.

Shared by the command line and the acceptance tests.  Output is
deterministic for a fixed seed: no wall-clock, no OS entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import NonConvergence, TetrafermatError
from .formula import formula_residuals
from .geometry import (
    DirectionConfig, Tetrahedron, direction_config, frame_columns, unit_legs,
    unit_rows,
)
from .kernels import MAXITER
from .ops import FLOATS, Columns
from .properties import (
    DEFAULT_TOL, PropertyReport, bisector_residuals, cosine_residuals,
    leg_cosines, verify_fundamental_property,
)
from .solver import (
    BOUNDARY_EPS, GRAD_TOL, INTERIOR, MAX_ITER, FermatSolution, solve,
    solve_columns,
)

#: check names in reporting order
CHECKS = (
    "solve_residual",
    "vertex_optimality",
    "opposite_angles",
    "cosine_sum",
    "bisector_orthogonality",
    "bisector_antiparallel",
    "sixth_angle_identity",
    "substitution_residual",
)
#: the checks of an interior instance, in the order ``_check_residuals``
#: returns them
INTERIOR_CHECKS = tuple(name for name in CHECKS if name != "vertex_optimality")
#: the rows of a chunk's residual array that hold the vertex check and the
#: interior checks
_VERTEX = CHECKS.index("vertex_optimality")
_INTERIOR = [CHECKS.index(name) for name in INTERIOR_CHECKS]
#: instances per chunk of ``run_batch_verify``: the solve and the identity
#: layer run on float64 columns of a chunk's instances, and a chunk's columns
#: are dropped before the next chunk is solved, so memory stays bounded for
#: any count while a column still spans enough rows to pay numpy's per-call
#: cost (a 1000-instance corpus is one chunk)
CHUNK = 1024


@dataclass(frozen=True, init=False)
class SolutionReport:
    """One tetrahedron's solution and, when it is interior, its unit legs
    (``frame``, as ``direction_config`` returns them) and the identity
    residuals measured on them; a vertex solution carries None in both.
    Batch-verify's per-instance rows carry no ``property_report``: their
    checks read only the solution and the legs (``_check_residuals``)."""

    solution: FermatSolution
    frame: DirectionConfig | None
    property_report: PropertyReport | None

    def __init__(self, solution, frame, property_report):
        d = self.__dict__
        d["solution"] = solution
        d["frame"] = frame
        d["property_report"] = property_report


@dataclass
class BatchSummary:
    seed: int
    count: int
    tol: float
    interior_count: int
    vertex_count: int
    max_residuals: dict[str, float]
    failures: list[tuple[int, str, float]]
    errors: list[tuple[int, str]]
    passed: bool

    def format_text(self) -> str:
        lines = [
            f"batch-verify seed={self.seed} count={self.count} "
            f"tol={self.tol:.3e} grad_tol={GRAD_TOL:.3e}",
            f"instances: {self.interior_count} interior, "
            f"{self.vertex_count} vertex",
            "max residual per check:",
        ]
        for name in CHECKS:
            if name in self.max_residuals:
                lines.append(f"  {name:<24} {self.max_residuals[name]:.6e}")
        for index, message in self.errors:
            lines.append(f"error at instance {index}: {message}")
        for index, check, value in self.failures:
            lines.append(
                f"FAIL instance {index} (seed [{self.seed}, {index}]): "
                f"{check} = {value:.6e}"
            )
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def build_report(tetra: Tetrahedron, tol: float,
                 max_iter: int = MAX_ITER) -> SolutionReport:
    """Solve one tetrahedron within ``max_iter`` iterations and, when the
    minimizer is interior, measure every junction-angle identity under
    ``tol``."""
    solution = solve(tetra, max_iter)
    if solution.kind != INTERIOR:
        return SolutionReport(solution, None, None)
    frame = direction_config(tetra, solution.point)
    return SolutionReport(
        solution, frame, verify_fundamental_property(frame, tol)
    )


def _check_residuals(report: SolutionReport) -> dict[str, float]:
    """Batch-verify's residual of every check that applies to the report,
    in ``CHECKS`` order: the vertex check, or ``solve_residual`` and
    ``_interior_residuals`` of the report's legs on floats.  Only the
    solution and the legs are read, so the per-instance rows of
    ``_verify_chunk`` pass a report with no ``PropertyReport``.

    A ``TetrafermatError`` the closed-formula cross-check raises
    propagates, with the text ``FiveAngles`` and ``sixth_angle`` give.
    """
    sol = report.solution
    if sol.kind != INTERIOR:
        return {"vertex_optimality": _vertex_excess(sol.residual, FLOATS)}
    values = (sol.residual, *_interior_residuals(report.frame.rows, FLOATS))
    return dict(zip(INTERIOR_CHECKS, values))


def _interior_residuals(legs, xp):
    """Batch-verify's interior checks after ``solve_residual``, in
    ``INTERIOR_CHECKS`` order, of the unit legs ``legs`` as floats or as
    columns (see ``ops``), from the legs' cosines computed once.

    A check of three residuals is their largest; ``bisector_antiparallel``
    takes only the pairs with no short bisector (``bisector_residuals``),
    and is inf when all three are short.  The closed-formula cross-check
    (``formula_residuals``, with its ``require`` checks) must reproduce the
    measured sixth cosine on the realized branch.
    """
    cosines = leg_cosines(legs, xp)
    opp, csum = cosine_residuals(cosines)
    orth, anti, short = bisector_residuals(legs, xp)
    identity, substitution = formula_residuals(legs, cosines, xp)
    larger = xp.maximum
    a1, a2, a3 = [xp.where(s, -math.inf, a) for a, s in zip(anti, short)]
    s1, s2, s3 = short
    return (
        larger(larger(*opp[:2]), opp[2]),
        csum,
        larger(larger(*orth[:2]), orth[2]),
        xp.where(s1 & s2 & s3, math.inf, larger(larger(a1, a2), a3)),
        identity,
        substitution,
    )


def _vertex_excess(residual, xp):
    """How far a winning vertex's pull norm exceeds 1 + BOUNDARY_EPS, or 0:
    the vertex check, on floats or on columns."""
    excess = residual - (1.0 + BOUNDARY_EPS)
    return xp.where(excess > 0.0, excess, 0.0)


def _column_residuals(point, m, frame):
    """Batch-verify's residuals of interior solutions given as columns, one
    element per instance: ``point`` (3, k) in input units, ``m`` the
    tetrahedra's ``to_frame`` and ``frame`` (12, k) their frame
    coordinates, evaluated through the kernels the scalar API calls.

    Returns ``_interior_residuals`` of the legs on columns, one row per
    check and one column per instance, bit for bit those
    ``_check_residuals`` gives ``build_report``'s record; and the mask of
    the instances that fail a check (a coincident, overflowed or non-unit
    leg, an angle not strictly inside (0, pi), a degenerate base angle, an
    unrealizable triple or an infeasible induced pair), whose residuals
    mean nothing and which the scalar API recomputes.
    """
    px, py, pz = point
    rows = tuple(zip(frame[0::3], frame[1::3], frame[2::3]))
    xp = Columns(len(m))
    with np.errstate(all="ignore"):
        legs, apart, _ = unit_legs((px * m, py * m, pz * m), rows, xp)
        for ok in apart + unit_rows(legs):
            xp.require(ok)
        checks = np.array(_interior_residuals(legs, xp))
    return checks, xp.failed


def _verify_chunk(seed: int, indices: range, max_iter: int):
    """Batch-verify's outcome for the instances of ``indices``, as columns.

    Returns the residuals, one row per check in ``CHECKS`` order and one
    column per instance; the mask, of the same shape, of the checks that
    apply to each instance (the vertex check to a vertex solution, the
    others to an interior one, none to an error); and the (instance, error
    text) pairs in instance order.  The draws are made, validated and
    framed on columns, and the rows ``solve_columns`` solves to CONVERGED
    are checked there by ``_column_residuals``; every other row takes the
    reference loop's per-instance body, with the column outcome when there
    is one, and builds its ``Tetrahedron`` then, once.
    """
    vertices = sampling.random_vertex_columns(seed, indices)
    n = len(vertices)
    frame, scale, m, rejected = frame_columns(vertices)
    for slot in np.flatnonzero(rejected).tolist():
        # raises the DegenerateInput the instance has always raised
        Tetrahedron(vertices[slot])
    chunk = solve_columns(frame, scale, m, max_iter)
    values = np.zeros((len(CHECKS), n))
    applies = np.zeros((len(CHECKS), n), dtype=bool)
    values[_VERTEX, chunk.vertex_rows] = _vertex_excess(chunk.vertex_residual, np)
    applies[_VERTEX, chunk.vertex_rows] = True
    checks, failed = _column_residuals(chunk.point, m[chunk.rows], frame[:, chunk.rows])
    # a row that ended MAXITER raises its NonConvergence per instance
    failed = failed | (chunk.status == MAXITER)
    passed = chunk.rows[~failed]
    values[_INTERIOR[0], chunk.rows] = chunk.residual
    values[np.ix_(_INTERIOR[1:], chunk.rows)] = checks
    applies[np.ix_(_INTERIOR, passed)] = True
    # the column of each row that failed a check or ended MAXITER
    column = dict(zip(chunk.rows[failed].tolist(), np.flatnonzero(failed).tolist()))
    scalar = np.ones(n, dtype=bool)
    scalar[chunk.vertex_rows] = False
    scalar[passed] = False
    errors = []
    for slot in np.flatnonzero(scalar).tolist():
        tetra = Tetrahedron(vertices[slot])
        j = column.get(slot)
        try:
            solution = solve(tetra, max_iter) if j is None else chunk.solution(j)
        except NonConvergence as exc:
            errors.append((slot, f"no convergence (residual {exc.residual:.3e})"))
            continue
        legs = None
        if solution.kind == INTERIOR:
            legs = direction_config(tetra, solution.point)
        try:
            residuals = _check_residuals(SolutionReport(solution, legs, None))
        except TetrafermatError as exc:
            errors.append((slot, f"formula cross-check failed: {exc}"))
            continue
        for name, value in residuals.items():
            values[CHECKS.index(name), slot] = value
            applies[CHECKS.index(name), slot] = True
    return values, applies, errors


def _running_max(current, column):
    """The running maximum of batch-verify's merge after the values of
    ``column``, in instance order, starting from ``current`` (None before
    the first value).

    A value replaces the maximum only when it compares greater, as the
    merge has always done one value at a time: a NaN replaces nothing, so
    only a first value can leave a NaN maximum, and of equal values the
    first is kept.
    """
    if current is None:
        current, column = column[0], column[1:]
    if len(column):
        top = np.fmax.reduce(column)
        if top > current:
            current = column[np.argmax(column == top)]
    return float(current)


def run_batch_verify(
    seed: int = 0,
    count: int = 1000,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> BatchSummary:
    """Generate, solve, and verify ``count`` seeded random tetrahedra, in
    chunks of ``CHUNK``.  A negative ``seed``, or a ``count`` below 1,
    raises ValueError.

    Each check's maximum and failures are reductions over a chunk's
    residual columns, with the rule and order of a merge one instance at a
    time: see ``_running_max``; the failures are the applicable residuals
    not at or below ``tol`` (so a NaN fails), by instance and then in
    ``CHECKS`` order.
    """
    if seed < 0:
        # the message numpy's SeedSequence gives a negative seed
        raise ValueError("expected non-negative integer")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        raise ValueError("count must be at least 1: no verdict on no instances")
    max_residuals: dict[str, float] = {}
    failures: list[tuple[int, str, float]] = []
    errors: list[tuple[int, str]] = []
    interior = vertex = 0
    for start in range(0, count, CHUNK):
        chunk = range(start, min(count, start + CHUNK))
        values, applies, chunk_errors = _verify_chunk(seed, chunk, max_iter)
        # solve_residual applies to every interior instance
        interior += int(applies[_INTERIOR[0]].sum())
        vertex += int(applies[_VERTEX].sum())
        errors += [(start + slot, text) for slot, text in chunk_errors]
        for k, name in enumerate(CHECKS):
            column = values[k, applies[k]]
            if len(column):
                max_residuals[name] = _running_max(max_residuals.get(name), column)
        # instance by instance, and within one in CHECKS order; NaN fails
        slot, k = np.nonzero((applies & ~(values <= tol)).T)
        failures += [
            (start + i, CHECKS[c], value)
            for i, c, value in zip(slot.tolist(), k.tolist(), values[k, slot].tolist())
        ]
    passed = not failures and not errors
    return BatchSummary(
        seed=seed,
        count=count,
        tol=tol,
        interior_count=interior,
        vertex_count=vertex,
        max_residuals=max_residuals,
        failures=failures,
        errors=errors,
        passed=passed,
    )
