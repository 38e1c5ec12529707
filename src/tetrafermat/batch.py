"""Per-instance reports and seeded batch verification.

``build_report`` is the one per-instance pipeline: solve, take the unit
legs from the interior minimizer toward the vertices, measure the
junction-angle identities on them.  The ``solve`` and ``verify`` commands
print its ``SolutionReport``, and ``_check_residuals`` reads batch-verify's
residuals off it, the sixth-angle cross-check included.

``run_batch_verify`` checks a seeded corpus in chunks of ``CHUNK``
instances, with no per-instance object: a chunk's vertices are drawn on
integer columns, byte for byte the per-instance ``random_vertices`` draws
(``sampling.random_vertex_columns``), then validated and framed on float64
columns, one element per instance, by the kernel ``Tetrahedron`` runs on
floats (``geometry.frame_columns``).  ``solver.solve_columns``
settles the chunk's vertex instances from their column pull norms and
solves its interior instances in lockstep Newton sweeps of full steps;
each instance it leaves (two winning vertices, an escape, a rejected
full step, a non-positive ``det H``, a budget run out) is built as a
``Tetrahedron`` and goes to ``solve``, so every safeguard and
NonConvergence text is the scalar one.  The identity layer is then
evaluated on columns of the chunk's interior solutions, through the same
kernels the scalar API calls with floats (see ``ops``): every solution
and every residual is bit for bit the one ``_check_residuals`` reads off
``build_report``'s record.  A row that fails a check is recomputed
through that scalar path, so its error text or flag is the scalar one; a
``Tetrahedron`` is built for it then, once.  The residuals are merged in
instance order.  ``CHUNK`` bounds the columns' memory for any count.

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
from .formula import (
    FiveAngles, branch_residual, branch_sign, ft_substitution_residual, inside,
    resolve_branch, sixth_angle, sixth_cosines, substitution_residual,
)
from .geometry import (
    DirectionConfig, Tetrahedron, direction_config, frame_columns, unit_legs,
    unit_rows,
)
from .ops import Columns
from .properties import (
    DEFAULT_TOL, PropertyReport, bisector_residuals, cosine_residuals,
    leg_angles, verify_fundamental_property,
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
#: instances per chunk of ``run_batch_verify``: the solve and the identity
#: layer run on float64 columns of a chunk's instances, and a chunk's columns
#: are dropped before the next chunk is solved, so memory stays bounded for
#: any count while a column still spans enough rows to pay numpy's per-call
#: cost (a 1000-instance corpus is one chunk)
CHUNK = 1024


@dataclass(frozen=True)
class SolutionReport:
    """One tetrahedron's solution and, when it is interior, its unit legs
    (``frame``, as ``direction_config`` returns them) and the identity
    residuals measured on them; a vertex solution carries None in both."""

    solution: FermatSolution
    frame: DirectionConfig | None
    property_report: PropertyReport | None


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
    return _report(tetra, solve(tetra, max_iter), tol)


def _report(tetra: Tetrahedron, solution: FermatSolution,
            tol: float) -> SolutionReport:
    """``build_report`` after the solve."""
    if solution.kind != INTERIOR:
        return SolutionReport(solution, None, None)
    frame = direction_config(tetra, solution.point)
    return SolutionReport(
        solution, frame, verify_fundamental_property(frame, tol)
    )


def _check_residuals(report: SolutionReport) -> dict[str, float]:
    """Batch-verify's residual of every check that applies to the report,
    in ``CHECKS`` order.

    The closed-formula cross-check feeds the five measured angles and the
    realized branch to ``sixth_angle``, which must reproduce the measured
    sixth cosine; a ``TetrafermatError`` it or ``FiveAngles`` raises
    propagates.
    """
    sol = report.solution
    if sol.kind != INTERIOR:
        return _vertex_residuals(sol.residual)
    r = report.property_report
    s = r.angles
    anti = [x for x in r.antiparallel_residuals if not math.isnan(x)]
    fa = FiveAngles(
        a102=s.a102, a103=s.a103, a104=s.a104, a203=s.a203, a204=s.a204
    )
    return {
        "solve_residual": sol.residual,
        "opposite_angles": max(r.opposite_angle_residuals),
        "cosine_sum": r.cosine_sum_residual,
        "bisector_orthogonality": max(r.bisector_dot_residuals),
        "bisector_antiparallel": max(anti) if anti else float("inf"),
        "sixth_angle_identity": sixth_angle(fa).branch_error(
            resolve_branch(report.frame), math.cos(s.a304)
        ),
        "substitution_residual": ft_substitution_residual(s.a102, s.a203),
    }


def _vertex_residuals(residual: float) -> dict[str, float]:
    """Batch-verify's residuals of a vertex solution whose ``residual`` is
    the winning vertex's pull norm."""
    return {"vertex_optimality": max(0.0, residual - (1.0 + BOUNDARY_EPS))}


def _column_residuals(point, m, frame) -> list:
    """Batch-verify's residuals of interior solutions given as columns, one
    element per instance: ``point`` (3, k) in input units, ``m`` the
    tetrahedra's ``to_frame`` and ``frame`` (12, k) their frame
    coordinates, evaluated through the kernels the scalar API calls.

    Returns, per instance, the residuals after ``solve_residual`` in
    ``INTERIOR_CHECKS`` order, equal to those ``_check_residuals`` reads off
    ``build_report``'s record; or None where a check fails (a coincident,
    overflowed or non-unit leg, a degenerate bisector, an angle not
    strictly inside (0, pi), a degenerate base angle, an unrealizable triple
    or an infeasible induced pair), for the scalar API to recompute.  Each
    angle's cosine, the cosine of its double and sin a102 are computed
    once and shared by every kernel that reads them.
    """
    px, py, pz = point
    rows = tuple(zip(frame[0::3], frame[1::3], frame[2::3]))
    xp = Columns(len(m))
    with np.errstate(all="ignore"):
        legs, apart, _ = unit_legs((px * m, py * m, pz * m), rows, xp)
        for ok in apart + unit_rows(legs):
            xp.require(ok)
        angles = leg_angles(legs, xp)
        orth, anti, short = bisector_residuals(legs, xp)
        for s in short:
            xp.require(~s)
        for a in angles[:5]:
            xp.require(inside(a))
        cosines = [xp.cos(a) for a in angles]
        doubles = [xp.cos(2.0 * a) for a in angles[:5]]
        s102 = xp.sin(angles[0])
        opp, csum = cosine_residuals(cosines)
        _, cos_plus, cos_minus = sixth_cosines(s102, cosines[:5], doubles, xp)
        identity = branch_residual(
            cos_plus, cos_minus, branch_sign(legs, xp), cosines[5], xp
        )
        substitution = substitution_residual(
            cosines[0], cosines[3], s102, doubles[0], doubles[3], xp
        )
    larger = np.maximum
    checks = (
        larger(larger(*opp[:2]), opp[2]),
        csum,
        larger(larger(*orth[:2]), orth[2]),
        larger(larger(*anti[:2]), anti[2]),
        identity,
        substitution,
    )
    values = zip(*[c.tolist() for c in checks])
    return [None if f else v for f, v in zip(xp.failed.tolist(), values)]


def _verify_chunk(seed: int, indices: range, tol: float, max_iter: int) -> list:
    """Batch-verify's outcome for each instance of ``indices``, in order:
    its residual per check, or the text of the error it records.

    The draws are made, validated and framed on columns; a ``Tetrahedron``
    is built only for an instance the columns leave to the scalar path,
    once.
    """
    vertices = sampling.random_vertex_columns(seed, indices)
    frame, scale, m, rejected = frame_columns(vertices)
    for slot in np.flatnonzero(rejected).tolist():
        # raises the DegenerateInput the instance has always raised
        Tetrahedron(vertices[slot])
    chunk = solve_columns(frame, scale, m, max_iter)
    outcomes: list = [None] * len(vertices)
    for slot, residual in zip(chunk.vertex_rows.tolist(),
                              chunk.vertex_residual.tolist()):
        outcomes[slot] = _vertex_residuals(residual)
    left = np.ones(len(vertices), dtype=bool)
    left[chunk.rows] = False
    left[chunk.vertex_rows] = False
    tetras = {}
    # the solutions solve found for the rows the columns left, all interior:
    # the columns settled every vertex case
    found = []
    for slot in np.flatnonzero(left).tolist():
        tetras[slot] = Tetrahedron(vertices[slot])
        try:
            found.append((slot, solve(tetras[slot], max_iter)))
        except NonConvergence as exc:
            outcomes[slot] = f"no convergence (residual {exc.residual:.3e})"
    slots = chunk.rows.tolist() + [slot for slot, _ in found]
    if not slots:
        return outcomes
    point = chunk.point
    if found:
        extra = np.array([sol.point for _, sol in found]).T
        point = np.concatenate([point, extra], axis=1)
    residuals = chunk.residual.tolist() + [sol.residual for _, sol in found]
    rows = _column_residuals(point, m[slots], frame[:, slots])
    for j, (slot, residual, row) in enumerate(zip(slots, residuals, rows)):
        if row is not None:
            outcomes[slot] = dict(zip(INTERIOR_CHECKS, (residual, *row)))
            continue
        k = j - len(chunk.rows)
        solution = chunk.solution(j) if k < 0 else found[k][1]
        tetra = tetras[slot] if slot in tetras else Tetrahedron(vertices[slot])
        report = _report(tetra, solution, tol)
        try:
            outcomes[slot] = _check_residuals(report)
        except TetrafermatError as exc:
            outcomes[slot] = f"formula cross-check failed: {exc}"
    return outcomes


def run_batch_verify(
    seed: int = 0,
    count: int = 1000,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> BatchSummary:
    """Generate, solve, and verify ``count`` seeded random tetrahedra, in
    chunks of ``CHUNK``.  A negative ``count`` or ``seed`` raises
    ValueError."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if seed < 0:
        # the message numpy's SeedSequence gives a negative seed
        raise ValueError("expected non-negative integer")
    max_residuals: dict[str, float] = {}
    failures: list[tuple[int, str, float]] = []
    errors: list[tuple[int, str]] = []
    interior = vertex = 0
    for start in range(0, count, CHUNK):
        chunk = range(start, min(count, start + CHUNK))
        for i, outcome in zip(chunk, _verify_chunk(seed, chunk, tol, max_iter)):
            if isinstance(outcome, str):
                errors.append((i, outcome))
                continue
            if "vertex_optimality" in outcome:
                vertex += 1
            else:
                interior += 1
            for name, value in outcome.items():
                if name not in max_residuals or value > max_residuals[name]:
                    max_residuals[name] = value
                if not value <= tol:
                    failures.append((i, name, value))
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
