"""Per-instance reports and seeded batch verification.

``build_report`` is the one per-instance pipeline: solve, take the unit
legs from the interior minimizer toward the vertices, measure the
junction-angle identities on them.  The ``solve`` and ``verify`` commands
print its ``SolutionReport``; ``run_batch_verify`` reads batch-verify's
residuals off the same record for every tetrahedron of a seeded corpus
and adds the sixth-angle cross-check.  A caller sets the verification
tolerance and the solver's iteration budget; the solver's stopping
residual is the constant ``solver.GRAD_TOL``, which the batch-verify
header prints.

Shared by the command line and the acceptance tests.  Output is
deterministic for a fixed seed: no wall-clock, no OS entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sampling
from .errors import NonConvergence, TetrafermatError
from .formula import ft_substitution_residual, resolve_branch, sixth_angle, FiveAngles
from .geometry import DirectionConfig, Tetrahedron, direction_config
from .properties import (
    DEFAULT_TOL, PropertyReport, verify_fundamental_property,
)
from .solver import (
    BOUNDARY_EPS, GRAD_TOL, INTERIOR, MAX_ITER, FermatSolution, solve,
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
    solution = solve(tetra, max_iter)
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
    sixth cosine; a ``TetrafermatError`` it raises propagates.
    """
    sol = report.solution
    if sol.kind != INTERIOR:
        return {
            "vertex_optimality": max(0.0, sol.residual - (1.0 + BOUNDARY_EPS))
        }
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


def run_batch_verify(
    seed: int = 0,
    count: int = 1000,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> BatchSummary:
    """Generate, solve, and verify ``count`` seeded random tetrahedra."""
    max_residuals: dict[str, float] = {}
    failures: list[tuple[int, str, float]] = []
    errors: list[tuple[int, str]] = []
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
