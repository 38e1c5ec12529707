"""Seeded batch verification: solve a corpus of random tetrahedra and
measure every identity the interior minimizer must satisfy.

Shared by the command line (``batch-verify``) and the acceptance tests.
Output is deterministic for a fixed seed: no wall-clock, no OS entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import sampling
from .errors import NonConvergence, TetrafermatError
from .formula import ft_substitution_residual, resolve_branch, sixth_angle, FiveAngles
from .geometry import direction_config
from .properties import DEFAULT_TOL, verify_fundamental_property
from .solver import BOUNDARY_EPS, INTERIOR, SolverConfig, solve

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


@dataclass
class InstanceResult:
    index: int
    kind: str
    residuals: dict[str, float] = field(default_factory=dict)
    error: str | None = None


@dataclass
class BatchSummary:
    seed: int
    count: int
    tol: float
    grad_tol: float
    interior_count: int
    vertex_count: int
    max_residuals: dict[str, float]
    failures: list[tuple[int, str, float]]
    errors: list[tuple[int, str]]
    passed: bool

    def format_text(self) -> str:
        lines = [
            f"batch-verify seed={self.seed} count={self.count} "
            f"tol={self.tol:.3e} grad_tol={self.grad_tol:.3e}",
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


def check_instance(index: int, tetra, config: SolverConfig) -> InstanceResult:
    """Solve one tetrahedron and measure every applicable identity."""
    out = InstanceResult(index=index, kind="")
    try:
        sol = solve(tetra, config)
    except NonConvergence as exc:
        out.kind = "error"
        out.error = f"no convergence (residual {exc.residual:.3e})"
        return out
    out.kind = sol.kind
    if sol.kind != INTERIOR:
        out.residuals["vertex_optimality"] = max(
            0.0, sol.residual - (1.0 + BOUNDARY_EPS)
        )
        return out
    out.residuals["solve_residual"] = sol.residual
    cfg = direction_config(tetra, sol.point)
    report = verify_fundamental_property(cfg)
    s = report.angles
    out.residuals["opposite_angles"] = max(report.opposite_angle_residuals)
    out.residuals["cosine_sum"] = report.cosine_sum_residual
    out.residuals["bisector_orthogonality"] = max(report.bisector_dot_residuals)
    anti = [r for r in report.antiparallel_residuals if not math.isnan(r)]
    out.residuals["bisector_antiparallel"] = max(anti) if anti else float("inf")

    # closed-formula cross-check: five measured angles + realized branch
    # must reproduce the measured sixth cosine
    try:
        fa = FiveAngles(
            a102=s.a102, a103=s.a103, a104=s.a104, a203=s.a203, a204=s.a204
        )
        out.residuals["sixth_angle_identity"] = sixth_angle(fa).branch_error(
            resolve_branch(cfg), math.cos(s.a304)
        )
        out.residuals["substitution_residual"] = ft_substitution_residual(
            s.a102, s.a203
        )
    except TetrafermatError as exc:
        out.error = f"formula cross-check failed: {exc}"
    return out


def run_batch_verify(
    seed: int = 0,
    count: int = 1000,
    tol: float = DEFAULT_TOL,
    config: SolverConfig | None = None,
) -> BatchSummary:
    """Generate, solve, and verify ``count`` seeded random tetrahedra."""
    config = config or SolverConfig()
    max_residuals: dict[str, float] = {}
    failures: list[tuple[int, str, float]] = []
    errors: list[tuple[int, str]] = []
    interior = vertex = 0
    for i in range(count):
        tetra = sampling.random_tetrahedron(seed, i)
        result = check_instance(i, tetra, config)
        if result.error is not None:
            errors.append((i, result.error))
            continue
        if result.kind == INTERIOR:
            interior += 1
        else:
            vertex += 1
        for name, value in result.residuals.items():
            if name not in max_residuals or value > max_residuals[name]:
                max_residuals[name] = value
            if not value <= tol:
                failures.append((i, name, value))
    passed = not failures and not errors
    return BatchSummary(
        seed=seed,
        count=count,
        tol=tol,
        grad_tol=config.grad_tol,
        interior_count=interior,
        vertex_count=vertex,
        max_residuals=max_residuals,
        failures=failures,
        errors=errors,
        passed=passed,
    )
