"""Command-line interface.

Commands: ``solve`` and ``verify`` read a tetrahedron from a JSON file,
``sixth-angle`` reads five angles, ``batch-verify`` drives the seeded
verification corpus.  Exit codes: 0 success/pass, 2 invalid input,
3 non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .batch import run_batch_verify
from .errors import NonConvergence, TetrafermatError
from .formula import FiveAngles, sixth_angle
from .geometry import Tetrahedron, direction_config
from .properties import (
    DEFAULT_TOL,
    AngleSextuple,
    PropertyReport,
    verify_fundamental_property,
)
from .solver import FermatSolution, INTERIOR, SolverConfig, solve

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFICATION_FAILED = 4

ANGLE_KEYS = ("a102", "a103", "a104", "a203", "a204")


class InputError(Exception):
    """Unusable input file (missing, malformed, or failing validation)."""


@dataclass
class SolutionReport:
    """Everything the solve/verify commands report for one tetrahedron."""

    solution: FermatSolution
    angles: AngleSextuple | None
    property_report: PropertyReport | None

    def to_dict(self) -> dict:
        sol = self.solution
        d = {
            "kind": sol.kind,
            "point": [float(c) for c in sol.point],
            "vertex_index": sol.vertex_index,
            "objective": sol.objective_value,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "pull_norms": list(sol.pull_norms),
            "angles_rad": None,
            "checks": None,
            "flags": list(sol.flags),
        }
        if self.angles is not None:
            a = self.angles
            d["angles_rad"] = {
                "a102": a.a102, "a103": a.a103, "a104": a.a104,
                "a203": a.a203, "a204": a.a204, "a304": a.a304,
            }
        if self.property_report is not None:
            r = self.property_report
            d["checks"] = {
                "opposite_angles": list(r.opposite_angle_residuals),
                "cosine_sum": r.cosine_sum_residual,
                "bisector_orthogonality": list(r.bisector_dot_residuals),
                "bisector_antiparallel": list(r.antiparallel_residuals),
                "pass": r.passed,
            }
        return d


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _number(value) -> float:
    """A JSON number as a float.  ``float`` alone would also take booleans
    (true is 1.0) and numeric strings ("90" is 90.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def load_tetrahedron(path: str) -> Tetrahedron:
    """Read {"vertices": [[x,y,z] * 4]} and validate it."""
    data = _load_json(path)
    if "vertices" not in data:
        raise InputError(f'{path}: missing "vertices"')
    try:
        rows = [[_number(c) for c in row] for row in data["vertices"]]
        return Tetrahedron(np.array(rows, dtype=float))
    except (TetrafermatError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}")


def load_five_angles(path: str) -> FiveAngles:
    """Read {"angles_deg": [...]} or {"angles_rad": [...]} (five values in
    the order a102, a103, a104, a203, a204)."""
    data = _load_json(path)
    if "angles_deg" in data:
        key, to_radians = "angles_deg", math.radians
    elif "angles_rad" in data:
        key, to_radians = "angles_rad", float
    else:
        raise InputError(f'{path}: need "angles_deg" or "angles_rad"')
    if not isinstance(data[key], list):
        raise InputError(f'{path}: "{key}" must be a list of numbers')
    try:
        values = [to_radians(_number(v)) for v in data[key]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f'{path}: "{key}": {exc}')
    if len(values) != 5:
        raise InputError(f"{path}: expected 5 angles, got {len(values)}")
    try:
        return FiveAngles(**dict(zip(ANGLE_KEYS, values)))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def build_report(tetra: Tetrahedron, config: SolverConfig,
                 tol: float) -> SolutionReport:
    solution = solve(tetra, config)
    angles = None
    report = None
    if solution.kind == INTERIOR:
        frame = direction_config(tetra, solution.point)
        report = verify_fundamental_property(frame, tol)
        angles = report.angles
    return SolutionReport(
        solution=solution, angles=angles, property_report=report
    )


def _format_angle_row(name: str, value: float) -> str:
    return f"  {name}: {value:.12f} rad  ({math.degrees(value):.8f} deg)"


def format_report_text(report: SolutionReport) -> str:
    sol = report.solution
    lines = [f"kind: {sol.kind}"]
    lines.append(
        "point: ({:.12g}, {:.12g}, {:.12g})".format(*(float(c) for c in sol.point))
    )
    if sol.vertex_index is not None:
        lines.append(f"vertex index: {sol.vertex_index}")
    lines.append(f"objective: {sol.objective_value:.12g}")
    lines.append(f"residual: {sol.residual:.6e}")
    lines.append(f"iterations: {sol.iterations}")
    lines.append(
        "pull norms: " + "  ".join(f"{p:.9f}" for p in sol.pull_norms)
    )
    if report.angles is not None:
        lines.append("angles:")
        a = report.angles
        for name, value in zip(
            ("a102", "a103", "a104", "a203", "a204", "a304"), a.as_tuple()
        ):
            lines.append(_format_angle_row(name, value))
    if report.property_report is not None:
        r = report.property_report
        lines.append(f"checks (tol {r.tol:.3e}):")
        lines.append(
            "  opposite angles:        "
            + "  ".join(f"{x:.3e}" for x in r.opposite_angle_residuals)
        )
        lines.append(f"  cosine sum:             {r.cosine_sum_residual:.3e}")
        lines.append(
            "  bisector orthogonality: "
            + "  ".join(f"{x:.3e}" for x in r.bisector_dot_residuals)
        )
        lines.append(
            "  bisector antiparallel:  "
            + "  ".join(f"{x:.3e}" for x in r.antiparallel_residuals)
        )
        lines.append("  " + ("PASS" if r.passed else "FAIL"))
    if sol.flags:
        lines.append("flags: " + ", ".join(sol.flags))
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace, config: SolverConfig,
              verify_mode: bool = False) -> int:
    tetra = load_tetrahedron(args.input)
    try:
        report = build_report(tetra, config, args.tol)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_report_text(report))
    if verify_mode and report.property_report is not None \
            and not report.property_report.passed:
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_sixth_angle(args: argparse.Namespace) -> int:
    fa = load_five_angles(args.input)
    result = sixth_angle(fa)
    if args.format == "json":
        out = {
            "b_magnitude": result.b_magnitude,
            "cos_plus": result.cos_plus,
            "cos_minus": result.cos_minus,
            "realizable_plus": result.realizable_plus,
            "realizable_minus": result.realizable_minus,
            "angle_plus_rad": result.angle(1) if result.realizable_plus else None,
            "angle_minus_rad": result.angle(-1) if result.realizable_minus else None,
        }
        print(json.dumps(out, indent=2))
    else:
        lines = [
            "input angles (rad): "
            + "  ".join(
                f"{k}={getattr(fa, k):.9f}" for k in ANGLE_KEYS
            ),
            f"radical magnitude: {result.b_magnitude:.12g}",
        ]
        for label, cos_value, ok in (
            ("plus branch ", result.cos_plus, result.realizable_plus),
            ("minus branch", result.cos_minus, result.realizable_minus),
        ):
            if ok:
                ang = math.acos(min(1.0, max(-1.0, cos_value)))
                lines.append(
                    f"{label}: cos = {cos_value:.12g}, angle = {ang:.12f} rad "
                    f"({math.degrees(ang):.8f} deg)"
                )
            else:
                lines.append(
                    f"{label}: cos = {cos_value:.12g} (not realizable)"
                )
        print("\n".join(lines))
    return EXIT_OK


def cmd_batch_verify(args: argparse.Namespace, config: SolverConfig) -> int:
    if args.count < 1:
        raise InputError("count must be at least 1")
    if args.seed < 0:
        raise InputError("seed must be non-negative")
    summary = run_batch_verify(args.seed, args.count, args.tol, config)
    print(summary.format_text())
    return EXIT_OK if summary.passed else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrafermat",
        description="Minimize the distance sum over a tetrahedron and verify "
        "the junction-angle identities of the minimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="JSON input file")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="verification tolerance (default %(default)g)")
        p.add_argument("--grad-tol", type=float, default=SolverConfig.grad_tol,
                       help="solver residual tolerance (default %(default)g)")
        p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                       help="solver iteration budget (default %(default)d)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="solve one tetrahedron")
    add_common(p_solve)
    p_verify = sub.add_parser(
        "verify", help="solve and fail (exit 4) when any identity check fails"
    )
    add_common(p_verify)
    p_sixth = sub.add_parser(
        "sixth-angle", help="evaluate the sixth angle from five given angles"
    )
    p_sixth.add_argument("--input", required=True, help="JSON input file")
    p_sixth.add_argument("--format", choices=("text", "json"), default="text")
    p_batch = sub.add_parser(
        "batch-verify", help="verify a corpus of seeded random tetrahedra"
    )
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--count", type=int, default=1000)
    add_common(p_batch, with_input=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sixth-angle":
            return cmd_sixth_angle(args)
        if not args.tol > 0:
            raise InputError("tol must be positive")
        try:
            config = SolverConfig(grad_tol=args.grad_tol, max_iter=args.max_iter)
        except ValueError as exc:
            raise InputError(str(exc))
        if args.command == "batch-verify":
            return cmd_batch_verify(args, config)
        return cmd_solve(args, config, verify_mode=args.command == "verify")
    except (InputError, TetrafermatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
