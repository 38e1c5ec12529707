"""Angles at the junction point and the identities they satisfy.

For a balanced direction quadruple (an interior minimizer), opposite angles
match, the three cosines against leg 1 sum to -1, the bisectors of the three
angle pairs at the junction are mutually orthogonal, and opposite bisectors
are anti-parallel.  This module measures all of those as residuals.  The
bisectors u_i + u_j are formed inside ``verify_fundamental_property`` and
only their residuals are returned.

Every function reads the frame's float rows, ``DirectionConfig.rows``, in
straight-line code: each leg dot product and each angle's cosine is
computed once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, sqrt

from .geometry import DirectionConfig

#: default residual tolerance for the verification report
DEFAULT_TOL = 1e-6
#: bisector shorter than this cannot be normalized (legs nearly opposite)
BISECTOR_EPS = 1e-12


@dataclass(frozen=True)
class AngleSextuple:
    """The six angles a_i0j between legs i and j at the junction point 0."""

    a102: float
    a103: float
    a104: float
    a203: float
    a204: float
    a304: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a102, self.a103, self.a104, self.a203, self.a204, self.a304)


@dataclass(frozen=True)
class PropertyReport:
    """Residuals of the junction-angle identities under one tolerance.

    All residuals are non-negative; ``passed`` requires every finite
    residual to be at or below ``tol``.  A NaN residual marks a degenerate
    bisector (legs nearly opposite) and is recorded in ``flags``.
    ``angles`` is the sextuple the angle residuals were measured from.
    """

    angles: AngleSextuple
    opposite_angle_residuals: tuple[float, float, float]
    cosine_sum_residual: float
    bisector_dot_residuals: tuple[float, float, float]
    antiparallel_residuals: tuple[float, float, float]
    tol: float
    passed: bool
    flags: tuple[str, ...] = ()


def _angles(rows) -> AngleSextuple:
    """The six pairwise angles of four unit (x, y, z) rows: the arccosine of
    each dot product, clamped to [-1, 1]."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) = rows
    return AngleSextuple(
        acos(min(1.0, max(-1.0, x1 * x2 + y1 * y2 + z1 * z2))),
        acos(min(1.0, max(-1.0, x1 * x3 + y1 * y3 + z1 * z3))),
        acos(min(1.0, max(-1.0, x1 * x4 + y1 * y4 + z1 * z4))),
        acos(min(1.0, max(-1.0, x2 * x3 + y2 * y3 + z2 * z3))),
        acos(min(1.0, max(-1.0, x2 * x4 + y2 * y4 + z2 * z4))),
        acos(min(1.0, max(-1.0, x3 * x4 + y3 * y4 + z3 * z4))),
    )


def angle_sextuple(config: DirectionConfig) -> AngleSextuple:
    """All six pairwise leg angles of a direction configuration."""
    return _angles(config.rows)


def _angle_residuals(s: AngleSextuple):
    """The opposite-angle residuals and the cosine-sum residual, from one
    cosine per angle."""
    c102, c103, c104 = cos(s.a102), cos(s.a103), cos(s.a104)
    c203, c204, c304 = cos(s.a203), cos(s.a204), cos(s.a304)
    opposite = (abs(c102 - c304), abs(c203 - c104), abs(c103 - c204))
    return opposite, abs(1.0 + c102 + c103 + c104)


def verify_fundamental_property(
    config: DirectionConfig, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Measure every junction-angle identity on one configuration.

    Orthogonality is checked on the raw dot products of the bisectors of
    a102, a203, a103; anti-parallelism on the normalized dot products of the
    three opposite bisector pairs against -1.  Meaningful for balanced
    quadruples; on unbalanced input the residuals simply come out large.
    """
    rows = config.rows
    s = _angles(rows)
    opp, csum = _angle_residuals(s)
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) = rows
    # the bisector u_i + u_j of each leg pair
    bx12, by12, bz12 = x1 + x2, y1 + y2, z1 + z2
    bx13, by13, bz13 = x1 + x3, y1 + y3, z1 + z3
    bx14, by14, bz14 = x1 + x4, y1 + y4, z1 + z4
    bx23, by23, bz23 = x2 + x3, y2 + y3, z2 + z3
    bx24, by24, bz24 = x2 + x4, y2 + y4, z2 + z4
    bx34, by34, bz34 = x3 + x4, y3 + y4, z3 + z4
    orth = (
        abs(bx12 * bx23 + by12 * by23 + bz12 * bz23),
        abs(bx12 * bx13 + by12 * by13 + bz12 * bz13),
        abs(bx23 * bx13 + by23 * by13 + bz23 * bz13),
    )
    anti = []
    flags: list[str] = []
    for px, py, pz, qx, qy, qz, name in (
        (bx12, by12, bz12, bx34, by34, bz34, "102_304"),
        (bx23, by23, bz23, bx14, by14, bz14, "203_104"),
        (bx13, by13, bz13, bx24, by24, bz24, "103_204"),
    ):
        ni = sqrt(px * px + py * py + pz * pz)
        nj = sqrt(qx * qx + qy * qy + qz * qz)
        if ni < BISECTOR_EPS or nj < BISECTOR_EPS:
            flags.append("degenerate_bisector_" + name)
            anti.append(float("nan"))
            continue
        anti.append(abs((px * qx + py * qy + pz * qz) / (ni * nj) + 1.0))
    passed = not flags and all(
        r <= tol for r in (*opp, csum, *orth, *anti)
    )
    return PropertyReport(
        angles=s,
        opposite_angle_residuals=opp,
        cosine_sum_residual=csum,
        bisector_dot_residuals=orth,
        antiparallel_residuals=tuple(anti),
        tol=tol,
        passed=passed,
        flags=tuple(flags),
    )
