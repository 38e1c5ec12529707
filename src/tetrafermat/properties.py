"""Angles at the junction point and the identities they satisfy.

For a balanced direction quadruple (an interior minimizer), opposite angles
match, the three cosines against leg 1 sum to -1, the bisectors of the three
angle pairs at the junction are mutually orthogonal, and opposite bisectors
are anti-parallel.  This module measures all of those as residuals.  The
bisectors u_i + u_j are formed inside ``verify_fundamental_property`` and
only their residuals are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import DirectionConfig

#: default residual tolerance for the verification report
DEFAULT_TOL = 1e-6
#: bisector shorter than this cannot be normalized (legs nearly opposite)
BISECTOR_EPS = 1e-12

#: leg pairs in field order: a102, a103, a104, a203, a204, a304
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
#: index pairs (into PAIRS order) of angles subtended by opposite edges
OPPOSITE = ((0, 5), (3, 2), (1, 4))


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


def angle_sextuple(config: DirectionConfig) -> AngleSextuple:
    """All six pairwise leg angles of a direction configuration."""
    u = config.units.tolist()
    angles = []
    for i, j in PAIRS:
        c = _dot(u[i - 1], u[j - 1])
        angles.append(math.acos(min(1.0, max(-1.0, c))))
    return AngleSextuple(*angles)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def check_opposite_angles(s: AngleSextuple):
    """Residuals |cos a102 - cos a304|, |cos a203 - cos a104|,
    |cos a103 - cos a204|."""
    a = s.as_tuple()
    res = tuple(abs(math.cos(a[i]) - math.cos(a[j])) for i, j in OPPOSITE)
    return res


def check_cosine_sum(s: AngleSextuple) -> float:
    """Residual |1 + cos a102 + cos a103 + cos a104|."""
    return abs(1.0 + math.cos(s.a102) + math.cos(s.a103) + math.cos(s.a104))


def verify_fundamental_property(
    config: DirectionConfig, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Measure every junction-angle identity on one configuration.

    Orthogonality is checked on the raw dot products of the bisectors of
    a102, a203, a103; anti-parallelism on the normalized dot products of the
    three opposite bisector pairs against -1.  Meaningful for balanced
    quadruples; on unbalanced input the residuals simply come out large.
    """
    s = angle_sextuple(config)
    opp = check_opposite_angles(s)
    csum = check_cosine_sum(s)
    u = config.units.tolist()
    b = []
    for i, j in PAIRS:
        (x1, y1, z1), (x2, y2, z2) = u[i - 1], u[j - 1]
        b.append((x1 + x2, y1 + y2, z1 + z2))
    orth = (
        abs(_dot(b[0], b[3])),
        abs(_dot(b[0], b[1])),
        abs(_dot(b[3], b[1])),
    )
    anti = []
    flags: list[str] = []
    for i, j in OPPOSITE:
        ni = math.sqrt(_dot(b[i], b[i]))
        nj = math.sqrt(_dot(b[j], b[j]))
        if ni < BISECTOR_EPS or nj < BISECTOR_EPS:
            pi, pj = PAIRS[i], PAIRS[j]
            flags.append(f"degenerate_bisector_{pi[0]}0{pi[1]}_{pj[0]}0{pj[1]}")
            anti.append(float("nan"))
            continue
        anti.append(abs(_dot(b[i], b[j]) / (ni * nj) + 1.0))
    residuals = [*opp, csum, *orth, *anti]
    passed = not flags and all(r <= tol for r in residuals)
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
