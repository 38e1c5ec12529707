"""Angles at the junction point and the identities they satisfy.

For a balanced direction quadruple (an interior minimizer), opposite angles
match, the three cosines against leg 1 sum to -1, the bisectors of the three
angle pairs at the junction are mutually orthogonal, and opposite bisectors
are anti-parallel.  This module measures all of those as residuals.  The
bisectors u_i + u_j are formed inside ``bisector_residuals`` and only
their residuals are returned.

The kernels ``leg_cosines``, ``cosine_residuals`` and
``bisector_residuals`` are straight-line code on legs, or on the cosines
of the angles between them, given as floats or as columns of many
instances (see ``ops``): each leg dot product is computed once per call.
Every check reads those cosines, the dot products clamped to [-1, 1] by
``xp.clip``; a NaN dot product, which only a non-finite leg gives and
which no ``DirectionConfig`` or passing column holds, clamps to -1.0 on
floats and stays NaN on columns.  ``leg_angles`` takes their arccosine
only for the angles a report carries.  ``angle_sextuple`` and
``verify_fundamental_property`` call the kernels with the float rows of a
``DirectionConfig``, the one form the record stores.  Besides them,
``angle_sextuple`` takes six ``acos``, and ``verify_fundamental_property``
also sets its flags and its verdict: every residual at most ``tol``,
compared one by one, so a NaN residual fails.  Every quantity here is a
function of dot products of legs and of their sums, so it is unchanged by
a rotation or a mirror of the legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos

from .geometry import DirectionConfig
from .ops import FLOATS

#: default residual tolerance for the verification report
DEFAULT_TOL = 1e-6
#: bisector shorter than this cannot be normalized (legs nearly opposite)
BISECTOR_EPS = 1e-12


@dataclass(frozen=True, init=False)
class AngleSextuple:
    """The six angles a_i0j between legs i and j at the junction point 0."""

    a102: float
    a103: float
    a104: float
    a203: float
    a204: float
    a304: float

    def __init__(self, a102, a103, a104, a203, a204, a304):
        d = self.__dict__
        d["a102"] = a102
        d["a103"] = a103
        d["a104"] = a104
        d["a203"] = a203
        d["a204"] = a204
        d["a304"] = a304

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a102, self.a103, self.a104, self.a203, self.a204, self.a304)


@dataclass(frozen=True, init=False)
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

    def __init__(self, angles, opposite_angle_residuals, cosine_sum_residual,
                 bisector_dot_residuals, antiparallel_residuals, tol, passed,
                 flags=()):
        d = self.__dict__
        d["angles"] = angles
        d["opposite_angle_residuals"] = opposite_angle_residuals
        d["cosine_sum_residual"] = cosine_sum_residual
        d["bisector_dot_residuals"] = bisector_dot_residuals
        d["antiparallel_residuals"] = antiparallel_residuals
        d["tol"] = tol
        d["passed"] = passed
        d["flags"] = flags


def leg_cosines(rows, xp):
    """The cosines of the six angles a102, a103, a104, a203, a204, a304
    between the legs ``rows``: each dot product, clamped to [-1, 1].  The
    cosine kernel, on floats or on columns (see ``ops``)."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) = rows
    clip = xp.clip
    return (
        clip(x1 * x2 + y1 * y2 + z1 * z2),
        clip(x1 * x3 + y1 * y3 + z1 * z3),
        clip(x1 * x4 + y1 * y4 + z1 * z4),
        clip(x2 * x3 + y2 * y3 + z2 * z3),
        clip(x2 * x4 + y2 * y4 + z2 * z4),
        clip(x3 * x4 + y3 * y4 + z3 * z4),
    )


def leg_angles(cosines) -> AngleSextuple:
    """The sextuple of angles whose cosines are ``cosines``, as
    ``leg_cosines`` returns them on floats."""
    c102, c103, c104, c203, c204, c304 = cosines
    return AngleSextuple(
        acos(c102), acos(c103), acos(c104), acos(c203), acos(c204), acos(c304)
    )


def cosine_residuals(cosines):
    """The opposite-angle residuals and the cosine-sum residual, from the
    cosines of the six angles a102, a103, a104, a203, a204, a304: a kernel
    on floats or on columns."""
    c102, c103, c104, c203, c204, c304 = cosines
    opposite = (abs(c102 - c304), abs(c203 - c104), abs(c103 - c204))
    return opposite, abs(1.0 + c102 + c103 + c104)


def bisector_residuals(rows, xp):
    """The bisector identities on the legs ``rows``: a kernel on floats or
    columns.

    Returns the orthogonality residuals, the raw dot products of the
    bisectors u_i + u_j of a102, a203, a103; then, for the opposite bisector
    pairs 102_304, 203_104, 103_204, the anti-parallelism residuals, their
    normalized dot products against -1; and whether each pair has a
    bisector shorter than BISECTOR_EPS, too short to normalize, whose
    residual means nothing.
    """
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
    sqrt = xp.sqrt
    n12 = sqrt(bx12 * bx12 + by12 * by12 + bz12 * bz12)
    n34 = sqrt(bx34 * bx34 + by34 * by34 + bz34 * bz34)
    n23 = sqrt(bx23 * bx23 + by23 * by23 + bz23 * bz23)
    n14 = sqrt(bx14 * bx14 + by14 * by14 + bz14 * bz14)
    n13 = sqrt(bx13 * bx13 + by13 * by13 + bz13 * bz13)
    n24 = sqrt(bx24 * bx24 + by24 * by24 + bz24 * bz24)
    short = (
        (n12 < BISECTOR_EPS) | (n34 < BISECTOR_EPS),
        (n23 < BISECTOR_EPS) | (n14 < BISECTOR_EPS),
        (n13 < BISECTOR_EPS) | (n24 < BISECTOR_EPS),
    )
    s1, s2, s3 = short
    # a short pair divides by ni * nj + 1, never by 0; elsewhere the added
    # False is an exact + 0
    anti = (
        abs((bx12 * bx34 + by12 * by34 + bz12 * bz34) / (n12 * n34 + s1)
            + 1.0),
        abs((bx23 * bx14 + by23 * by14 + bz23 * bz14) / (n23 * n14 + s2)
            + 1.0),
        abs((bx13 * bx24 + by13 * by24 + bz13 * bz24) / (n13 * n24 + s3)
            + 1.0),
    )
    return orth, anti, short


def angle_sextuple(config: DirectionConfig) -> AngleSextuple:
    """All six pairwise leg angles of a direction configuration: the
    arccosine of each dot product, clamped to [-1, 1]."""
    return leg_angles(leg_cosines(config.rows, FLOATS))


def verify_fundamental_property(
    config: DirectionConfig, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Measure every junction-angle identity on one configuration.

    Orthogonality is checked on the raw dot products of the bisectors of
    a102, a203, a103; anti-parallelism on the normalized dot products of the
    three opposite bisector pairs against -1.  Meaningful for balanced
    quadruples; on unbalanced input the residuals simply come out large.
    """
    cosines = leg_cosines(config.rows, FLOATS)
    opp, csum = cosine_residuals(cosines)
    orth, anti, short = bisector_residuals(config.rows, FLOATS)
    flags = ()
    if True in short:
        flags = tuple(
            "degenerate_bisector_" + name
            for name, s in zip(("102_304", "203_104", "103_204"), short) if s
        )
        anti = tuple([float("nan") if s else r for r, s in zip(anti, short)])
    o1, o2, o3 = opp
    b1, b2, b3 = orth
    a1, a2, a3 = anti
    # every residual at most tol; a NaN fails
    passed = not flags and (
        o1 <= tol and o2 <= tol and o3 <= tol and csum <= tol
        and b1 <= tol and b2 <= tol and b3 <= tol
        and a1 <= tol and a2 <= tol and a3 <= tol
    )
    return PropertyReport(
        leg_angles(cosines), opp, csum, orth, anti, tol, passed, flags
    )
