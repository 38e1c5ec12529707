"""The sixth angle from five: four rays meeting at a point are pinned, up to
rigid motion and one mirror, by five of their six pairwise angles.

The missing cosine follows from a closed expression with a square-root
ambiguity: the radical's sign encodes whether legs 3 and 4 lie on the same
side of the plane spanned by legs 1 and 2.  ``sixth_angle`` evaluates both
branches; ``resolve_branch`` reads the correct sign off an actual
configuration; ``config_from_five_angles`` rebuilds the rays.

The kernels ``sixth_cosines``, ``branch_residual``, ``branch_sign``,
``substitution_residual`` and ``formula_residuals`` take cosines, not
angles, or legs, as floats or as columns of many instances (see ``ops``),
so a caller computes each cosine once.  ``formula_residuals`` is
batch-verify's cross-check on the legs' cosines: the cosine of a double
angle is ``double(c)``, a polynomial in c, and sin a102 is
sqrt((1 - c)(1 + c)), so it takes no trigonometric function.  The angle
API (``FiveAngles``, ``sixth_angle``, ``SixthAngleResult.branch_error``,
``resolve_branch`` and ``ft_substitution_residual``) calls the kernels
with floats, taking ``math.cos`` and ``math.sin`` of the angles it is
given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AngleOutOfRange, DegenerateBaseAngle, InfeasiblePair, UnrealizableTriple,
)
from .geometry import DirectionConfig, _triple
from .ops import FLOATS

#: a positive radical factor beyond this margin means an unrealizable triple
GRAM_TOL = 1e-9
#: sin(a102) at or below this leaves the frame equations singular;
#: ft_substitution_residual applies it to sin^2(a102), which it divides by
MIN_BASE_SIN = 1e-9
#: |cos| may exceed 1 by at most this and still count as realizable
REALIZABLE_TOL = 1e-9
#: triple products with product magnitude below this give branch 0
BRANCH_EPS = 1e-12


#: the five angles the sixth-angle formula takes, in order
_FIVE = ("a102", "a103", "a104", "a203", "a204")


def inside(c):
    """Whether a cosine lies strictly between -1 and 1, that is, its angle
    strictly between 0 and pi: on floats or on columns."""
    return (-1.0 < c) & (c < 1.0)


def double(c, xp):
    """cos 2a from c = cos a, on floats or on columns: 2c^2 - 1 where
    c^2 < 1/2, else 1 - 2(1 - c)(1 + c), the form that rounds better on
    each side.  Against 40-digit values of 20 000 random c per band,
    2c^2 - 1 is correctly rounded for 89 % of |c| < 0.5 but for only 50 %
    of |c| > 0.999, where 1 - 2(1 - c)(1 + c) is for 99.8 %, because
    (1 - c)(1 + c) is small there and nearly exact."""
    c2 = c * c
    return xp.where(c2 < 0.5, 2.0 * c2 - 1.0, 1.0 - 2.0 * ((1.0 - c) * (1.0 + c)))


def _out_of_range(name, a):
    return AngleOutOfRange(f"{name} must lie strictly between 0 and pi, got {a!r}")


def _angle_out_of_range(name, c):
    # the text FiveAngles gives the angle acos(c) a report carries
    return _out_of_range(name, math.acos(c))


def _check_range(name: str, value: float) -> float:
    v = float(value)
    if not 0.0 < v < math.pi:
        raise _out_of_range(name, v)
    return v


def _degenerate_base(s, equations):
    return DegenerateBaseAngle(f"sin(a102) = {s:.3e} is too small for {equations}")


def _unrealizable(f3, f4):
    return UnrealizableTriple(
        f"radical factors must be non-positive, got {f3:.3e} and {f4:.3e}"
    )


def _infeasible(c):
    return InfeasiblePair(
        f"induced cosine {c:.6f} is outside (-1, 1); the pair admits no "
        "third angle under the cosine-sum identity"
    )


@dataclass(frozen=True)
class FiveAngles:
    """Five of the six leg-pair angles: all pairs except legs 3 and 4."""

    a102: float
    a103: float
    a104: float
    a203: float
    a204: float

    def __post_init__(self):
        try:
            ok = all(0.0 < getattr(self, name) < math.pi for name in _FIVE)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            # name the first field out of range, or the one float() rejects
            for name in _FIVE:
                _check_range(name, getattr(self, name))


@dataclass(frozen=True)
class SixthAngleResult:
    """Both branches of the leg-3/leg-4 angle cosine.

    ``b_magnitude`` is the non-negative radical; ``cos_plus`` and
    ``cos_minus`` evaluate the formula with +b and -b (so cos_plus >=
    cos_minus always).  Values are reported unclamped; a branch whose
    cosine leaves [-1, 1] by more than a rounding margin is flagged
    unrealizable.
    """

    b_magnitude: float
    cos_plus: float
    cos_minus: float
    realizable_plus: bool
    realizable_minus: bool

    def cosine(self, branch: int) -> float:
        if branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {branch!r}")
        return self.cos_plus if branch == 1 else self.cos_minus

    def angle(self, branch: int) -> float:
        return math.acos(min(1.0, max(-1.0, self.cosine(branch))))

    def branch_error(self, branch: int, target: float) -> float:
        """|cosine(branch) - target| for a branch from ``resolve_branch``.

        Branch 0 (a leg in the leg-1/leg-2 plane, where the two branches
        meet) takes the nearer of the two branch cosines.
        """
        if branch != 0:
            self.cosine(branch)  # rejects a branch other than 0, +1 and -1
        return branch_residual(self.cos_plus, self.cos_minus, branch, target, FLOATS)


def _radical(c2a: float, c2b: float, c2c: float,
             ca: float, cb: float, cc: float) -> float:
    """One factor under the radical, from the cosines of three angles
    a102, a10i, a20i and of their doubles:
    1 + cos 2*a102 + cos 2*a10i + cos 2*a20i - 4 cos a102 cos a10i cos a20i.

    Equals -2 times the Gram determinant of the three unit legs, so it is
    non-positive exactly when the angle triple is realizable.
    """
    return 1.0 + c2a + c2b + c2c - 4.0 * ca * cb * cc


def sixth_cosines(s102, cosines, doubles, xp):
    """The radical magnitude b and the sixth-angle cosine with +b and with
    -b: the sixth-angle kernel, on floats or on columns (see ``ops``).

    Takes sin(a102), the cosines of the five angles a102, a103, a104,
    a203, a204 and the cosines of their doubles, each computed once by the
    caller and shared by both radical factors and both branches.
    Requires sin(a102) above MIN_BASE_SIN (else DegenerateBaseAngle) and
    both radical factors at most GRAM_TOL (else UnrealizableTriple).
    """
    xp.require(s102 > MIN_BASE_SIN, _degenerate_base, s102, "the frame equations")
    c102, c103, c104, c203, c204 = cosines
    d102, d103, d104, d203, d204 = doubles
    f3 = _radical(d102, d103, d203, c102, c103, c203)
    f4 = _radical(d102, d104, d204, c102, c104, c204)
    xp.require((f3 <= GRAM_TOL) & (f4 <= GRAM_TOL), _unrealizable, f3, f4)
    product = f3 * f4
    # a negative product has one factor within the rounding margin of zero
    # on the wrong side
    b = xp.sqrt(xp.where(product < 0.0, 0.0, product))
    csc2 = 1.0 / (s102 * s102)
    # cos a304 = (p + 2 (+-b + q)) / (4 sin^2 a102), with p and q shared
    p = 4.0 * c103 * (c104 - c102 * c204)
    q = 2.0 * c203 * (-c102 * c104 + c204)
    return b, 0.25 * (p + 2.0 * (b + q)) * csc2, 0.25 * (p + 2.0 * (-b + q)) * csc2


def branch_residual(cos_plus, cos_minus, branch, target, xp):
    """|cosine of ``branch`` - target|, the nearer of the two for branch 0,
    on floats or on columns."""
    plus, minus = abs(cos_plus - target), abs(cos_minus - target)
    return xp.where(
        branch == 0, xp.minimum(plus, minus), xp.where(branch == 1, plus, minus)
    )


def sixth_angle(fa: FiveAngles) -> SixthAngleResult:
    """Evaluate the sixth-angle cosine for both signs of the radical.

    Raises UnrealizableTriple when either triple {a102, a10i, a20i} cannot
    come from unit vectors, and DegenerateBaseAngle when sin(a102) vanishes.
    """
    a102, a103, a104, a203, a204 = fa.a102, fa.a103, fa.a104, fa.a203, fa.a204
    cos = math.cos
    b, cos_plus, cos_minus = sixth_cosines(
        math.sin(a102),
        (cos(a102), cos(a103), cos(a104), cos(a203), cos(a204)),
        (cos(2.0 * a102), cos(2.0 * a103), cos(2.0 * a104), cos(2.0 * a203),
         cos(2.0 * a204)),
        FLOATS,
    )
    return SixthAngleResult(
        b_magnitude=b,
        cos_plus=cos_plus,
        cos_minus=cos_minus,
        realizable_plus=abs(cos_plus) <= 1.0 + REALIZABLE_TOL,
        realizable_minus=abs(cos_minus) <= 1.0 + REALIZABLE_TOL,
    )


def branch_sign(rows, xp):
    """The sign of det(u1, u2, u3) * det(u1, u2, u4) for the legs ``rows``,
    0 when that product is below BRANCH_EPS in magnitude: the branch-sign
    kernel, on floats or on columns."""
    u1, u2, u3, u4 = rows
    p = _triple(u1, u2, u3) * _triple(u1, u2, u4)
    return xp.where(abs(p) < BRANCH_EPS, 0, xp.where(p > 0.0, 1, -1))


def resolve_branch(config: DirectionConfig) -> int:
    """Radical sign realized by an actual configuration.

    Returns the sign of the product of the two triple products
    det(u1, u2, u3) and det(u1, u2, u4): +1 when legs 3 and 4 sit on the
    same side of the leg-1/leg-2 plane, -1 on opposite sides, 0 when either
    is in-plane (within BRANCH_EPS on the product).
    """
    return branch_sign(config.rows, FLOATS)


def _leg_from_angles(a102: float, a10i: float, a20i: float, s: float):
    """Cartesian leg with the two prescribed cosines against legs 1 and 2;
    returns (x, y, z*z) with the z sign left to the caller."""
    x = math.cos(a10i)
    y = (math.cos(a20i) - math.cos(a102) * x) / s
    return x, y, 1.0 - x * x - y * y


def config_from_five_angles(fa: FiveAngles, branch: int) -> DirectionConfig:
    """Rebuild a direction configuration from five angles.

    The construction puts leg 1 on the x-axis and leg 2 in the xy-plane
    with positive y.  Leg 3 takes the non-negative z root; leg 4's z sign
    is set so the configuration realizes the requested radical branch.
    Raises UnrealizableTriple when a z*z comes out negative beyond
    tolerance.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    s = math.sin(fa.a102)
    if s <= MIN_BASE_SIN:
        raise _degenerate_base(s, "the frame equations")
    x3, y3, z3sq = _leg_from_angles(fa.a102, fa.a103, fa.a203, s)
    x4, y4, z4sq = _leg_from_angles(fa.a102, fa.a104, fa.a204, s)
    if z3sq < -GRAM_TOL or z4sq < -GRAM_TOL:
        raise UnrealizableTriple(
            f"no real z component: z3^2 = {z3sq:.3e}, z4^2 = {z4sq:.3e}"
        )
    z3 = math.sqrt(max(z3sq, 0.0))
    z4 = branch * math.sqrt(max(z4sq, 0.0))
    # clamped roots can leave a row marginally short of unit length
    n3 = math.sqrt(x3 * x3 + y3 * y3 + z3 * z3)
    n4 = math.sqrt(x4 * x4 + y4 * y4 + z4 * z4)
    return DirectionConfig((
        (1.0, 0.0, 0.0),
        (math.cos(fa.a102), s, 0.0),
        (x3 / n3, y3 / n3, z3 / n3),
        (x4 / n4, y4 / n4, z4 / n4),
    ))


def substitution_residual(c102, c203, s102, d102, d203, xp):
    """The substitution kernel behind ``ft_substitution_residual``, on
    floats or on columns: from cos a102, cos a203 and sin a102 of two
    angles strictly between 0 and pi, and the cosines d102, d203 of their
    doubles.

    Requires an induced cosine c = -(1 + c102 + c203) strictly inside
    (-1, 1) (else InfeasiblePair) and sin^2(a102) above MIN_BASE_SIN (else
    DegenerateBaseAngle).  The induced angle a103 then lies strictly
    between 0 and pi too, so the five substituted angles need no check;
    its cosine c and the cosine ``double(c)`` of its double enter the
    formula directly.
    """
    c = -(1.0 + c102 + c203)
    xp.require((-1.0 < c) & (c < 1.0), _infeasible, c)
    xp.require(s102 * s102 > MIN_BASE_SIN, _degenerate_base, s102,
               "the substituted formula")
    d = double(c, xp)
    _, cos_plus, cos_minus = sixth_cosines(
        s102, (c102, c, c203, c203, c), (d102, d, d203, d203, d), xp
    )
    return branch_residual(cos_plus, cos_minus, 0, c102, xp)


def formula_residuals(rows, cosines, xp):
    """The sixth-angle identity and substitution residuals of the legs
    ``rows``, from their cosines as ``properties.leg_cosines`` returns
    them: batch-verify's closed-formula cross-check, on floats or on
    columns.

    The five cosines but c304 must lie strictly inside (-1, 1) (else
    AngleOutOfRange, naming the first angle out of range).  Feeds them,
    ``double`` of each and sqrt((1 - c102)(1 + c102)) for sin a102 to
    ``sixth_cosines``; the identity residual is the distance of the branch
    ``branch_sign`` reads off the legs from c304.  The substitution
    residual is ``substitution_residual`` of the pair (a102, a203).
    Requires what those kernels require.
    """
    five = cosines[:5]
    for name, c in zip(_FIVE, five):
        xp.require(inside(c), _angle_out_of_range, name, c)
    c102, c203 = five[0], five[3]
    doubles = [double(c, xp) for c in five]
    s102 = xp.sqrt((1.0 - c102) * (1.0 + c102))
    _, cos_plus, cos_minus = sixth_cosines(s102, five, doubles, xp)
    identity = branch_residual(
        cos_plus, cos_minus, branch_sign(rows, xp), cosines[5], xp
    )
    substitution = substitution_residual(
        c102, c203, s102, doubles[0], doubles[3], xp
    )
    return identity, substitution


def ft_substitution_residual(a102: float, a203: float) -> float:
    """The closed sixth-angle formula after the interior-minimizer
    substitutions, as a residual.

    The opposite-angle identities collapse the six angles to (a102, a203)
    plus an induced a103 from the cosine-sum identity; the residual is the
    smaller branch distance |cos(sixth) - cos(a102)|.  It vanishes on every
    feasible pair, whether or not the pair was measured at a minimizer:
    balanced quadruples up to rotation form a two-parameter family, and
    the identities fix the sextuple from (a102, a203).  So it is an
    identity over the feasible region, not a relation between a102 and
    a203.  In float64 it is at most about 1e-15 / sin^2(a102).

    Raises AngleOutOfRange unless both angles lie strictly between 0 and
    pi, InfeasiblePair when no induced a103 exists, and
    DegenerateBaseAngle when sin^2(a102) is at most MIN_BASE_SIN, which
    keeps that rounding error near 1e-6 or below.
    """
    a102 = _check_range("a102", a102)
    a203 = _check_range("a203", a203)
    return substitution_residual(
        math.cos(a102), math.cos(a203), math.sin(a102),
        math.cos(2.0 * a102), math.cos(2.0 * a203), FLOATS,
    )
