"""The sixth angle from five: four rays meeting at a point are pinned, up to
rigid motion and one mirror, by five of their six pairwise angles.

The missing cosine follows from a closed expression with a square-root
ambiguity: the radical's sign encodes whether legs 3 and 4 lie on the same
side of the plane spanned by legs 1 and 2.  ``sixth_angle`` evaluates both
branches; ``resolve_branch`` reads the correct sign off an actual
configuration; ``config_from_five_angles`` rebuilds the rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBaseAngle, InfeasiblePair, UnrealizableTriple
from .geometry import DirectionConfig, _config_from_canonical_rows, _triple

#: a positive radical factor beyond this margin means an unrealizable triple
GRAM_TOL = 1e-9
#: sin(a102) at or below this leaves the frame equations singular;
#: ft_substitution_residual applies it to sin^2(a102), which it divides by
MIN_BASE_SIN = 1e-9
#: |cos| may exceed 1 by at most this and still count as realizable
REALIZABLE_TOL = 1e-9
#: triple products with product magnitude below this give branch 0
BRANCH_EPS = 1e-12


def _check_range(name: str, value: float) -> float:
    v = float(value)
    if not 0.0 < v < math.pi:
        raise ValueError(f"{name} must lie strictly between 0 and pi, got {v!r}")
    return v


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
            ok = (0.0 < self.a102 < math.pi and 0.0 < self.a103 < math.pi
                  and 0.0 < self.a104 < math.pi and 0.0 < self.a203 < math.pi
                  and 0.0 < self.a204 < math.pi)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            # name the first field out of range, or the one float() rejects
            for name in ("a102", "a103", "a104", "a203", "a204"):
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
        if branch == 0:
            return min(abs(self.cos_plus - target), abs(self.cos_minus - target))
        return abs(self.cosine(branch) - target)


def _radical(c2a: float, c2b: float, c2c: float,
             ca: float, cb: float, cc: float) -> float:
    """One factor under the radical, from the cosines of three angles
    a102, a10i, a20i and of their doubles:
    1 + cos 2*a102 + cos 2*a10i + cos 2*a20i - 4 cos a102 cos a10i cos a20i.

    Equals -2 times the Gram determinant of the three unit legs, so it is
    non-positive exactly when the angle triple is realizable.
    """
    return 1.0 + c2a + c2b + c2c - 4.0 * ca * cb * cc


def sixth_angle(fa: FiveAngles) -> SixthAngleResult:
    """Evaluate the sixth-angle cosine for both signs of the radical.

    Raises UnrealizableTriple when either triple {a102, a10i, a20i} cannot
    come from unit vectors, and DegenerateBaseAngle when sin(a102) vanishes.
    Each cosine is computed once and shared by both radical factors and
    both branches.
    """
    a102 = fa.a102
    s = math.sin(a102)
    if s <= MIN_BASE_SIN:
        raise DegenerateBaseAngle(
            f"sin(a102) = {s:.3e} is too small for the frame equations"
        )
    c102, c103, c104 = math.cos(a102), math.cos(fa.a103), math.cos(fa.a104)
    c203, c204 = math.cos(fa.a203), math.cos(fa.a204)
    c2_102 = math.cos(2.0 * a102)
    f3 = _radical(c2_102, math.cos(2.0 * fa.a103), math.cos(2.0 * fa.a203),
                  c102, c103, c203)
    f4 = _radical(c2_102, math.cos(2.0 * fa.a104), math.cos(2.0 * fa.a204),
                  c102, c104, c204)
    if f3 > GRAM_TOL or f4 > GRAM_TOL:
        raise UnrealizableTriple(
            f"radical factors must be non-positive, got {f3:.3e} and {f4:.3e}"
        )
    product = f3 * f4
    if product < 0.0:
        # one factor within the rounding margin of zero on the wrong side
        product = 0.0
    b = math.sqrt(product)
    csc2 = 1.0 / (s * s)
    # cos a304 = (p + 2 (+-b + q)) / (4 sin^2 a102), with p and q shared
    p = 4.0 * c103 * (c104 - c102 * c204)
    q = 2.0 * c203 * (-c102 * c104 + c204)
    cos_plus = 0.25 * (p + 2.0 * (b + q)) * csc2
    cos_minus = 0.25 * (p + 2.0 * (-b + q)) * csc2
    return SixthAngleResult(
        b_magnitude=b,
        cos_plus=cos_plus,
        cos_minus=cos_minus,
        realizable_plus=abs(cos_plus) <= 1.0 + REALIZABLE_TOL,
        realizable_minus=abs(cos_minus) <= 1.0 + REALIZABLE_TOL,
    )


def resolve_branch(config: DirectionConfig) -> int:
    """Radical sign realized by an actual configuration.

    Returns the sign of the product of the two triple products
    det(u1, u2, u3) and det(u1, u2, u4): +1 when legs 3 and 4 sit on the
    same side of the leg-1/leg-2 plane, -1 on opposite sides, 0 when either
    is in-plane (within BRANCH_EPS on the product).
    """
    u1, u2, u3, u4 = config.rows
    p = _triple(u1, u2, u3) * _triple(u1, u2, u4)
    if abs(p) < BRANCH_EPS:
        return 0
    return 1 if p > 0.0 else -1


def _leg_from_angles(a102: float, a10i: float, a20i: float, s: float):
    """Cartesian leg with the two prescribed cosines against legs 1 and 2;
    returns (x, y, z*z) with the z sign left to the caller."""
    x = math.cos(a10i)
    y = (math.cos(a20i) - math.cos(a102) * x) / s
    return x, y, 1.0 - x * x - y * y


def config_from_five_angles(fa: FiveAngles, branch: int) -> DirectionConfig:
    """Rebuild a canonical direction configuration from five angles.

    Leg 3 takes the non-negative z root; leg 4's z sign is set so the
    configuration realizes the requested radical branch.  Raises
    UnrealizableTriple when a z*z comes out negative beyond tolerance.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    s = math.sin(fa.a102)
    if s <= MIN_BASE_SIN:
        raise DegenerateBaseAngle(
            f"sin(a102) = {s:.3e} is too small for the frame equations"
        )
    x3, y3, z3sq = _leg_from_angles(fa.a102, fa.a103, fa.a203, s)
    x4, y4, z4sq = _leg_from_angles(fa.a102, fa.a104, fa.a204, s)
    if z3sq < -GRAM_TOL or z4sq < -GRAM_TOL:
        raise UnrealizableTriple(
            f"no real z component: z3^2 = {z3sq:.3e}, z4^2 = {z4sq:.3e}"
        )
    z3 = math.sqrt(max(z3sq, 0.0))
    z4 = branch * math.sqrt(max(z4sq, 0.0))
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [math.cos(fa.a102), s, 0.0],
            [x3, y3, z3],
            [x4, y4, z4],
        ]
    )
    # clamped roots can leave a row marginally short of unit length
    rows[2] /= np.linalg.norm(rows[2])
    rows[3] /= np.linalg.norm(rows[3])
    _, r2, r3, r4 = rows.tolist()
    return _config_from_canonical_rows(r2, r3, r4)


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

    Raises InfeasiblePair when no induced a103 exists, and
    DegenerateBaseAngle when sin^2(a102) is at most MIN_BASE_SIN, which
    keeps that rounding error near 1e-6 or below.
    """
    a102 = _check_range("a102", a102)
    a203 = _check_range("a203", a203)
    c = -(1.0 + math.cos(a102) + math.cos(a203))
    if not -1.0 < c < 1.0:
        raise InfeasiblePair(
            f"induced cosine {c:.6f} is outside (-1, 1); the pair admits no "
            "third angle under the cosine-sum identity"
        )
    s = math.sin(a102)
    if s * s <= MIN_BASE_SIN:
        raise DegenerateBaseAngle(
            f"sin(a102) = {s:.3e} is too small for the substituted formula"
        )
    a103 = math.acos(c)
    fa = FiveAngles(a102=a102, a103=a103, a104=a203, a203=a203, a204=a103)
    return sixth_angle(fa).branch_error(0, math.cos(a102))
