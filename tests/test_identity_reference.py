"""The identity layer against its earlier loop form.

``direction_config``, ``angle_sextuple``,
``verify_fundamental_property``, ``sixth_angle`` and
``ft_substitution_residual`` are straight-line float code that reads
``DirectionConfig.rows`` and computes each cosine once.  The functions
below are their earlier bodies, with per-pair loops, list-of-tuple rows and
a cosine per use: the reference the package must match field for field,
with ``==``.
"""

import math

import numpy as np
import pytest

from tetrafermat import (
    DirectionConfig,
    SixthAngleResult,
    TetrafermatError,
    direction_config,
    ft_substitution_residual,
    hull_points,
    solve,
    verify_fundamental_property,
)
from tetrafermat.errors import (
    CoincidentPoints,
    DegenerateBaseAngle,
    InfeasiblePair,
    UnrealizableTriple,
)
from tetrafermat.formula import (
    GRAM_TOL,
    MIN_BASE_SIN,
    REALIZABLE_TOL,
    FiveAngles,
    sixth_angle,
)
from tetrafermat.geometry import COINCIDENT_EPS
from tetrafermat.properties import BISECTOR_EPS, angle_sextuple
from tetrafermat.sampling import random_tetrahedron

from corpora import balanced_quadruple, random_unit_quadruple

PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
OPPOSITE = ((0, 5), (3, 2), (1, 4))


def loop_unit(a, b):
    ax, ay, az = a
    bx, by, bz = b
    dx = bx - ax
    dy = by - ay
    dz = bz - az
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    scale = max(
        math.sqrt(ax * ax + ay * ay + az * az), math.sqrt(bx * bx + by * by + bz * bz)
    )
    if n <= COINCIDENT_EPS * scale or n == 0.0:
        raise CoincidentPoints(f"points {a} and {b} coincide")
    return dx / n, dy / n, dz / n


def loop_direction_config(tetra, point):
    """The unit legs from the point toward each vertex, one row at a time."""
    p = np.asarray(point, dtype=float).tolist()
    return [list(loop_unit(p, v)) for v in tetra.vertices.tolist()]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def loop_angle_sextuple(u):
    angles = []
    for i, j in PAIRS:
        c = _dot(u[i - 1], u[j - 1])
        angles.append(math.acos(min(1.0, max(-1.0, c))))
    return tuple(angles)


def loop_verify(u, tol=1e-6):
    """(angles, opposite, cosine sum, orthogonality, antiparallel, passed,
    flags) of the earlier ``verify_fundamental_property``."""
    a = loop_angle_sextuple(u)
    opp = tuple(abs(math.cos(a[i]) - math.cos(a[j])) for i, j in OPPOSITE)
    csum = abs(1.0 + math.cos(a[0]) + math.cos(a[1]) + math.cos(a[2]))
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
    flags = []
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
    return a, opp, csum, orth, tuple(anti), passed, tuple(flags)


def loop_radical_factor(a102, a10i, a20i):
    return (
        1.0
        + math.cos(2.0 * a102)
        + math.cos(2.0 * a10i)
        + math.cos(2.0 * a20i)
        - 4.0 * math.cos(a102) * math.cos(a10i) * math.cos(a20i)
    )


def loop_sixth_angle(a102, a103, a104, a203, a204):
    s = math.sin(a102)
    if s <= MIN_BASE_SIN:
        raise DegenerateBaseAngle(
            f"sin(a102) = {s:.3e} is too small for the frame equations"
        )
    f3 = loop_radical_factor(a102, a103, a203)
    f4 = loop_radical_factor(a102, a104, a204)
    if f3 > GRAM_TOL or f4 > GRAM_TOL:
        raise UnrealizableTriple(
            f"radical factors must be non-positive, got {f3:.3e} and {f4:.3e}"
        )
    product = f3 * f4
    if product < 0.0:
        product = 0.0
    b = math.sqrt(product)
    csc2 = 1.0 / (s * s)

    def evaluate(signed_b):
        return 0.25 * (
            4.0 * math.cos(a103)
            * (math.cos(a104) - math.cos(a102) * math.cos(a204))
            + 2.0 * (
                signed_b
                + 2.0 * math.cos(a203)
                * (-math.cos(a102) * math.cos(a104) + math.cos(a204))
            )
        ) * csc2

    cos_plus = evaluate(b)
    cos_minus = evaluate(-b)
    return SixthAngleResult(
        b_magnitude=b,
        cos_plus=cos_plus,
        cos_minus=cos_minus,
        realizable_plus=abs(cos_plus) <= 1.0 + REALIZABLE_TOL,
        realizable_minus=abs(cos_minus) <= 1.0 + REALIZABLE_TOL,
    )


def loop_ft_substitution_residual(a102, a203):
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
    return loop_sixth_angle(a102, a103, a203, a203, a103).branch_error(
        0, math.cos(a102)
    )


def outcome(fn, *args):
    """A call's value, or the type and text of the package error it raised."""
    try:
        return fn(*args)
    except TetrafermatError as exc:
        return type(exc), str(exc)


def same(a, b) -> bool:
    """``==``, with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_config_matches(cfg, ref):
    assert cfg.units.tolist() == ref
    assert cfg.rows == tuple(map(tuple, ref))


def assert_identities_match(cfg):
    """Every layer after the legs, on one configuration."""
    units = [list(r) for r in cfg.rows]
    angles, opp, csum, orth, anti, passed, flags = loop_verify(units)
    assert angle_sextuple(cfg).as_tuple() == angles
    report = verify_fundamental_property(cfg)
    assert report.angles.as_tuple() == angles
    assert report.opposite_angle_residuals == opp
    assert report.cosine_sum_residual == csum
    assert report.bisector_dot_residuals == orth
    assert len(report.antiparallel_residuals) == 3
    assert all(map(same, report.antiparallel_residuals, anti))
    assert report.tol == 1e-6
    assert report.passed == passed
    assert report.flags == flags
    five = angles[:5]
    assert outcome(lambda: sixth_angle(FiveAngles(*five))) == outcome(
        loop_sixth_angle, *five
    )
    assert outcome(ft_substitution_residual, angles[0], angles[3]) == outcome(
        loop_ft_substitution_residual, angles[0], angles[3]
    )


class TestIdentityLoopReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_solved_points(self, seed):
        checked = 0
        for i in range(1000):
            t = random_tetrahedron(seed, i)
            sol = solve(t)
            if sol.kind != "interior":
                continue
            cfg = direction_config(t, sol.point)
            assert_config_matches(cfg, loop_direction_config(t, sol.point))
            assert_identities_match(cfg)
            checked += 1
        assert checked > 800

    def test_hull_points(self):
        t = random_tetrahedron(1, 0)
        for p in hull_points(t, 200, np.random.default_rng(5)):
            cfg = direction_config(t, p)
            assert_config_matches(cfg, loop_direction_config(t, p))
            assert_identities_match(cfg)

    @pytest.mark.parametrize(
        "quadruple", [random_unit_quadruple, balanced_quadruple],
        ids=["unbalanced", "balanced"],
    )
    def test_quadruples(self, quadruple):
        for i in range(500):
            u = quadruple(0, i)
            cfg = DirectionConfig(u)
            assert_config_matches(cfg, u.tolist())
            assert_identities_match(cfg)

    def test_degenerate_bisector(self):
        cfg = DirectionConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)))
        assert verify_fundamental_property(cfg).flags
        assert_identities_match(cfg)
