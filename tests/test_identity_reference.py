"""The identity layer against its earlier loop form.

``direction_config``, ``angle_sextuple``,
``verify_fundamental_property``, ``sixth_angle``,
``ft_substitution_residual`` and ``formula_residuals`` are straight-line
float code that reads ``DirectionConfig.rows`` and computes each cosine
once.  The ``loop_`` functions below are their definitions written with
per-pair loops, list-of-tuple rows and a cosine per use: the reference the
package must match field for field, with ``==``.  The checks read the
cosines of the leg angles, the clamped dot products, and take the cosine
of a double angle and sin a102 as polynomials and a square root of them.

The ``trig_`` functions are the earlier trigonometric route to the same
check values: ``math.cos`` of each angle and of its double, ``math.sin``
of a102, and the induced angle through ``acos``.  Both routes compute the
same quantities in exact arithmetic, so on batch-verify's corpora their
values may differ only at rounding level, by at most the bounds of
``TestCosineRouteAgainstTrigRoute``.
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
    resolve_branch,
    solve,
    verify_fundamental_property,
)
from tetrafermat.batch import _check_residuals, build_report
from tetrafermat.errors import (
    AngleOutOfRange,
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
    formula_residuals,
    sixth_angle,
)
from tetrafermat.geometry import COINCIDENT_EPS
from tetrafermat.ops import FLOATS
from tetrafermat.properties import (
    BISECTOR_EPS, DEFAULT_TOL, angle_sextuple, leg_cosines,
)
from tetrafermat.solver import INTERIOR
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


def loop_cosines(u):
    """The cosine of each leg angle: the dot product, clamped to [-1, 1]."""
    return [min(1.0, max(-1.0, _dot(u[i - 1], u[j - 1]))) for i, j in PAIRS]


def loop_angle_sextuple(u):
    return tuple(math.acos(c) for c in loop_cosines(u))


def loop_verify(u, tol=1e-6):
    """(angles, opposite, cosine sum, orthogonality, antiparallel, passed,
    flags) of ``verify_fundamental_property``, on the legs' cosines."""
    c = loop_cosines(u)
    a = tuple(math.acos(x) for x in c)
    opp = tuple(abs(c[i] - c[j]) for i, j in OPPOSITE)
    csum = abs(1.0 + c[0] + c[1] + c[2])
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


def loop_double(c):
    """cos 2a from c = cos a, in the form that rounds better on each side
    of c^2 = 1/2."""
    if c * c < 0.5:
        return 2.0 * c * c - 1.0
    return 1.0 - 2.0 * ((1.0 - c) * (1.0 + c))


def loop_radical_factor(d102, d10i, d20i, c102, c10i, c20i):
    return 1.0 + d102 + d10i + d20i - 4.0 * c102 * c10i * c20i


def loop_sixth_cosines(s, c, d):
    """(b, cos_plus, cos_minus) from sin a102, the cosines ``c`` of a102,
    a103, a104, a203, a204 and the cosines ``d`` of their doubles."""
    if s <= MIN_BASE_SIN:
        raise DegenerateBaseAngle(
            f"sin(a102) = {s:.3e} is too small for the frame equations"
        )
    c102, c103, c104, c203, c204 = c
    d102, d103, d104, d203, d204 = d
    f3 = loop_radical_factor(d102, d103, d203, c102, c103, c203)
    f4 = loop_radical_factor(d102, d104, d204, c102, c104, c204)
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
            4.0 * c103 * (c104 - c102 * c204)
            + 2.0 * (signed_b + 2.0 * c203 * (-c102 * c104 + c204))
        ) * csc2

    return b, evaluate(b), evaluate(-b)


def loop_sixth_angle(a102, a103, a104, a203, a204):
    five = (a102, a103, a104, a203, a204)
    b, cos_plus, cos_minus = loop_sixth_cosines(
        math.sin(a102), [math.cos(a) for a in five], [math.cos(2.0 * a) for a in five]
    )
    return SixthAngleResult(
        b_magnitude=b,
        cos_plus=cos_plus,
        cos_minus=cos_minus,
        realizable_plus=abs(cos_plus) <= 1.0 + REALIZABLE_TOL,
        realizable_minus=abs(cos_minus) <= 1.0 + REALIZABLE_TOL,
    )


def loop_branch_error(cos_plus, cos_minus, branch, target):
    if branch == 1:
        return abs(cos_plus - target)
    if branch == -1:
        return abs(cos_minus - target)
    return min(abs(cos_plus - target), abs(cos_minus - target))


def loop_substitution(c102, c203, s, d102, d203):
    """The substitution residual from cos a102, cos a203, sin a102 and the
    cosines of the doubles of a102 and a203; the induced cosine enters the
    formula as it is."""
    c = -(1.0 + c102 + c203)
    if not -1.0 < c < 1.0:
        raise InfeasiblePair(
            f"induced cosine {c:.6f} is outside (-1, 1); the pair admits no "
            "third angle under the cosine-sum identity"
        )
    if s * s <= MIN_BASE_SIN:
        raise DegenerateBaseAngle(
            f"sin(a102) = {s:.3e} is too small for the substituted formula"
        )
    d = loop_double(c)
    _, cos_plus, cos_minus = loop_sixth_cosines(
        s, (c102, c, c203, c203, c), (d102, d, d203, d203, d)
    )
    return loop_branch_error(cos_plus, cos_minus, 0, c102)


def loop_ft_substitution_residual(a102, a203):
    return loop_substitution(
        math.cos(a102), math.cos(a203), math.sin(a102),
        math.cos(2.0 * a102), math.cos(2.0 * a203),
    )


def loop_formula_residuals(u, branch):
    """(sixth-angle identity, substitution) of ``formula_residuals``: the
    cross-check on the legs' cosines, with ``branch`` the legs' realized
    branch."""
    c = loop_cosines(u)
    for name, x in zip(("a102", "a103", "a104", "a203", "a204"), c):
        if not -1.0 < x < 1.0:
            raise AngleOutOfRange(
                f"{name} must lie strictly between 0 and pi, got {math.acos(x)!r}"
            )
    s = math.sqrt((1.0 - c[0]) * (1.0 + c[0]))
    d = [loop_double(x) for x in c[:5]]
    _, cos_plus, cos_minus = loop_sixth_cosines(s, c[:5], d)
    return (
        loop_branch_error(cos_plus, cos_minus, branch, c[5]),
        loop_substitution(c[0], c[3], s, d[0], d[3]),
    )


def trig_ft_substitution_residual(a102, a203):
    """The substitution residual with the induced angle taken by ``acos``
    and its cosines by ``math.cos``."""
    c = -(1.0 + math.cos(a102) + math.cos(a203))
    a103 = math.acos(c)
    return loop_sixth_angle(a102, a103, a203, a203, a103).branch_error(
        0, math.cos(a102)
    )


def trig_checks(u, branch):
    """(opposite angles, cosine sum, sixth-angle identity, substitution) of
    batch-verify on the legs ``u`` by the trigonometric route: the angles'
    cosines as ``math.cos`` of their arccosines."""
    a = loop_angle_sextuple(u)
    cos = [math.cos(x) for x in a]
    return (
        max(abs(cos[i] - cos[j]) for i, j in OPPOSITE),
        abs(1.0 + cos[0] + cos[1] + cos[2]),
        loop_sixth_angle(*a[:5]).branch_error(branch, cos[5]),
        trig_ft_substitution_residual(a[0], a[3]),
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
    assert outcome(
        formula_residuals, cfg.rows, leg_cosines(cfg.rows, FLOATS), FLOATS
    ) == outcome(loop_formula_residuals, units, resolve_branch(cfg))


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


class TestCosineRouteAgainstTrigRoute:
    """batch-verify's check values against the trigonometric route.

    Measured per instance, the routes differ by at most (seeds 0-1, 1823
    interior instances; seeds 0-19, 18 410):

    - opposite angles 4.4e-16 and 4.4e-16, cosine sum 5.0e-16 and 5.6e-16:
      one rounding of each cosine;
    - sixth-angle identity 1.1e-13 and 1.8e-13, substitution 8.4e-14 and
      4.9e-13: rounding amplified by 1 / sin^2(a102).

    The bounds, 2e-15 and 1e-12, leave a factor of at least 3.6 and 2 over
    every seed of 0-19.  The bisector residuals read the legs, not the
    angles, and are the same on both routes.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_verify_seeds(self, seed):
        checked = 0
        for i in range(1000):
            report = build_report(random_tetrahedron(seed, i), DEFAULT_TOL)
            if report.solution.kind != INTERIOR:
                continue
            got = _check_residuals(report)
            units = [list(r) for r in report.frame.rows]
            opp, csum, identity, substitution = trig_checks(
                units, resolve_branch(report.frame)
            )
            assert abs(got["opposite_angles"] - opp) <= 2e-15
            assert abs(got["cosine_sum"] - csum) <= 2e-15
            assert abs(got["sixth_angle_identity"] - identity) <= 1e-12
            assert abs(got["substitution_residual"] - substitution) <= 1e-12
            _, _, _, orth, anti, _, _ = loop_verify(units)
            assert got["bisector_orthogonality"] == max(orth)
            assert got["bisector_antiparallel"] == max(anti)
            checked += 1
        assert checked > 800
