import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrafermat import (
    AngleSextuple,
    DirectionConfig,
    angle_sextuple,
    direction_config,
    solve,
    verify_fundamental_property,
)
from tetrafermat import properties
from tetrafermat.ops import FLOATS, Columns
from tetrafermat.properties import (
    DEFAULT_TOL, bisector_residuals, cosine_residuals, leg_cosines,
)
from tetrafermat.sampling import random_tetrahedron

from corpora import balanced_quadruple, random_unit_quadruple
from conftest import ARCCOS_THIRD


def angle_residuals(s):
    """The opposite-angle and cosine-sum residuals of a sextuple."""
    return cosine_residuals([math.cos(a) for a in s.as_tuple()])


def regular_config():
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
    return DirectionConfig(v / math.sqrt(3.0))


class TestAngleSextuple:
    def test_regular_directions(self):
        s = angle_sextuple(regular_config())
        assert np.allclose(s.as_tuple(), ARCCOS_THIRD, atol=1e-12)

    def test_axes_plus_diagonal(self):
        u4 = -np.ones(3) / math.sqrt(3.0)
        cfg = DirectionConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1), u4))
        s = angle_sextuple(cfg)
        right = math.pi / 2
        diag = math.acos(-1.0 / math.sqrt(3.0))
        # field order a102, a103, a104, a203, a204, a304
        assert np.allclose(
            s.as_tuple(), (right, right, diag, right, diag, diag), atol=1e-12
        )

    def test_solution_pipeline_satisfies_invariants(self):
        t = random_tetrahedron(17, 4)
        sol = solve(t)
        assert sol.kind == "interior"
        s = angle_sextuple(direction_config(t, sol.point))
        assert all(0.0 < a < math.pi for a in s.as_tuple())
        opposite, cosine_sum = angle_residuals(s)
        assert max(opposite) <= 1e-6
        assert cosine_sum <= 1e-6


class TestChecks:
    def test_opposite_angles_zero_for_regular(self):
        s = AngleSextuple(*(ARCCOS_THIRD,) * 6)
        assert angle_residuals(s)[0] == (0.0, 0.0, 0.0)

    def test_opposite_angles_detects_perturbation(self):
        s = AngleSextuple(*(ARCCOS_THIRD,) * 5, ARCCOS_THIRD + 0.1)
        res = angle_residuals(s)[0]
        expected = abs(math.cos(ARCCOS_THIRD) - math.cos(ARCCOS_THIRD + 0.1))
        assert res[0] == pytest.approx(expected, abs=1e-15)
        assert res[0] > 0
        assert res[1] == res[2] == 0.0

    def test_cosine_sum_regular(self):
        s = AngleSextuple(*(ARCCOS_THIRD,) * 6)
        assert angle_residuals(s)[1] <= 1e-15

    def test_cosine_sum_right_angles(self):
        s = AngleSextuple(*(math.pi / 2,) * 6)
        csum = angle_residuals(s)[1]
        assert csum == pytest.approx(1.0, abs=1e-15)


def as_columns(row_sets):
    """Four (x, y, z) rows of float64 columns, one element per row set."""
    a = np.array(row_sets, dtype=float)
    return tuple(tuple(a[:, r, k] for k in range(3)) for r in range(4))


INV3, INV2 = 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0)
#: u . u rounds to 1 + 2**-52 for u = (1, 1, 1) / sqrt(3), so the dot
#: products of legs 1 and 2 and of legs 1 and 4 overshoot 1 and -1
OVERSHOOT = (
    (INV3, INV3, INV3), (INV3, INV3, INV3), (INV2, INV2, 0.0),
    (-INV3, -INV3, -INV3),
)
#: dot products -inf, -0.0, inf, +0.0, -inf and NaN (-0.0 times inf)
SPECIAL = (
    (1e200, 0.0, 0.0), (-1e200, 0.0, 0.0), (-0.0, -0.0, -0.0),
    (math.inf, 0.0, 0.0),
)


class TestKernelsOnFloatsAndColumns:
    def test_leg_cosines_clamp(self):
        c = 2.0 * INV3 * INV2
        pinned = {
            OVERSHOOT: (1.0, c, -1.0, c, -1.0, -c),
            SPECIAL: (-1.0, -0.0, 1.0, 0.0, -1.0, -1.0),
        }
        # repr tells -0.0 from 0.0
        for rows, want in pinned.items():
            got = leg_cosines(rows, FLOATS)
            assert list(map(repr, got)) == list(map(repr, want))
        with np.errstate(all="ignore"):
            columns = leg_cosines(as_columns(list(pinned)), Columns(2))
        want = [list(w) for w in pinned.values()]
        # the one difference: a NaN dot product stays NaN on columns
        want[1][5] = math.nan
        for got, w in zip(np.transpose(columns).tolist(), want):
            assert list(map(repr, got)) == list(map(repr, w))

    def test_bisector_residuals_on_columns_are_the_floats(self):
        row_sets = [
            *(random_unit_quadruple(41, i).tolist() for i in range(20)),
            *(balanced_quadruple(41, i).tolist() for i in range(20)),
            # a short bisector in each opposite pair, then both of one pair
            ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)),
        ]
        xp = Columns(len(row_sets))
        columns = bisector_residuals(as_columns(row_sets), xp)
        columns = [np.transpose(part).tolist() for part in columns]
        shorts = 0
        for i, rows in enumerate(row_sets):
            rows = tuple(tuple(map(float, r)) for r in rows)
            floats = bisector_residuals(rows, FLOATS)
            for got, want in zip(columns, floats):
                assert list(map(repr, got[i])) == list(map(repr, want))
            shorts += sum(floats[2])
        assert shorts == 4


class TestBisectors:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_squared_norm_identity(self, seed):
        # |u_i + u_j|^2 = 2 (1 + cos a_i0j), pairs in the sextuple's order
        u = random_unit_quadruple(seed, 0)
        cfg = DirectionConfig(u)
        s = angle_sextuple(cfg)
        pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        for (i, j), a in zip(pairs, s.as_tuple()):
            d = cfg.units[i] + cfg.units[j]
            assert float(d @ d) == pytest.approx(
                2.0 * (1.0 + math.cos(a)), abs=1e-12
            )


class TestFundamentalProperty:
    def test_regular_directions_pass_tightly(self):
        report = verify_fundamental_property(regular_config(), tol=1e-10)
        assert report.passed
        assert max(report.opposite_angle_residuals) <= 1e-10
        assert report.cosine_sum_residual <= 1e-10
        assert max(report.bisector_dot_residuals) <= 1e-10
        assert max(report.antiparallel_residuals) <= 1e-10

    def test_report_carries_its_sextuple(self):
        for i in range(20):
            cfg = DirectionConfig(random_unit_quadruple(23, i))
            assert verify_fundamental_property(cfg).angles == angle_sextuple(cfg)

    def test_balanced_quadruples_pass(self):
        for i in range(50):
            u = balanced_quadruple(23, i)
            report = verify_fundamental_property(DirectionConfig(u))
            assert report.passed, (i, report)

    def test_solver_pipeline_passes(self):
        checked = 0
        for i in range(60):
            t = random_tetrahedron(0, i)
            sol = solve(t)
            if sol.kind != "interior":
                continue
            report = verify_fundamental_property(direction_config(t, sol.point))
            assert report.passed
            checked += 1
        assert checked >= 40

    def test_unbalanced_quadruple_fails(self):
        # the check must not be vacuous
        u = random_unit_quadruple(123, 0)
        report = verify_fundamental_property(DirectionConfig(u))
        assert not report.passed
        worst = max(
            max(report.opposite_angle_residuals),
            report.cosine_sum_residual,
            max(report.bisector_dot_residuals),
            max(report.antiparallel_residuals),
        )
        assert worst > 0.01

    def test_orthogonality_equals_cosine_combination(self):
        # d102 . d203 = 1 + cos a102 + cos a103 + cos a203 for any directions
        for i in range(30):
            u = random_unit_quadruple(66, i)
            cfg = DirectionConfig(u)
            s = angle_sextuple(cfg)
            u1, u2, u3, _ = cfg.units
            expected = 1 + math.cos(s.a102) + math.cos(s.a103) + math.cos(s.a203)
            assert float((u1 + u2) @ (u2 + u3)) == pytest.approx(expected, abs=1e-12)
            assert float((u1 + u2) @ (u1 + u3)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", range(10))
    def test_passed_at_tol_and_one_ulp_above(self, k, monkeypatch):
        # residual k of the ten, in report order, set to tol passes; one
        # ulp above tol, or NaN, fails
        tol = DEFAULT_TOL
        for value, passed in (
            (tol, True), (math.nextafter(tol, 1.0), False), (math.nan, False)
        ):
            r = [0.0] * 10
            r[k] = value
            monkeypatch.setattr(
                properties, "cosine_residuals", lambda c: (tuple(r[:3]), r[3])
            )
            monkeypatch.setattr(
                properties, "bisector_residuals",
                lambda rows, xp: (tuple(r[4:7]), tuple(r[7:]), (False,) * 3),
            )
            report = verify_fundamental_property(regular_config(), tol)
            assert report.passed is passed

    def test_degenerate_bisector_is_flagged(self):
        cfg = DirectionConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)))
        report = verify_fundamental_property(cfg)
        assert report.flags
        assert any(math.isnan(r) for r in report.antiparallel_residuals)
        assert not report.passed

    def test_non_isogonality_witness_exists_in_corpus(self):
        # the interior minimizer is not isogonal in general: some corpus
        # instance has a102, a103, a203 pairwise apart by > 0.01 rad
        for i in range(200):
            t = random_tetrahedron(0, i)
            sol = solve(t)
            if sol.kind != "interior":
                continue
            s = angle_sextuple(direction_config(t, sol.point))
            trio = (s.a102, s.a103, s.a203)
            gaps = [abs(a - b) for a in trio for b in trio if a is not b]
            if min(gaps) > 0.01:
                return
        pytest.fail("no non-isogonal interior instance found in 200 draws")
