import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrafermat import (
    AngleSextuple,
    angle_sextuple,
    canonical_frame,
    direction_config,
    solve,
    verify_fundamental_property,
)
from tetrafermat.properties import _angle_residuals
from tetrafermat.sampling import (
    balanced_quadruple,
    canonical_config,
    random_tetrahedron,
    random_unit_quadruple,
)

from conftest import ARCCOS_THIRD


def regular_config():
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
    return canonical_frame(*(v / math.sqrt(3.0)))


class TestAngleSextuple:
    def test_regular_directions(self):
        s = angle_sextuple(regular_config())
        assert np.allclose(s.as_tuple(), ARCCOS_THIRD, atol=1e-12)

    def test_axes_plus_diagonal(self):
        u4 = -np.ones(3) / math.sqrt(3.0)
        cfg = canonical_frame((1, 0, 0), (0, 1, 0), (0, 0, 1), u4)
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
        opposite, cosine_sum = _angle_residuals(s)
        assert max(opposite) <= 1e-6
        assert cosine_sum <= 1e-6


class TestChecks:
    def test_opposite_angles_zero_for_regular(self):
        s = AngleSextuple(*(ARCCOS_THIRD,) * 6)
        assert _angle_residuals(s)[0] == (0.0, 0.0, 0.0)

    def test_opposite_angles_detects_perturbation(self):
        s = AngleSextuple(*(ARCCOS_THIRD,) * 5, ARCCOS_THIRD + 0.1)
        res = _angle_residuals(s)[0]
        expected = abs(math.cos(ARCCOS_THIRD) - math.cos(ARCCOS_THIRD + 0.1))
        assert res[0] == pytest.approx(expected, abs=1e-15)
        assert res[0] > 0
        assert res[1] == res[2] == 0.0

    def test_cosine_sum_regular(self):
        s = AngleSextuple(*(ARCCOS_THIRD,) * 6)
        assert _angle_residuals(s)[1] <= 1e-15

    def test_cosine_sum_right_angles(self):
        s = AngleSextuple(*(math.pi / 2,) * 6)
        assert _angle_residuals(s)[1] == pytest.approx(1.0, abs=1e-15)


class TestBisectors:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_squared_norm_identity(self, seed):
        # |u_i + u_j|^2 = 2 (1 + cos a_i0j), pairs in the sextuple's order
        u = random_unit_quadruple(seed, 0)
        cfg = canonical_config(u)
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
            cfg = canonical_config(random_unit_quadruple(23, i))
            assert verify_fundamental_property(cfg).angles == angle_sextuple(cfg)

    def test_balanced_quadruples_pass(self):
        for i in range(50):
            u = balanced_quadruple(23, i)
            report = verify_fundamental_property(canonical_config(u))
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
        report = verify_fundamental_property(canonical_config(u))
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
            cfg = canonical_config(u)
            s = angle_sextuple(cfg)
            u1, u2, u3, _ = cfg.units
            expected = 1 + math.cos(s.a102) + math.cos(s.a103) + math.cos(s.a203)
            assert float((u1 + u2) @ (u2 + u3)) == pytest.approx(expected, abs=1e-12)
            assert float((u1 + u2) @ (u1 + u3)) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_bisector_is_flagged(self):
        cfg = canonical_frame((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1))
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
