import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrafermat import (
    DegenerateBaseAngle,
    DirectionConfig,
    FiveAngles,
    InfeasiblePair,
    UnrealizableTriple,
    angle_sextuple,
    config_from_five_angles,
    direction_config,
    ft_substitution_residual,
    resolve_branch,
    sixth_angle,
    solve,
)
from tetrafermat.formula import MIN_BASE_SIN, _radical
from tetrafermat.sampling import random_tetrahedron

from corpora import (
    balanced_quadruple,
    random_five_angles,
    random_unit_quadruple,
)
from conftest import ARCCOS_THIRD


def five(*values) -> FiveAngles:
    return FiveAngles(*values)


def measured_five(config) -> FiveAngles:
    s = angle_sextuple(config)
    return FiveAngles(s.a102, s.a103, s.a104, s.a203, s.a204)


def radical_factor(a102, a10i, a20i) -> float:
    """``sixth_angle``'s factor under the radical for one angle triple."""
    return _radical(
        math.cos(2.0 * a102), math.cos(2.0 * a10i), math.cos(2.0 * a20i),
        math.cos(a102), math.cos(a10i), math.cos(a20i),
    )


class TestSixthAngle:
    def test_regular_selects_minus_branch(self):
        r = sixth_angle(five(*(ARCCOS_THIRD,) * 5))
        assert r.cos_minus == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert r.cos_plus == pytest.approx(1.0, abs=1e-12)
        assert r.b_magnitude == pytest.approx(32.0 / 27.0, abs=1e-12)
        assert r.realizable_plus and r.realizable_minus

    def test_orthogonal_triple_plus_branch(self):
        # u1, u2, u3 orthonormal and u4 = (1/2, 1/2, sqrt(1/2)) realize
        # these five angles; the sixth is 45 degrees on the plus branch
        r = sixth_angle(
            five(math.pi / 2, math.pi / 2, math.pi / 3, math.pi / 2, math.pi / 3)
        )
        assert r.cos_plus == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert r.angle(1) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_coplanar_first_triple_collapses_radical(self):
        # legs 1-3 coplanar at 120 degrees; leg 4 symmetric over them.
        # Realizable only for apex angles in [pi/3, 2pi/3], where the
        # oracle u4 = (c, sqrt(3) c, z), c = cos(apex), gives the sixth
        # cosine -2c for either z sign.
        a = 2.0 * math.pi / 3.0
        apex = 1.2
        r = sixth_angle(five(a, a, apex, a, apex))
        assert r.b_magnitude <= 1e-7
        assert r.cos_plus == pytest.approx(-2.0 * math.cos(apex), abs=1e-7)
        assert r.cos_minus == pytest.approx(-2.0 * math.cos(apex), abs=1e-7)

    def test_cos_plus_dominates(self):
        for i in range(50):
            fa = measured_five(DirectionConfig(random_unit_quadruple(3, i)))
            r = sixth_angle(fa)
            assert r.cos_plus >= r.cos_minus
            f3 = radical_factor(fa.a102, fa.a103, fa.a203)
            f4 = radical_factor(fa.a102, fa.a104, fa.a204)
            assert r.b_magnitude ** 2 == pytest.approx(
                f3 * f4, abs=1e-9, rel=1e-9
            )

    def test_unrealizable_triple_rejected(self):
        # 170 degrees between legs 3 and 1 but only 10 between legs 3 and 2
        # while legs 1 and 2 are 10 apart: no unit vectors do that
        d = math.radians
        with pytest.raises(UnrealizableTriple):
            sixth_angle(five(d(10), d(170), d(10), d(10), d(170)))

    def test_borderline_realizable_triples_accepted(self):
        # both Gram factors of this set are barely negative (about -1.3e-3),
        # so it is realizable and must evaluate, not raise
        d = math.radians
        r = sixth_angle(five(d(10), d(170), d(10), d(170), d(10)))
        assert r.realizable_plus and r.realizable_minus

    def test_near_planar_base_angle_rejected(self):
        for a102 in (1e-10, math.pi - 1e-10):
            with pytest.raises(DegenerateBaseAngle):
                sixth_angle(five(a102, 1.0, 1.0, 1.0, 1.0))

    def test_angle_range_validated(self):
        with pytest.raises(ValueError):
            five(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            five(1.0, math.pi, 1.0, 1.0, 1.0)

    def test_unrealizable_cosine_is_reported_not_clamped(self):
        r = sixth_angle(five(*(ARCCOS_THIRD,) * 5))
        # the spurious branch may exceed 1 on other inputs; here it hits 1
        assert r.cosine(1) == r.cos_plus
        assert r.cosine(-1) == r.cos_minus
        with pytest.raises(ValueError):
            r.cosine(0)


class TestGramFactor:
    @given(
        st.floats(min_value=0.05, max_value=3.09),
        st.floats(min_value=0.05, max_value=3.09),
        st.floats(min_value=0.05, max_value=3.09),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_minus_two_gram_determinants(self, a, b, c):
        g = np.array(
            [
                [1.0, math.cos(a), math.cos(b)],
                [math.cos(a), 1.0, math.cos(c)],
                [math.cos(b), math.cos(c), 1.0],
            ]
        )
        assert radical_factor(a, b, c) == pytest.approx(
            -2.0 * np.linalg.det(g), abs=1e-10
        )


class TestResolveBranch:
    def test_regular_is_minus(self):
        v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
        cfg = DirectionConfig(v / math.sqrt(3.0))
        assert resolve_branch(cfg) == -1

    def test_same_side_is_plus(self):
        u4 = np.array([0.5, 0.5, math.sqrt(0.5)])
        cfg = DirectionConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1), u4))
        assert resolve_branch(cfg) == 1

    def test_coplanar_leg_is_zero(self):
        a = 0.8
        cfg = DirectionConfig(
            ((1, 0, 0), (0, 1, 0), (math.cos(a), math.sin(a), 0), (0, 0, 1))
        )
        assert resolve_branch(cfg) == 0


class TestConfigFromFiveAngles:
    def test_regular_reconstruction_is_balanced(self):
        cfg = config_from_five_angles(five(*(ARCCOS_THIRD,) * 5), branch=-1)
        gram = cfg.units @ cfg.units.T
        off = gram[np.triu_indices(4, 1)]
        assert np.allclose(off, -1.0 / 3.0, atol=1e-12)
        assert np.linalg.norm(cfg.units.sum(axis=0)) < 1e-9

    def test_orthogonal_triple_recovers_leg4(self):
        cfg = config_from_five_angles(
            five(math.pi / 2, math.pi / 2, math.pi / 3, math.pi / 2, math.pi / 3),
            branch=1,
        )
        assert np.allclose(cfg.units[3], [0.5, 0.5, math.sqrt(0.5)], atol=1e-12)

    def test_round_trip_on_random_configurations(self):
        for i in range(200):
            fa, branch, cfg = random_five_angles(7, i)
            rebuilt = angle_sextuple(config_from_five_angles(fa, branch))
            # all six angles, a304 included: the rebuilt legs are the
            # measured ones up to a rotation or a mirror
            assert np.allclose(
                rebuilt.as_tuple(), angle_sextuple(cfg).as_tuple(), atol=1e-9
            )

    def test_unrealizable_rejected(self):
        d = math.radians
        with pytest.raises(UnrealizableTriple):
            config_from_five_angles(
                five(d(10), d(170), d(10), d(10), d(170)), branch=1
            )

    def test_branch_validated(self):
        with pytest.raises(ValueError):
            config_from_five_angles(five(*(ARCCOS_THIRD,) * 5), branch=0)


class TestFormulaAgainstGeometry:
    def test_balanced_quadruples(self):
        for i in range(100):
            cfg = DirectionConfig(balanced_quadruple(29, i))
            self._check_identity(cfg)

    def test_unbalanced_quadruples(self):
        # the identity is pure direction geometry; balance is not needed
        for i in range(100):
            cfg = DirectionConfig(random_unit_quadruple(31, i))
            self._check_identity(cfg)

    @staticmethod
    def _check_identity(cfg):
        s = angle_sextuple(cfg)
        fa = FiveAngles(s.a102, s.a103, s.a104, s.a203, s.a204)
        r = sixth_angle(fa)
        assert r.branch_error(resolve_branch(cfg), math.cos(s.a304)) <= 1e-8


class TestSubstitutionResidual:
    def test_regular_pair_vanishes(self):
        assert ft_substitution_residual(ARCCOS_THIRD, ARCCOS_THIRD) < 1e-9

    def test_right_angle_pair_is_infeasible(self):
        with pytest.raises(InfeasiblePair):
            ft_substitution_residual(math.pi / 2, math.pi / 2)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            ft_substitution_residual(0.0, 1.0)

    @pytest.mark.parametrize("a203", [0.1, 1.0])
    def test_base_angle_ladder_toward_pi(self, a203):
        # Rounding grows like 1e-15 / sin^2(a102), which is order 1 by
        # k = 8; sin^2(a102) is about 10^-2k, at or below MIN_BASE_SIN
        # from k = 5.
        for k in range(2, 10):
            a102 = math.pi - 10.0 ** -k
            if k <= 4:
                assert ft_substitution_residual(a102, a203) < 1e-8
            else:
                with pytest.raises(DegenerateBaseAngle):
                    ft_substitution_residual(a102, a203)

    def test_interior_solutions_satisfy_the_implicit_relation(self):
        checked = 0
        for i in range(100):
            t = random_tetrahedron(0, i)
            sol = solve(t)
            if sol.kind != "interior":
                continue
            s = angle_sextuple(direction_config(t, sol.point))
            assert ft_substitution_residual(s.a102, s.a203) < 1e-6
            checked += 1
        assert checked >= 80

    def test_feasible_pairs_come_from_balanced_configurations(self):
        # Whenever the induced third angle exists, the minus-branch
        # reconstruction of the substituted five-angle set is balanced, so
        # the pair is realized by an interior minimizer and the residual
        # vanishes; infeasible pairs raise instead of returning large values.
        a102, a203 = 1.9, 2.2
        assert ft_substitution_residual(a102, a203) < 1e-12
        induced = math.acos(-(1.0 + math.cos(a102) + math.cos(a203)))
        fa = five(a102, induced, a203, a203, induced)
        cfg = config_from_five_angles(fa, branch=-1)
        assert np.linalg.norm(cfg.units.sum(axis=0)) < 1e-12
        s = angle_sextuple(cfg)
        assert s.a304 == pytest.approx(a102, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=math.pi, exclude_min=True,
                  exclude_max=True),
        st.floats(min_value=0.0, max_value=math.pi, exclude_min=True,
                  exclude_max=True),
    )
    @settings(max_examples=500, deadline=None)
    def test_identity_over_the_feasible_region(self, a102, a203):
        # The residual vanishes on every feasible pair, not only on pairs
        # measured at a minimizer.  Its evaluation divides by sin^2(a102),
        # so the rounding error grows like eps / sin^2(a102) as a102 nears
        # pi (the only edge the feasible region reaches); the bound below
        # is 1e-11 wherever sin(a102) >= 0.032.
        c = -(1.0 + math.cos(a102) + math.cos(a203))
        if not -1.0 < c < 1.0:
            with pytest.raises(InfeasiblePair):
                ft_substitution_residual(a102, a203)
            return
        s = math.sin(a102)
        if s * s <= MIN_BASE_SIN:
            with pytest.raises(DegenerateBaseAngle):
                ft_substitution_residual(a102, a203)
            return
        assert ft_substitution_residual(a102, a203) * s * s <= 1e-14
