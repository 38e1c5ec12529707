import math
import warnings

import numpy as np
import pytest

from tetrafermat import geometry
from tetrafermat import (
    CoincidentPoints,
    DegenerateInput,
    DirectionConfig,
    FiveAngles,
    Tetrahedron,
    angle_sextuple,
    direction_config,
    hull_points,
    resolve_branch,
    sixth_angle,
    solve,
    verify_fundamental_property,
)
from tetrafermat.sampling import random_tetrahedron

from corpora import balanced_quadruple, random_rotation, random_unit_quadruple
from conftest import scale_error_ulps


def pairwise_angles(units: np.ndarray) -> np.ndarray:
    c = np.clip(units @ units.T, -1.0, 1.0)
    return np.arccos(c)[np.triu_indices(4, 1)]


def numpy_legs(tetra: Tetrahedron, point: np.ndarray) -> np.ndarray:
    """Reference legs in numpy: (v - p) / |v - p| for each vertex v."""
    d = tetra.vertices - point
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def check_values(cfg: DirectionConfig):
    """Every value a check reads off a configuration: the angles, the
    identity residuals, the radical branch and the sixth-angle error."""
    s = angle_sextuple(cfg)
    r = verify_fundamental_property(cfg)
    branch = resolve_branch(cfg)
    error = sixth_angle(FiveAngles(*s.as_tuple()[:5])).branch_error(
        branch, math.cos(s.a304)
    )
    residuals = (
        *r.opposite_angle_residuals,
        r.cosine_sum_residual,
        *r.bisector_dot_residuals,
        *r.antiparallel_residuals,
    )
    return s.as_tuple(), residuals, branch, error


class TestTetrahedron:
    def test_rejects_coplanar(self):
        with pytest.raises(DegenerateInput):
            Tetrahedron(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]]))

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateInput):
            Tetrahedron(np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DegenerateInput):
            Tetrahedron(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.inf]]))

    def test_relative_volume_threshold(self):
        # scaling a valid tetrahedron down must not make it degenerate
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]]) * 1e-6
        Tetrahedron(v)

    @pytest.mark.parametrize("factor", [1.0, 1e103, 1e-110])
    def test_scale_is_longest_edge_at_any_scale(self, factor):
        # well-shaped inputs stay valid at extreme scales (the relative
        # volume test must neither overflow nor underflow), and scale is
        # the exact longest edge to within 2 units in its last place
        for i in range(100):
            v = random_tetrahedron(0, i).vertices * factor
            assert scale_error_ulps(v, Tetrahedron(v).scale) <= 2.0

    def test_rejects_overflowing_scale(self):
        # an edge longer than the largest float: the typed error, with no
        # numpy overflow warning on the way
        v = [[-1e308, 0, 0], [1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]
        with pytest.raises(DegenerateInput, match="is inf"), warnings.catch_warnings():
            warnings.simplefilter("error")
            Tetrahedron(v)

    def test_rejects_coincident_points(self):
        with pytest.raises(DegenerateInput):
            Tetrahedron(np.ones((4, 3)))

    def test_volume_and_scale(self, regular_tetra):
        # edge length 2*sqrt(2)
        a = 2.0 * math.sqrt(2.0)
        assert regular_tetra.scale == pytest.approx(a, abs=1e-14)

    def test_vertex_label_bounds(self, regular_tetra):
        assert np.array_equal(regular_tetra.vertex(1), regular_tetra.vertices[0])
        with pytest.raises(ValueError):
            regular_tetra.vertex(0)

    def test_vertices_are_read_only(self, regular_tetra):
        with pytest.raises(ValueError):
            regular_tetra.vertices[0, 0] = 9.0

    def test_callers_array_stays_writable(self):
        a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        t = Tetrahedron(a)
        a[0, 0] = 5.0
        assert t.vertices[0, 0] == 0.0


class TestCanonicalFrame:
    """``DirectionConfig`` keeps four unit legs as given, in any frame."""

    def test_axis_example_preserves_angles(self):
        u_in = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, -1.0]])
        cfg = DirectionConfig(u_in)
        assert np.array_equal(cfg.units, u_in)
        assert angle_sextuple(cfg).a102 == pytest.approx(math.pi / 2, abs=1e-14)
        assert np.allclose(
            angle_sextuple(cfg).as_tuple(), pairwise_angles(u_in), atol=1e-12
        )

    def test_rotation_invariance_of_angles(self):
        # every check reads dot products of legs and of their sums, or the
        # sign of det(u1, u2, u3) * det(u1, u2, u4), so a rotation, and a
        # rotation followed by a mirror, of the legs leaves each value as it is
        for quadruple in (balanced_quadruple, random_unit_quadruple):
            for seed in range(200):
                u = quadruple(seed, 0)
                r = random_rotation(np.random.default_rng(seed))
                angles, residuals, branch, error = check_values(DirectionConfig(u))
                for turned in (u @ r.T, u @ r.T * (1.0, 1.0, -1.0)):
                    a, res, b, e = check_values(DirectionConfig(turned))
                    assert np.abs(np.subtract(a, angles)).max() <= 1e-12
                    assert np.abs(np.subtract(res, residuals)).max() <= 1e-12
                    assert b == branch
                    assert abs(e - error) <= 1e-12

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError, match="finite unit vectors"):
            DirectionConfig(((1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_config_validates_rows(self):
        # leg 1 need not lie on the x-axis, but every row must be a unit leg
        u = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, -1.0]])
        assert DirectionConfig(u).rows == tuple(map(tuple, u.tolist()))
        u[0, 1] = 1.0 + 1e-11
        with pytest.raises(ValueError, match="finite unit vectors"):
            DirectionConfig(u)

    @pytest.mark.parametrize(
        "units",
        [
            [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1.0, 0], [0, 1], [1, 0], [0, 1]],
            [[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1.0, 0, 0], [0, 1], [0, 0, 1], [0, 0, 1]],
            [1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
        ],
        ids=["three_rows", "two_columns", "four_columns", "ragged", "flat"],
    )
    def test_config_rejects_wrong_shape(self, units):
        with pytest.raises(ValueError, match="expected 4 direction rows"):
            DirectionConfig(units)

    @pytest.mark.parametrize(
        "leg3",
        [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (5.0, 0.0, 0.0),
         (1.0 + 1e-11, 0.0, 0.0)],
        ids=["nan", "inf", "five", "long"],
    )
    def test_config_rejects_nonfinite_and_non_unit_rows(
        self, leg3, right_corner, monkeypatch
    ):
        # unchecked, a NaN leg clamps to cos = -1 and a long one to cos = 1,
        # so the angles would come out as pi and 0 without any error
        legs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), leg3, (0.0, 0.0, 1.0)]
        with pytest.raises(ValueError, match="finite unit vectors"):
            DirectionConfig(np.array(legs))
        # direction_config builds its record from the float legs it
        # computed, uncoerced, and checks them the same way
        monkeypatch.setattr(
            geometry, "unit_legs", lambda q, rows, xp: (legs, [True] * 4, 1.0)
        )
        with pytest.raises(ValueError, match="finite unit vectors"):
            direction_config(right_corner, (0.25, 0.25, 0.25))


class TestDirectionConfig:
    def test_matches_numpy_legs_at_solved_points(self):
        checked = 0
        for i in range(500):
            t = random_tetrahedron(0, i)
            sol = solve(t)
            if sol.kind != "interior":
                continue
            cfg = direction_config(t, sol.point)
            assert np.abs(cfg.units - numpy_legs(t, sol.point)).max() <= 1e-13
            checked += 1
        assert checked > 400

    def test_matches_numpy_legs_at_hull_points(self):
        t = random_tetrahedron(1, 0)
        for p in hull_points(t, 200, np.random.default_rng(5)):
            legs = numpy_legs(t, p)
            assert np.abs(direction_config(t, p).units - legs).max() <= 1e-13

    def test_rows_are_the_record(self):
        t = random_tetrahedron(0, 0)
        cfg = direction_config(t, solve(t).point)
        again = DirectionConfig(cfg.rows)
        assert again == cfg
        assert hash(again) == hash(cfg)
        assert DirectionConfig(cfg.units) == cfg
        assert np.array_equal(cfg.units, np.array(cfg.rows))
        with pytest.raises(ValueError):
            cfg.units[2, 2] = 0.0

    def test_point_on_vertex_rejected(self, right_corner):
        for i in (1, 2, 3, 4):
            with pytest.raises(CoincidentPoints):
                direction_config(right_corner, right_corner.vertex(i))

    def test_relatively_coincident_point_rejected(self, right_corner):
        # a 1e-7 leg is below COINCIDENT_EPS x the point norm, about 1.7e8
        t = Tetrahedron(right_corner.vertices + 1e8)
        with pytest.raises(CoincidentPoints):
            direction_config(t, t.vertex(1) + (0.0, 0.0, 1e-7))

    def test_nonfinite_point_rejected(self, right_corner):
        with pytest.raises(ValueError):
            direction_config(right_corner, (np.nan, 0.0, 0.0))

    @pytest.mark.parametrize(
        "factor, point",
        [
            (1e-100, (1e210, 0.0, 0.0)),
            (1.0, (1e300, 0.0, 0.0)),
            (1.0, (-1e155, 0.0, 0.0)),
        ],
    )
    def test_far_point_whose_length_overflows(self, right_corner, factor, point):
        # the point times the frame's power of two, or its squared norm,
        # overflows: the legs are still the unit vectors toward the vertices,
        # all of them the direction back to the tetrahedron
        t = Tetrahedron(right_corner.vertices * factor)
        units = direction_config(t, point).units
        assert np.isfinite(units).all()
        back = -np.sign(point[0]) * np.array([1.0, 0.0, 0.0])
        assert np.abs(units - back).max() <= 1e-15
        assert np.abs((units * units).sum(axis=1) - 1.0).max() <= 1e-15

    def test_edge_midpoint_legs_are_antiparallel(self, right_corner):
        # at the midpoint of edge A1A2 legs 1 and 2 are antiparallel up to
        # rounding; acos near -1 magnifies that to about sqrt(eps) in a102
        t = random_tetrahedron(0, 0)
        for tetra in (right_corner, t):
            mid = 0.5 * (tetra.vertex(1) + tetra.vertex(2))
            cfg = direction_config(tetra, mid)
            assert np.abs(cfg.units[0] + cfg.units[1]).max() <= 1e-15
            assert math.pi - angle_sextuple(cfg).a102 <= 1e-7


def test_records_compare_by_value(flat_vertex_case):
    # Tetrahedron and FermatSolution hold an array field, and DirectionConfig
    # accepts one; == compares them by value and returns a bool, never raising
    t = random_tetrahedron(0, 0)
    same = Tetrahedron(t.vertices.copy())
    nudge = np.zeros((4, 3))
    nudge[0, 2] = 1e-9
    moved = Tetrahedron(t.vertices + nudge)
    assert t == same
    assert t != moved
    vertex_case = Tetrahedron(flat_vertex_case.vertices)
    for a, b in ((t, same), (flat_vertex_case, vertex_case)):
        assert solve(a) == solve(b)
    assert solve(t) != solve(moved)
    assert solve(flat_vertex_case) != solve(t)
    p = solve(t).point
    assert direction_config(t, p) == direction_config(same, p.copy())
    assert direction_config(t, p) != direction_config(t, p + (1e-6, 0.0, 0.0))
    assert direction_config(t, p) != direction_config(moved, p)
