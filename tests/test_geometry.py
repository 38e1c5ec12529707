import math
import warnings

import numpy as np
import pytest

from tetrafermat import (
    CoincidentPoints,
    DegenerateFrame,
    DegenerateInput,
    DirectionConfig,
    Tetrahedron,
    canonical_frame,
    direction_config,
    hull_points,
    solve,
)
from tetrafermat.geometry import INPLANE_EPS
from tetrafermat.sampling import (
    random_rotation,
    random_tetrahedron,
    random_unit_quadruple,
)

from conftest import ARCCOS_THIRD


def pairwise_angles(units: np.ndarray) -> np.ndarray:
    c = np.clip(units @ units.T, -1.0, 1.0)
    return np.arccos(c)[np.triu_indices(4, 1)]


def norm_scale(v: np.ndarray) -> float:
    """Longest pairwise distance by np.linalg.norm, the reference scale."""
    return max(
        float(np.linalg.norm(v[a] - v[b])) for a in range(4) for b in range(a + 1, 4)
    )


def numpy_frame(tetra: Tetrahedron, point: np.ndarray):
    """Reference canonical frame in numpy: rotation rows e1, e2 and
    e3 = e1 x e2 applied by a matrix product, then the mirror rule.
    Returns the rotated legs and (a102, lat3, lon3, lat4, lon4)."""
    d = tetra.vertices - point
    u = d / np.linalg.norm(d, axis=1, keepdims=True)
    e1 = u[0] / np.linalg.norm(u[0])
    perp = u[1] - (u[1] @ e1) * e1
    e2 = perp / np.linalg.norm(perp)
    e3 = np.cross(e1, e2)
    rotated = u @ np.vstack([e1, e2, e3]).T
    if rotated[2, 2] < -INPLANE_EPS or (
        abs(rotated[2, 2]) <= INPLANE_EPS and rotated[3, 2] < -INPLANE_EPS
    ):
        rotated[:, 2] = -rotated[:, 2]
    lat = np.arcsin(np.clip(rotated[2:, 2], -1.0, 1.0))
    lon = np.arctan2(rotated[2:, 1], rotated[2:, 0])
    a102 = math.atan2(rotated[1, 1], rotated[1, 0])
    return rotated, (a102, lat[0], lon[0], lat[1], lon[1])


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
    def test_scale_is_norm_bit_for_bit_at_any_scale(self, factor):
        # well-shaped inputs stay valid at extreme scales (the relative
        # volume test must neither overflow nor underflow), and scale
        # equals the np.linalg.norm one exactly
        for i in range(100):
            v = random_tetrahedron(0, i).vertices * factor
            assert Tetrahedron(v).scale == norm_scale(v)

    def test_rejects_overflowing_scale(self):
        # the typed error, with no numpy overflow warning on the way
        v = random_tetrahedron(0, 0).vertices * 1e160
        with pytest.raises(DegenerateInput), warnings.catch_warnings():
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
    def test_axis_example_preserves_angles(self):
        u_in = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, -1.0]])
        cfg = canonical_frame(*u_in)
        assert np.array_equal(cfg.units[0], [1.0, 0.0, 0.0])
        assert cfg.a102 == pytest.approx(math.pi / 2, abs=1e-14)
        assert np.allclose(
            pairwise_angles(cfg.units), pairwise_angles(u_in), atol=1e-12
        )

    def test_regular_directions(self):
        v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
        cfg = canonical_frame(*(v / math.sqrt(3.0)))
        assert np.allclose(pairwise_angles(cfg.units), ARCCOS_THIRD, atol=1e-12)

    def test_idempotent(self):
        for i in range(25):
            u = random_unit_quadruple(101, i)
            cfg = canonical_frame(*u)
            again = canonical_frame(*cfg.units)
            assert np.allclose(again.units, cfg.units, atol=1e-12)

    def test_rotation_invariance_of_angles(self):
        for i in range(200):
            u = random_unit_quadruple(202, i)
            rng = np.random.default_rng(i)
            r = random_rotation(rng)
            a = pairwise_angles(canonical_frame(*u).units)
            b = pairwise_angles(canonical_frame(*(u @ r.T)).units)
            assert np.allclose(a, b, atol=1e-10)

    def test_spherical_reconstruction(self):
        for i in range(100):
            u = random_unit_quadruple(303, i)
            cfg = canonical_frame(*u)
            for leg, lat, lon in ((2, cfg.lat3, cfg.lon3), (3, cfg.lat4, cfg.lon4)):
                expected = [
                    math.cos(lat) * math.cos(lon),
                    math.cos(lat) * math.sin(lon),
                    math.sin(lat),
                ]
                assert np.allclose(cfg.units[leg], expected, atol=1e-12)

    def test_leg3_mirror_convention(self):
        for i in range(100):
            u = random_unit_quadruple(404, i)
            cfg = canonical_frame(*u)
            assert cfg.units[2][2] >= -1e-12

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateFrame):
            canonical_frame((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError):
            canonical_frame((1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_config_validates_rows(self):
        with pytest.raises(ValueError):
            DirectionConfig(
                units=np.array(
                    [[0.0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, -1.0]]
                ),
                a102=1.0,
                lat3=0.0,
                lon3=0.0,
                lat4=0.0,
                lon4=0.0,
            )


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
            DirectionConfig(
                units=units, a102=math.pi / 2, lat3=0.0, lon3=0.0, lat4=0.0, lon4=0.0
            )

    @pytest.mark.parametrize(
        "leg3",
        [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (5.0, 0.0, 0.0),
         (1.0 + 1e-11, 0.0, 0.0)],
        ids=["nan", "inf", "five", "long"],
    )
    def test_config_rejects_nonfinite_and_non_unit_rows(self, leg3):
        # unchecked, a NaN leg clamps to cos = -1 and a long one to cos = 1,
        # so the angles would come out as pi and 0 without any error
        with pytest.raises(ValueError, match="finite unit vectors"):
            DirectionConfig(
                units=np.array([[1.0, 0, 0], [0, 1, 0], leg3, [0, 0, 1]]),
                a102=math.pi / 2,
                lat3=0.0,
                lon3=0.0,
                lat4=math.pi / 2,
                lon4=0.0,
            )


class TestDirectionConfig:
    def test_matches_numpy_rotation_at_solved_points(self):
        checked = 0
        for i in range(500):
            t = random_tetrahedron(0, i)
            sol = solve(t)
            if sol.kind != "interior":
                continue
            cfg = direction_config(t, sol.point)
            rotated, params = numpy_frame(t, sol.point)
            assert np.abs(cfg.units - rotated).max() <= 1e-13
            got = (cfg.a102, cfg.lat3, cfg.lon3, cfg.lat4, cfg.lon4)
            assert np.abs(np.subtract(got, params)).max() <= 1e-13
            checked += 1
        assert checked > 400

    def test_matches_numpy_rotation_at_hull_points(self):
        t = random_tetrahedron(1, 0)
        for p in hull_points(t, 200, np.random.default_rng(5)):
            rotated, _ = numpy_frame(t, p)
            assert np.abs(direction_config(t, p).units - rotated).max() <= 1e-13

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

    def test_edge_midpoint_rejected(self, right_corner):
        # legs 1 and 2 are antiparallel at the midpoint of edge A1A2
        t = random_tetrahedron(0, 0)
        for tetra in (right_corner, t):
            mid = 0.5 * (tetra.vertex(1) + tetra.vertex(2))
            with pytest.raises(DegenerateFrame):
                direction_config(tetra, mid)


def test_records_compare_by_value(flat_vertex_case):
    # Tetrahedron, FermatSolution and DirectionConfig hold an array field;
    # == compares them by value and returns a bool, never raising
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
