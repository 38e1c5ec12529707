import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrafermat import (
    CoincidentPoints,
    DegenerateFrame,
    DegenerateInput,
    DirectionConfig,
    Tetrahedron,
    angle_between,
    canonical_frame,
    direction_config,
    direction_from_latlon,
    hull_points,
    solve,
    unit_vector,
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


class TestUnitVector:
    def test_scales_345_triple(self):
        u = unit_vector((0, 0, 0), (3, 4, 0))
        assert np.allclose(u, [0.6, 0.8, 0.0], atol=1e-15)

    def test_axis_aligned(self):
        u = unit_vector((1, 1, 1), (1, 1, 2))
        assert np.allclose(u, [0.0, 0.0, 1.0], atol=1e-15)

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            unit_vector((0, 0, 0), (0, 0, 0))

    def test_relatively_coincident_points_rejected(self):
        p = (1e8, 1e8, 1e8)
        q = (1e8, 1e8, 1e8 + 1e-7)
        with pytest.raises(CoincidentPoints):
            unit_vector(p, q)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            unit_vector((0, 0, 0), (np.nan, 0, 0))


class TestAngleBetween:
    def test_orthogonal_axes(self):
        assert angle_between((1, 0, 0), (0, 1, 0)) == pytest.approx(math.pi / 2)

    def test_identity(self):
        assert angle_between((1, 0, 0), (1, 0, 0)) == 0.0

    def test_constructed_cosine(self):
        v = (-1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0)
        assert angle_between((1, 0, 0), v) == pytest.approx(ARCCOS_THIRD, abs=1e-12)

    def test_rejects_non_unit_input(self):
        with pytest.raises(ValueError):
            angle_between((1, 1, 0), (1, 0, 0))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_rotation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=(2, 3))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        r = random_rotation(rng)
        assert angle_between(u, v) == pytest.approx(angle_between(v, u), abs=1e-14)
        assert angle_between(r @ u, r @ v) == pytest.approx(
            angle_between(u, v), abs=1e-12
        )


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
        t = Tetrahedron(v)
        assert t.volume == pytest.approx(1e-18 / 6.0, rel=1e-12)

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
        # edge length 2*sqrt(2); volume of a regular tetrahedron is
        # a^3 / (6 sqrt 2)
        a = 2.0 * math.sqrt(2.0)
        assert regular_tetra.scale == pytest.approx(a, abs=1e-14)
        assert regular_tetra.volume == pytest.approx(a ** 3 / (6 * math.sqrt(2)))

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_contains_matches_barycentric(self, tol):
        # points spread over and around the hull, half of them within a
        # few 1e-3 of its faces
        inside = outside = 0
        for i in range(20):
            t = random_tetrahedron(0, i)
            rng = np.random.default_rng(i)
            w = rng.dirichlet(np.ones(4), size=200)
            spread = np.where(np.arange(200) < 100, 0.1, 2e-3)[:, None]
            w = w * (1.0 + 4.0 * spread) - spread
            for p in w @ t.vertices:
                low = t.barycentric(p).min()
                if abs(low + tol) <= 1e-12:
                    continue
                expected = bool(low >= -tol)
                assert t.contains(p, tol=tol) == expected
                inside += expected
                outside += not expected
        assert inside > 1000 and outside > 1000

    def test_contains_and_barycentric(self, regular_tetra):
        assert regular_tetra.contains((0, 0, 0))
        assert not regular_tetra.contains((2, 2, 2))
        b = regular_tetra.barycentric(regular_tetra.centroid())
        assert np.allclose(b, 0.25, atol=1e-12)

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
            assert np.allclose(
                direction_from_latlon(cfg.lat3, cfg.lon3), cfg.u3, atol=1e-12
            )
            assert np.allclose(
                direction_from_latlon(cfg.lat4, cfg.lon4), cfg.u4, atol=1e-12
            )

    def test_leg3_mirror_convention(self):
        for i in range(100):
            u = random_unit_quadruple(404, i)
            cfg = canonical_frame(*u)
            assert cfg.u3[2] >= -1e-12

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateFrame):
            canonical_frame((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1))

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

    def test_edge_midpoint_rejected(self, right_corner):
        # legs 1 and 2 are antiparallel at the midpoint of edge A1A2
        t = random_tetrahedron(0, 0)
        for tetra in (right_corner, t):
            mid = 0.5 * (tetra.vertex(1) + tetra.vertex(2))
            with pytest.raises(DegenerateFrame):
                direction_config(tetra, mid)
