"""3D primitives: points, unit directions, tetrahedron validation, and the
canonical frame that aligns a direction quadruple with the x-axis and the
xy-plane.

All angles are radians.  Points and directions are float64 numpy arrays of
shape (3,); any sequence of three finite numbers is accepted on input.
Inside, the per-instance steps compute on Python floats: on 3-vectors,
numpy's per-call overhead costs more than the arithmetic it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, DegenerateFrame, DegenerateInput

#: relative volume threshold below which four points are rejected as flat
VOLUME_EPS = 1e-12
#: |u1.u2| above 1 - FRAME_EPS means the anchor pair is (anti-)parallel
FRAME_EPS = 1e-12
#: relative distance below which two points cannot define a direction
COINCIDENT_EPS = 1e-12
#: tolerated deviation of a unit vector's squared norm from 1
UNIT_NORM_EPS = 1e-12
#: |z| below this puts a leg in the xy-plane for the mirror convention
INPLANE_EPS = 1e-12

# endpoints of the six vertex pairs i < j, in the order (0,1) (0,2) (0,3)
# (1,2) (1,3) (2,3)
_EDGE_I = [0, 0, 0, 1, 1, 2]
_EDGE_J = [1, 2, 3, 2, 3, 3]


def as_point(p) -> np.ndarray:
    """Coerce to a (3,) float64 array of finite coordinates."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected 3 coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coordinates must be finite")
    return a


def as_unit(u) -> np.ndarray:
    """Coerce to a (3,) float64 array and check it has unit norm."""
    a = as_point(u)
    if abs(a @ a - 1.0) > UNIT_NORM_EPS:
        raise ValueError(f"not a unit vector (|v|^2 = {a @ a!r})")
    return a


def unit_vector(origin, target) -> np.ndarray:
    """Unit vector pointing from ``origin`` to ``target``.

    Raises CoincidentPoints when the separation underflows the relative
    threshold.
    """
    return np.array(_unit(as_point(origin).tolist(), as_point(target).tolist()))


def _unit(a, b):
    """``unit_vector`` on two (x, y, z) float rows; returns a tuple."""
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


def _triple(a, b, c) -> float:
    """Triple product a . (b x c) of three (x, y, z) rows: det of the rows."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two unit vectors (argument clamped)."""
    a = as_unit(u)
    b = as_unit(v)
    return math.acos(min(1.0, max(-1.0, float(a @ b))))


@dataclass(frozen=True)
class Tetrahedron:
    """Four labeled points, validated non-collinear and non-coplanar.

    Rows of ``vertices`` are the points A1..A4.  The volume test is relative:
    the edge matrix divided by the longest pairwise distance must have
    |det| above VOLUME_EPS, a test that neither overflows nor underflows at
    any scale.  A longest distance that is zero or overflows float64 raises
    DegenerateInput.
    """

    vertices: np.ndarray
    _scale: float = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        v = np.array(self.vertices, dtype=float, order="C")
        if v.shape != (4, 3):
            raise DegenerateInput(f"expected 4 points in 3D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DegenerateInput("vertex coordinates must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        # rows v[i] - v[j] for the six pairs i < j; np.linalg.norm(r) is
        # sqrt(r.dot(r)), so this scale matches it bit for bit.  A length
        # that overflows is inf and rejected below, so no warning is due.
        with np.errstate(over="ignore"):
            e = v[_EDGE_I] - v[_EDGE_J]
            d = max(math.sqrt(r.dot(r)) for r in e)
        if not 0.0 < d < math.inf:
            raise DegenerateInput(
                f"longest pairwise distance is {d!r}; expected a positive "
                "finite length"
            )
        object.__setattr__(self, "_scale", d)
        object.__setattr__(self, "_rows", tuple(map(tuple, v.tolist())))
        # the first three rows are v[0] - v[1:], the negated edge matrix
        det = abs(float(np.linalg.det(e[:3] / d)))
        if det <= VOLUME_EPS:
            raise DegenerateInput(
                f"points are collinear or coplanar (|det| / scale^3 = "
                f"{det:.3e}, scale = {d:.3e})"
            )

    @property
    def scale(self) -> float:
        """Longest pairwise distance between vertices."""
        return self._scale

    @property
    def rows(self) -> tuple:
        """The vertices as four (x, y, z) tuples of Python floats, built
        once: the form every scalar kernel reads."""
        return self._rows

    @property
    def volume(self) -> float:
        v = self.vertices
        return abs(float(np.linalg.det(v[1:] - v[0]))) / 6.0

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def vertex(self, i: int) -> np.ndarray:
        """Vertex by 1-based label A1..A4."""
        if not 1 <= i <= 4:
            raise ValueError(f"vertex label must be 1..4, got {i}")
        return self.vertices[i - 1]

    def barycentric(self, point) -> np.ndarray:
        """Barycentric coordinates of a point with respect to the vertices."""
        p = as_point(point)
        v = self.vertices
        m = np.vstack([v.T, np.ones(4)])
        rhs = np.concatenate([p, [1.0]])
        return np.linalg.solve(m, rhs)

    def contains(self, point, tol: float = 0.0) -> bool:
        """True when the point lies inside the hull (tol relaxes the faces).

        The barycentric coordinates are signed-volume ratios: coordinate i
        is the determinant with vertex i replaced by the point, over the
        tetrahedron's own determinant.
        """
        return self._contains(as_point(point).tolist(), tol)

    def _contains(self, p, tol: float) -> bool:
        """``contains`` on an (x, y, z) row of floats, taken as valid."""
        a, b, c, d = self._rows
        whole = _det4(a, b, c, d)
        return all(
            w / whole >= -tol
            for w in (
                _det4(p, b, c, d),
                _det4(a, p, c, d),
                _det4(a, b, p, d),
                _det4(a, b, c, p),
            )
        )


def _det4(a, b, c, d) -> float:
    """Signed volume, times 6, of the tetrahedron on four (x, y, z) rows."""
    ax, ay, az = a
    return _triple(
        (b[0] - ax, b[1] - ay, b[2] - az),
        (c[0] - ax, c[1] - ay, c[2] - az),
        (d[0] - ax, d[1] - ay, d[2] - az),
    )


@dataclass(frozen=True)
class DirectionConfig:
    """Four unit directions in the canonical frame.

    Leg 1 is (1, 0, 0) exactly; leg 2 lies in the xy-plane with positive y;
    leg 3 has non-negative z (the mirror convention; applied to leg 4 when
    leg 3 is in-plane).  ``a102`` is the angle between legs 1 and 2, and
    (lat, lon) are the latitude/longitude of legs 3 and 4, so that each leg
    is (cos lat cos lon, cos lat sin lon, sin lat).
    """

    units: np.ndarray
    a102: float
    lat3: float
    lon3: float
    lat4: float
    lon4: float

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.units, dtype=float))
        if u.shape != (4, 3):
            raise ValueError(f"expected 4 direction rows, got shape {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "units", u)
        r1, r2 = u[:2].tolist()
        if r1 != [1.0, 0.0, 0.0]:
            raise ValueError("leg 1 must be exactly (1, 0, 0)")
        if abs(r2[2]) > 1e-9 or r2[1] < -1e-9:
            raise ValueError("leg 2 must lie in the xy-plane with y >= 0")

    @property
    def u1(self) -> np.ndarray:
        return self.units[0]

    @property
    def u2(self) -> np.ndarray:
        return self.units[1]

    @property
    def u3(self) -> np.ndarray:
        return self.units[2]

    @property
    def u4(self) -> np.ndarray:
        return self.units[3]


def _latlon_xyz(lat: float, lon: float):
    """``direction_from_latlon`` as an (x, y, z) tuple."""
    cl = math.cos(lat)
    return cl * math.cos(lon), cl * math.sin(lon), math.sin(lat)


def direction_from_latlon(lat: float, lon: float) -> np.ndarray:
    """Unit vector at the given latitude (from the xy-plane) and longitude."""
    return np.array(_latlon_xyz(lat, lon))


def _config_from_canonical_rows(u) -> DirectionConfig:
    """Extract frame parameters from four (x, y, z) rows already in
    canonical position and snap the rows to the exact parameterized form."""
    a102 = math.atan2(u[1][1], u[1][0])
    lat3 = math.asin(min(1.0, max(-1.0, u[2][2])))
    lon3 = math.atan2(u[2][1], u[2][0]) if abs(lat3) < math.pi / 2 else 0.0
    lat4 = math.asin(min(1.0, max(-1.0, u[3][2])))
    lon4 = math.atan2(u[3][1], u[3][0]) if abs(lat4) < math.pi / 2 else 0.0
    snapped = np.array(
        [
            (1.0, 0.0, 0.0),
            (math.cos(a102), math.sin(a102), 0.0),
            _latlon_xyz(lat3, lon3),
            _latlon_xyz(lat4, lon4),
        ]
    )
    return DirectionConfig(
        units=snapped, a102=a102, lat3=lat3, lon3=lon3, lat4=lat4, lon4=lon4
    )


def _frame(u) -> DirectionConfig:
    """``canonical_frame`` on four unit (x, y, z) rows of floats."""
    (ax, ay, az), (bx, by, bz) = u[0], u[1]
    c12 = ax * bx + ay * by + az * bz
    if abs(c12) >= 1.0 - FRAME_EPS:
        raise DegenerateFrame("legs 1 and 2 are parallel or anti-parallel")
    n = math.sqrt(ax * ax + ay * ay + az * az)
    e1x, e1y, e1z = ax / n, ay / n, az / n
    c = bx * e1x + by * e1y + bz * e1z
    px, py, pz = bx - c * e1x, by - c * e1y, bz - c * e1z
    n = math.sqrt(px * px + py * py + pz * pz)
    e2x, e2y, e2z = px / n, py / n, pz / n
    e3x = e1y * e2z - e1z * e2y
    e3y = e1z * e2x - e1x * e2z
    e3z = e1x * e2y - e1y * e2x
    rotated = [
        (
            x * e1x + y * e1y + z * e1z,
            x * e2x + y * e2y + z * e2z,
            x * e3x + y * e3y + z * e3z,
        )
        for x, y, z in u
    ]
    if rotated[2][2] < -INPLANE_EPS or (
        abs(rotated[2][2]) <= INPLANE_EPS and rotated[3][2] < -INPLANE_EPS
    ):
        rotated = [(x, y, -z) for x, y, z in rotated]
    return _config_from_canonical_rows(rotated)


def canonical_frame(u1, u2, u3, u4) -> DirectionConfig:
    """Rigidly move four unit directions into the canonical frame.

    The rotation maps leg 1 to (1, 0, 0) and leg 2 into the xy-plane with
    positive y.  If leg 3 then points below the plane it is mirrored back
    (z -> -z), which preserves every pairwise angle; when leg 3 is in-plane
    the mirror convention falls through to leg 4.  The result is a
    deterministic function of the input.

    Raises DegenerateFrame when legs 1 and 2 are (anti-)parallel.
    """
    return _frame([as_unit(u).tolist() for u in (u1, u2, u3, u4)])


def direction_config(tetra: Tetrahedron, point) -> DirectionConfig:
    """Canonical direction configuration seen from a point inside a
    tetrahedron."""
    p = as_point(point).tolist()
    return _frame([_unit(p, v) for v in tetra.rows])
