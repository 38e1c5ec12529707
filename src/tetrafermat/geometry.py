"""Tetrahedron validation and the canonical frame: ``direction_config`` and
``canonical_frame`` rigidly move four unit legs so that leg 1 lies on the
x-axis and leg 2 in the xy-plane.

All angles are radians.  Points and directions are float64 numpy arrays of
shape (3,); any sequence of three finite numbers is accepted on input.
Inside, the per-instance steps compute on Python floats: on 3-vectors,
numpy's per-call overhead costs more than the arithmetic it saves.  Each
record builds its float rows once: ``Tetrahedron.rows`` is what the
kernels read, and ``DirectionConfig.rows`` what the angle and identity
checks read.  Tetrahedron validation and the frame itself are
straight-line code on those floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, DegenerateFrame, DegenerateInput

#: relative volume threshold below which four points are rejected as flat
VOLUME_EPS = 1e-12
#: |cos| of legs 1, 2 above 1 - FRAME_EPS: the anchor pair is (anti-)parallel
FRAME_EPS = 1e-12
#: relative distance below which two points cannot define a direction
COINCIDENT_EPS = 1e-12
#: tolerated deviation of a unit vector's squared norm from 1
UNIT_NORM_EPS = 1e-12
#: |z| below this puts a leg in the xy-plane for the mirror convention
INPLANE_EPS = 1e-12

def as_point(p) -> np.ndarray:
    """Coerce to a (3,) float64 array of finite coordinates."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected 3 coordinates, got shape {a.shape}")
    x, y, z = a.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("coordinates must be finite")
    return a


def as_unit(u) -> np.ndarray:
    """Coerce to a (3,) float64 array and check it has unit norm."""
    a = as_point(u)
    if abs(a @ a - 1.0) > UNIT_NORM_EPS:
        raise ValueError(f"not a unit vector (|v|^2 = {a @ a!r})")
    return a


def _unit(a, an, b):
    """Unit vector from row ``a``, of norm ``an``, toward row ``b`` as a
    tuple.  Raises CoincidentPoints when ``|b - a|`` is at most
    COINCIDENT_EPS times the larger point norm."""
    ax, ay, az = a
    bx, by, bz = b
    dx = bx - ax
    dy = by - ay
    dz = bz - az
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    scale = max(an, math.sqrt(bx * bx + by * by + bz * bz))
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


@dataclass(frozen=True)
class Tetrahedron:
    """Four labeled points, validated non-collinear and non-coplanar.

    Rows of ``vertices`` are the points A1..A4.  The volume test is relative:
    the edge matrix divided by the longest pairwise distance must have
    |det| above VOLUME_EPS, a test that neither overflows nor underflows at
    any scale.  A longest distance that is zero or overflows float64 raises
    DegenerateInput.  Two tetrahedra are equal when their rows are.
    """

    vertices: np.ndarray = field(compare=False)
    _scale: float = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        v = np.array(self.vertices, dtype=float, order="C")
        if v.shape != (4, 3):
            raise DegenerateInput(f"expected 4 points in 3D, got shape {v.shape}")
        a, b, c, d = rows = tuple(map(tuple, v.tolist()))
        if not all(map(math.isfinite, (*a, *b, *c, *d))):
            raise DegenerateInput("vertex coordinates must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        ax, ay, az = a
        bx, by, bz = b
        cx, cy, cz = c
        dx, dy, dz = d
        # rows v[i] - v[j] for the six pairs i < j, in the order (0,1) (0,2)
        # (0,3) (1,2) (1,3) (2,3), flat
        e = (
            ax - bx, ay - by, az - bz,
            ax - cx, ay - cy, az - cz,
            ax - dx, ay - dy, az - dz,
            bx - cx, by - cy, bz - cz,
            bx - dx, by - dy, bz - dz,
            cx - dx, cy - dy, cz - dz,
        )
        # np.linalg.norm(r) is sqrt(r.dot(r)), and vecdot runs the same BLAS
        # dot, so this scale matches norm bit for bit; a Python sum of
        # squares does not, as the BLAS kernel fuses multiply-adds.  A length
        # that overflows is inf and rejected below, so no warning is due.
        r = np.array(e).reshape(6, 3)
        with np.errstate(over="ignore"):
            s = math.sqrt(max(np.vecdot(r, r).tolist()))
        if not 0.0 < s < math.inf:
            raise DegenerateInput(
                f"longest pairwise distance is {s!r}; expected a positive "
                "finite length"
            )
        object.__setattr__(self, "_scale", s)
        object.__setattr__(self, "_rows", rows)
        # the first three edges are v[0] - v[1:], the negated edge matrix
        det = abs(_triple(
            (e[0] / s, e[1] / s, e[2] / s),
            (e[3] / s, e[4] / s, e[5] / s),
            (e[6] / s, e[7] / s, e[8] / s),
        ))
        if det <= VOLUME_EPS:
            raise DegenerateInput(
                f"points are collinear or coplanar (|det| / scale^3 = "
                f"{det:.3e}, scale = {s:.3e})"
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

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def vertex(self, i: int) -> np.ndarray:
        """Vertex by 1-based label A1..A4."""
        if not 1 <= i <= 4:
            raise ValueError(f"vertex label must be 1..4, got {i}")
        return self.vertices[i - 1]


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
    is (cos lat cos lon, cos lat sin lon, sin lat).  Every row must be
    finite with a squared norm within UNIT_NORM_EPS of 1.  Two configurations
    are equal when their rows and angles are.
    """

    units: np.ndarray = field(compare=False)
    a102: float
    lat3: float
    lon3: float
    lat4: float
    lon4: float
    _rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # rows first, as Python floats, and the array built from them once:
        # the canonical frame passes its four snapped tuples here
        try:
            a, b, c, d = rows = tuple(
                [(float(x), float(y), float(z)) for x, y, z in self.units]
            )
        except (TypeError, ValueError):
            raise ValueError(
                "expected 4 direction rows of 3 coordinates, got "
                f"{self.units!r}"
            ) from None
        u = np.array((*a, *b, *c, *d)).reshape(4, 3)
        u.setflags(write=False)
        object.__setattr__(self, "units", u)
        object.__setattr__(self, "_rows", rows)
        r1, r2 = rows[0], rows[1]
        if r1 != (1.0, 0.0, 0.0):
            raise ValueError("leg 1 must be exactly (1, 0, 0)")
        if abs(r2[2]) > 1e-9 or r2[1] < -1e-9:
            raise ValueError("leg 2 must lie in the xy-plane with y >= 0")
        for x, y, z in rows[1:]:
            # leg 1 is exact; the test is false for NaN, and for inf squared
            if not abs(x * x + y * y + z * z - 1.0) <= UNIT_NORM_EPS:
                raise ValueError(f"rows must be finite unit vectors, got {(x, y, z)}")

    @property
    def rows(self) -> tuple:
        """The four legs as (x, y, z) tuples of Python floats, built once:
        the form the angle and identity checks read."""
        return self._rows


def _config_from_canonical_rows(r2, r3, r4) -> DirectionConfig:
    """Extract frame parameters from legs 2-4, (x, y, z) rows already in
    canonical position (leg 1 is (1, 0, 0); leg 2's z, zero there, is not
    read), and snap the rows to the exact parameterized form."""
    a102 = math.atan2(r2[1], r2[0])
    x3, y3, z3 = r3
    x4, y4, z4 = r4
    lat3 = math.asin(min(1.0, max(-1.0, z3)))
    lon3 = math.atan2(y3, x3) if abs(lat3) < math.pi / 2 else 0.0
    lat4 = math.asin(min(1.0, max(-1.0, z4)))
    lon4 = math.atan2(y4, x4) if abs(lat4) < math.pi / 2 else 0.0
    c3 = math.cos(lat3)
    c4 = math.cos(lat4)
    snapped = (
        (1.0, 0.0, 0.0),
        (math.cos(a102), math.sin(a102), 0.0),
        (c3 * math.cos(lon3), c3 * math.sin(lon3), math.sin(lat3)),
        (c4 * math.cos(lon4), c4 * math.sin(lon4), math.sin(lat4)),
    )
    return DirectionConfig(
        units=snapped, a102=a102, lat3=lat3, lon3=lon3, lat4=lat4, lon4=lon4
    )


def _frame(a, b, c, d) -> DirectionConfig:
    """``canonical_frame`` on four unit (x, y, z) rows of floats."""
    ax, ay, az = a
    bx, by, bz = b
    c12 = ax * bx + ay * by + az * bz
    if abs(c12) >= 1.0 - FRAME_EPS:
        raise DegenerateFrame("legs 1 and 2 are parallel or anti-parallel")
    n = math.sqrt(ax * ax + ay * ay + az * az)
    e1x, e1y, e1z = ax / n, ay / n, az / n
    x2 = bx * e1x + by * e1y + bz * e1z
    px, py, pz = bx - x2 * e1x, by - x2 * e1y, bz - x2 * e1z
    n = math.sqrt(px * px + py * py + pz * pz)
    e2x, e2y, e2z = px / n, py / n, pz / n
    e3x = e1y * e2z - e1z * e2y
    e3y = e1z * e2x - e1x * e2z
    e3z = e1x * e2y - e1y * e2x
    # leg 1 rotates onto the x-axis and leg 2's z is never read, so only
    # legs 2-4 are rotated, and leg 2 only in x and y
    y2 = bx * e2x + by * e2y + bz * e2z
    cx, cy, cz = c
    x3 = cx * e1x + cy * e1y + cz * e1z
    y3 = cx * e2x + cy * e2y + cz * e2z
    z3 = cx * e3x + cy * e3y + cz * e3z
    dx, dy, dz = d
    x4 = dx * e1x + dy * e1y + dz * e1z
    y4 = dx * e2x + dy * e2y + dz * e2z
    z4 = dx * e3x + dy * e3y + dz * e3z
    if z3 < -INPLANE_EPS or (abs(z3) <= INPLANE_EPS and z4 < -INPLANE_EPS):
        z3, z4 = -z3, -z4
    return _config_from_canonical_rows((x2, y2), (x3, y3, z3), (x4, y4, z4))


def canonical_frame(u1, u2, u3, u4) -> DirectionConfig:
    """Rigidly move four unit directions into the canonical frame.

    The rotation maps leg 1 to (1, 0, 0) and leg 2 into the xy-plane with
    positive y.  If leg 3 then points below the plane it is mirrored back
    (z -> -z), which preserves every pairwise angle; when leg 3 is in-plane
    the mirror convention falls through to leg 4.  The result is a
    deterministic function of the input.

    Raises DegenerateFrame when legs 1 and 2 are (anti-)parallel.
    """
    return _frame(*(as_unit(u).tolist() for u in (u1, u2, u3, u4)))


def direction_config(tetra: Tetrahedron, point) -> DirectionConfig:
    """Canonical direction configuration seen from a point inside a
    tetrahedron."""
    p = as_point(point).tolist()
    px, py, pz = p
    pn = math.sqrt(px * px + py * py + pz * pz)
    a, b, c, d = tetra.rows
    return _frame(_unit(p, pn, a), _unit(p, pn, b), _unit(p, pn, c), _unit(p, pn, d))
