"""Tetrahedron validation and the legs seen from a point:
``direction_config`` returns the four unit vectors from a point toward the
vertices, as computed.

All angles are radians.  Points and directions are float64 numpy arrays
of shape (3,); any sequence of three finite numbers is accepted on input.
Inside, the per-instance steps compute on Python floats: on 3-vectors,
numpy's per-call overhead costs more than the arithmetic it saves.  The
validation kernel ``frame_rows`` and the leg kernel ``unit_legs`` take
their coordinates as floats or as columns of many instances (see
``ops``).  ``Tetrahedron`` calls ``frame_rows`` with floats and builds
its float rows once, scaled by a power of two: the one frame every kernel
reads.  ``frame_columns`` calls it with the columns of a batch-verify
chunk, whose instances need no ``Tetrahedron`` unless they take the
scalar path.  ``direction_config`` calls ``unit_legs`` with floats and
keeps the float legs it computed as its ``DirectionConfig``'s rows,
without coercing them again; they pass the same finite-unit check
(``_require_units``) as rows given to ``DirectionConfig``.
``DirectionConfig`` stores nothing but its four float rows, the legs the
angle and identity checks read; its ``units`` array is built from them
when read.  Every check is unchanged by a rotation or a mirror of the
legs, so none needs them in a particular frame.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, DegenerateInput
from .ops import FLOATS, Columns

#: relative volume threshold below which four points are rejected as flat
VOLUME_EPS = 1e-12
#: relative distance below which two points cannot define a direction
COINCIDENT_EPS = 1e-12
#: tolerated deviation of a unit vector's squared norm from 1
UNIT_NORM_EPS = 1e-12


def as_point(p) -> np.ndarray:
    """Coerce to a (3,) float64 array of finite coordinates."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected 3 coordinates, got shape {a.shape}")
    x, y, z = a.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("coordinates must be finite")
    return a


def _triple(a, b, c) -> float:
    """Triple product a . (b x c) of three (x, y, z) rows: det of the rows."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _scale_error(s):
    # below the least normal float, 2**-e would overflow
    return DegenerateInput(
        f"longest pairwise distance is {s!r}; expected a finite "
        f"length of at least {sys.float_info.min!r}"
    )


def _flat_error(det, s):
    return DegenerateInput(
        f"points are collinear or coplanar (|det| / scale^3 = "
        f"{det:.3e}, scale = {s:.3e})"
    )


def frame_rows(rows, xp):
    """``Tetrahedron``'s validation and frame of four (x, y, z) vertex
    ``rows``: the validation kernel, on floats or on columns (see ``ops``).

    Requires, in order, that every coordinate is finite, that ``scale``,
    the largest ``math.hypot`` of the six edges (``xp.longest``), is at
    least the least normal float and finite, and that the edge matrix
    divided by ``scale`` has |det| above VOLUME_EPS; each failed
    requirement is a DegenerateInput.
    Returns the frame, the rows times ``to_frame = 2**-e`` for
    ``scale = f * 2**e`` with ``0.5 <= f < 1``, as a tuple of four
    (x, y, z) triples, with ``scale`` and ``to_frame``.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    xp.require(
        xp.finite((ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz)),
        DegenerateInput, "vertex coordinates must be finite",
    )
    # the edges v[0] - v[1:], the negated edge matrix; with the three
    # others, the six pairs i < j in the order (0,1) (0,2) (0,3) (1,2)
    # (1,3) (2,3)
    e = (
        (ax - bx, ay - by, az - bz),
        (ax - cx, ay - cy, az - cz),
        (ax - dx, ay - dy, az - dz),
    )
    # no length is NaN or -0.0 on a row that passed the finite test, so the
    # order of the maxima cannot change their value
    s = xp.longest((
        *e, (bx - cx, by - cy, bz - cz), (bx - dx, by - dy, bz - dz),
        (cx - dx, cy - dy, cz - dz),
    ))
    xp.require((s >= sys.float_info.min) & (s < math.inf), _scale_error, s)
    m = xp.ldexp(1.0, -xp.frexp(s)[1])
    frame = tuple([(x * m, y * m, z * m) for x, y, z in rows])
    det = abs(_triple(*[(x / s, y / s, z / s) for x, y, z in e]))
    xp.require(det > VOLUME_EPS, _flat_error, det, s)
    return frame, s, m


def frame_columns(vertices: np.ndarray):
    """``frame_rows`` on the columns of an (n, 4, 3) array of ``n``
    tetrahedra's vertices.

    Returns their frames as a (12, n) array, vertex by vertex and x, y, z
    within a vertex, their ``scale`` and ``to_frame`` columns, and a bool
    column that is true where ``Tetrahedron`` raises DegenerateInput; the
    values on such a row mean nothing.  Every other row holds exactly the
    ``frame``, ``scale`` and ``to_frame`` of ``Tetrahedron`` on it:
    ``scale`` is ``math.hypot`` of the longest edge, taken only of the
    edges numpy's length puts within 2**-47 of the longest (see
    ``ops.Columns.longest``).
    """
    n = len(vertices)
    coords = np.ascontiguousarray(vertices.reshape(n, 12).T)
    xp = Columns(n)
    with np.errstate(all="ignore"):
        frame, s, m = frame_rows(
            tuple(zip(coords[0::3], coords[1::3], coords[2::3])), xp
        )
    return np.array([c for row in frame for c in row]), s, m, xp.failed


@dataclass(frozen=True)
class Tetrahedron:
    """Four labeled points, validated non-collinear and non-coplanar.

    Rows of ``vertices`` are the points A1..A4.  ``scale`` is the longest
    pairwise distance, the largest ``math.hypot`` of an edge's coordinate
    differences, which neither overflows nor underflows; one below the
    least normal float (zero included) or beyond the largest raises
    DegenerateInput.  The volume test is relative: the edge matrix divided
    by ``scale`` must have |det| above VOLUME_EPS.  The arithmetic is the
    kernel ``frame_rows``, on floats.

    ``frame`` holds the vertices times ``to_frame``, ``2**-e`` for
    ``scale = f * 2**e`` with ``0.5 <= f < 1``, as four (x, y, z) tuples of
    Python floats, built once: the rows every kernel reads.  Points and
    lengths go into the frame times ``to_frame`` and come back divided by
    it.  Exactness: in the normal range a product by a power of two is
    exact and commutes with every IEEE operation the kernels use (+, -, *,
    /, sqrt, comparisons), so the frame moves no iterate, count, residual
    or decision, a power-of-two factor on the input scales every answer
    exactly, and squared lengths and Newton's Hessian stay finite at every
    accepted scale.  Only ``hypot`` rounds ``scale`` its own way, within
    about an ulp of the exact length.  No input-unit copy of the rows is
    kept: no kernel reads one.  Two tetrahedra are equal, and hash alike,
    when their frames and factors are.
    """

    vertices: np.ndarray = field(compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    frame: tuple = field(init=False, repr=False)
    to_frame: float = field(init=False, repr=False)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        v = np.array(self.vertices, dtype=float, order="C")
        if v.shape != (4, 3):
            raise DegenerateInput(f"expected 4 points in 3D, got shape {v.shape}")
        frame, s, m = frame_rows(v.tolist(), FLOATS)
        v.setflags(write=False)
        d = self.__dict__
        d["vertices"] = v
        d["scale"] = s
        d["to_frame"] = m
        d["frame"] = frame

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
    """Four unit directions, stored as ``rows``: four (x, y, z) tuples of
    Python floats, the form the angle and identity checks read.

    Any 4x3 sequence of numbers, array or tuples, is accepted; every row
    must be finite with a squared norm within UNIT_NORM_EPS of 1, and the
    rows are kept as given, in any orientation.  ``units`` is the same rows
    as a read-only (4, 3) array, built when read.  Two configurations are
    equal, and hash alike, when their rows are.
    """

    rows: tuple

    def __post_init__(self):
        try:
            a, b, c, d = rows = tuple(
                [(float(x), float(y), float(z)) for x, y, z in self.rows]
            )
        except (TypeError, ValueError):
            raise ValueError(
                "expected 4 direction rows of 3 coordinates, got "
                f"{self.rows!r}"
            ) from None
        self.__dict__["rows"] = rows
        _require_units(rows)

    @property
    def units(self) -> np.ndarray:
        """The four legs as a read-only (4, 3) float64 array."""
        u = np.array(self.rows)
        u.setflags(write=False)
        return u


def unit_rows(rows):
    """Whether each (x, y, z) row's squared norm is within UNIT_NORM_EPS of
    1, on floats or on columns: false for NaN, and for inf squared."""
    return [abs(x * x + y * y + z * z - 1.0) <= UNIT_NORM_EPS for x, y, z in rows]


def _require_units(rows):
    """Raise ValueError unless every (x, y, z) float row of ``rows`` is a
    finite unit vector (``unit_rows``)."""
    unit = unit_rows(rows)
    if not all(unit):
        row = rows[unit.index(False)]
        raise ValueError(f"rows must be finite unit vectors, got {row}")


def _float_config(rows: tuple) -> DirectionConfig:
    """``DirectionConfig(rows)`` for a tuple of four (x, y, z) tuples of
    Python floats, which need no coercion: only the finite-unit check
    runs."""
    _require_units(rows)
    config = object.__new__(DirectionConfig)
    config.__dict__["rows"] = rows
    return config


def unit_legs(q, rows, xp):
    """The unit legs from the point ``q`` toward each of four ``rows``: the
    leg kernel, on floats or on columns (see ``ops``).

    Returns the legs as four (x, y, z) triples; per leg, whether it is
    longer than COINCIDENT_EPS times the larger of the two point norms,
    else the points coincide and the leg means nothing; and ``|q|``, which
    is inf when ``q``'s squared norm overflows.
    """
    qx, qy, qz = q
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = rows
    sqrt, maximum = xp.sqrt, xp.maximum
    qn = sqrt(qx * qx + qy * qy + qz * qz)
    x1 = ax - qx
    y1 = ay - qy
    z1 = az - qz
    x2 = bx - qx
    y2 = by - qy
    z2 = bz - qz
    x3 = cx - qx
    y3 = cy - qy
    z3 = cz - qz
    x4 = dx - qx
    y4 = dy - qy
    z4 = dz - qz
    n1 = sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    n2 = sqrt(x2 * x2 + y2 * y2 + z2 * z2)
    n3 = sqrt(x3 * x3 + y3 * y3 + z3 * z3)
    n4 = sqrt(x4 * x4 + y4 * y4 + z4 * z4)
    apart = [
        n1 > COINCIDENT_EPS * maximum(qn, sqrt(ax * ax + ay * ay + az * az)),
        n2 > COINCIDENT_EPS * maximum(qn, sqrt(bx * bx + by * by + bz * bz)),
        n3 > COINCIDENT_EPS * maximum(qn, sqrt(cx * cx + cy * cy + cz * cz)),
        n4 > COINCIDENT_EPS * maximum(qn, sqrt(dx * dx + dy * dy + dz * dz)),
    ]
    # a zero length divides as 1, never raising; elsewhere the added False
    # is an exact + 0
    n1 = n1 + (n1 == 0.0)
    n2 = n2 + (n2 == 0.0)
    n3 = n3 + (n3 == 0.0)
    n4 = n4 + (n4 == 0.0)
    legs = (
        (x1 / n1, y1 / n1, z1 / n1),
        (x2 / n2, y2 / n2, z2 / n2),
        (x3 / n3, y3 / n3, z3 / n3),
        (x4 / n4, y4 / n4, z4 / n4),
    )
    return legs, apart, qn


def direction_config(tetra: Tetrahedron, point) -> DirectionConfig:
    """The four unit legs from a point toward the vertices A1..A4.

    Raises CoincidentPoints when the point is on, or relatively too close
    to, a vertex."""
    p = as_point(point).tolist()
    m = tetra.to_frame
    legs, apart, qn = unit_legs((p[0] * m, p[1] * m, p[2] * m), tetra.frame, FLOATS)
    if not all(apart):
        if qn == math.inf:
            # the point is so far away, against the scale, that its squared
            # norm overflows in the frame; in a frame scaled to the point
            # instead, the vertices shrink toward the origin and nothing
            # overflows
            f = math.ldexp(1.0, -math.frexp(max(map(abs, p)))[1])
            rows = [(x * f, y * f, z * f) for x, y, z in tetra.vertices.tolist()]
            legs, apart, _ = unit_legs((p[0] * f, p[1] * f, p[2] * f), rows, FLOATS)
        if not all(apart):
            vertex = tuple(tetra.vertices[apart.index(False)].tolist())
            raise CoincidentPoints(f"points {p} and {vertex} coincide")
    return _float_config(tuple(legs))
