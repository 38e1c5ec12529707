"""Tetrahedron validation and the legs seen from a point:
``direction_config`` returns the four unit vectors from a point toward the
vertices, as computed.

All angles are radians.  Points and directions are float64 numpy arrays of
shape (3,); any sequence of three finite numbers is accepted on input.
Inside, the per-instance steps compute on Python floats: on 3-vectors,
numpy's per-call overhead costs more than the arithmetic it saves.
``Tetrahedron`` builds its float rows once, the form the kernels read.
``DirectionConfig`` stores nothing but its four float rows, the legs the
angle and identity checks read; its ``units`` array is built from them
when read.  Every check is unchanged by a rotation or a mirror of the
legs, so none needs them in a particular frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, DegenerateInput

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
    DegenerateInput.  ``scale`` is the longest pairwise distance between
    vertices.  ``rows`` holds the vertices as four (x, y, z) tuples of
    Python floats, built once: the form every scalar kernel reads.  Two
    tetrahedra are equal, and hash alike, when their rows are.
    """

    vertices: np.ndarray = field(compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    rows: tuple = field(init=False, repr=False)

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
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "rows", rows)
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
        object.__setattr__(self, "rows", rows)
        for x, y, z in (a, b, c, d):
            # the test is false for NaN, and for inf squared
            if not abs(x * x + y * y + z * z - 1.0) <= UNIT_NORM_EPS:
                raise ValueError(f"rows must be finite unit vectors, got {(x, y, z)}")

    @property
    def units(self) -> np.ndarray:
        """The four legs as a read-only (4, 3) float64 array."""
        u = np.array(self.rows)
        u.setflags(write=False)
        return u


def direction_config(tetra: Tetrahedron, point) -> DirectionConfig:
    """The four unit legs from a point toward the vertices A1..A4.

    Raises CoincidentPoints when the point is on, or relatively too close
    to, a vertex."""
    p = as_point(point).tolist()
    px, py, pz = p
    pn = math.sqrt(px * px + py * py + pz * pz)
    a, b, c, d = tetra.rows
    return DirectionConfig(
        (_unit(p, pn, a), _unit(p, pn, b), _unit(p, pn, c), _unit(p, pn, d))
    )
