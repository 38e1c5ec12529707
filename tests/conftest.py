import decimal
import math

import numpy as np
import pytest

from tetrafermat import Tetrahedron

ARCCOS_THIRD = math.acos(-1.0 / 3.0)


def hull_weights(tetra: Tetrahedron, point) -> np.ndarray:
    """Barycentric coordinates of a point with respect to the vertices; all
    non-negative exactly when the point lies in the hull."""
    m = np.vstack([tetra.vertices.T, np.ones(4)])
    return np.linalg.solve(m, np.append(np.asarray(point, dtype=float), 1.0))


def scale_error_ulps(vertices, scale: float) -> float:
    """How far ``scale`` is from the exact longest pairwise distance of the
    vertices, in units in the last place of ``scale``.  The exact distance
    is computed with ``decimal`` at 50 digits from the exact float
    coordinates, for the edges that ``math.dist`` puts within 1e-12 of the
    longest (the others cannot be it)."""
    v = np.asarray(vertices).tolist()
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    approx = [math.dist(v[i], v[j]) for i, j in pairs]
    top = max(approx)
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = max(
            sum((d(p) - d(q)) ** 2 for p, q in zip(v[i], v[j]))
            for (i, j), length in zip(pairs, approx)
            if length >= top * (1.0 - 1e-12)
        ).sqrt()
        return float(abs(d(scale) - exact) / d(math.ulp(scale)))


def input_rows(tetra: Tetrahedron) -> tuple:
    """The vertices as four (x, y, z) tuples of Python floats, in input
    units: the form the kernels take, without the tetrahedron's power-of-two
    frame."""
    return tuple(map(tuple, tetra.vertices.tolist()))


@pytest.fixture
def regular_tetra() -> Tetrahedron:
    return Tetrahedron(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    )


@pytest.fixture
def right_corner() -> Tetrahedron:
    """Unit right-corner tetrahedron; minimizer is (1/6, 1/6, 1/6) with
    objective 5*sqrt(3)/3 (solve the symmetric one-variable problem on the
    diagonal: 12 t^2 - 8 t + 1 = 0 with t < 1/3)."""
    return Tetrahedron(
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    )


@pytest.fixture
def flat_vertex_case() -> Tetrahedron:
    """Shallow apex over an equilateral base: the apex pull norm is about
    0.2985, so the minimizer sits at vertex 1."""
    return Tetrahedron(
        np.array(
            [
                [0.0, 0.0, 0.1],
                [1.0, 0.0, 0.0],
                [-0.5, 0.8660254, 0.0],
                [-0.5, -0.8660254, 0.0],
            ]
        )
    )


@pytest.fixture
def needle_tetra() -> Tetrahedron:
    """Tall spike over a small equilateral base; interior case (every pull
    norm clears 1)."""
    return Tetrahedron(
        np.array(
            [
                [0.1, 0.0, 0.0],
                [-0.05, 0.0866025403784, 0.0],
                [-0.05, -0.0866025403784, 0.0],
                [0.0, 0.0, 100.0],
            ]
        )
    )
