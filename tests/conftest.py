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
