"""Distance-sum minimization over a tetrahedron.

Two routes to the minimizer are provided and kept independent on purpose:
``solve`` runs a safeguarded Newton iteration with a vertex test up front,
and ``oracle_solve`` runs a derivative-free simplex search from one
seeded point inside the hull, polished by two fresh small simplexes.
Tests cross-validate one against the other.

``solve`` is the only way into the Newton solver, and ``SolverConfig`` the
only place that sets its defaults and checks them.  The kernels read the
tetrahedron's float rows, ``Tetrahedron.rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ClassificationConflict, NonConvergence
from .geometry import Tetrahedron, as_point

#: a vertex wins the optimality test when its pull norm is <= 1 + BOUNDARY_EPS
BOUNDARY_EPS = 1e-9
#: |pull - 1| below this marks the vertex/interior decision as a near-tie
TIE_BAND = 1e-6
#: an iterate within VERTEX_EPS * scale of a vertex is moved 10 times that
#: distance off it, along the descent ray
VERTEX_EPS = 1e-9

INTERIOR = "interior"
VERTEX = "vertex"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls of the interior-case solve: the balancing
    residual to reach and the iteration budget."""

    grad_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Classification:
    """Outcome of the vertex-optimality test at each vertex."""

    kind: str
    vertex_index: int | None
    pull_norms: tuple[float, float, float, float]
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FermatSolution:
    """Minimizer of the four-point distance sum.

    ``residual`` is the norm of the summed unit vectors toward the vertices:
    all four legs for an interior solution, the three defined legs (the pull
    norm) for a vertex solution.  ``pull_norms`` are those of the
    classification the solve started from.  Two solutions are equal when
    every field is, the point compared coordinate by coordinate.
    """

    kind: str
    point: np.ndarray
    vertex_index: int | None
    residual: float
    iterations: int
    objective_value: float
    pull_norms: tuple[float, float, float, float]
    flags: tuple[str, ...] = ()

    def __eq__(self, other):
        # the generated method compares fields as tuple items, and an
        # array's == has no single truth value there
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        return (
            self.kind,
            self.point.tolist(),
            self.vertex_index,
            self.residual,
            self.iterations,
            self.objective_value,
            self.pull_norms,
            self.flags,
        )


def objective(tetra: Tetrahedron, point) -> float:
    """Sum of distances from a point to the four vertices."""
    p = as_point(point)
    return float(kernels.distance_sum(tetra.rows, p[0], p[1], p[2]))


def classify(tetra: Tetrahedron) -> Classification:
    """Split into the interior case and the vertex case.

    A vertex whose pull norm is <= 1 + BOUNDARY_EPS absorbs the minimizer.
    At most one vertex can qualify on non-degenerate input; two or more
    raise ClassificationConflict.
    """
    pulls = kernels.pull_norms(tetra.rows)
    winners = [i for i, p in zip((1, 2, 3, 4), pulls) if p <= 1.0 + BOUNDARY_EPS]
    if len(winners) > 1:
        raise ClassificationConflict(
            f"vertices {winners} all pass the optimality test; "
            "input is numerically degenerate"
        )
    if winners:
        i = winners[0]
        flags = ()
        if abs(pulls[i - 1] - 1.0) < TIE_BAND:
            flags = ("boundary_tie",)
        return Classification(VERTEX, i, pulls, flags)
    return Classification(INTERIOR, None, pulls)


def solve(tetra: Tetrahedron, config: SolverConfig | None = None) -> FermatSolution:
    """Minimize the distance sum over the tetrahedron.

    ``classify`` makes the only vertex/interior decision.  Vertex case:
    returns the winning vertex exactly, with the classification's flags.
    Interior case: runs Newton's method until the balancing residual drops
    below ``grad_tol``.  It starts one Newton step off the vertex with the
    smallest pull norm (the first, on a tie), along that vertex's descent
    ray (``kernels.vertex_ray_start``), which lands next to a minimizer that
    sits near a vertex, where Newton from a distant start takes longest.
    It iterates on the vertices times ``2**-e``, where
    ``scale = f * 2**e`` with ``0.5 <= f < 1``, and divides the answer by
    the same power of two.  Both products are exact, so the iterates,
    ``iterations``, ``residual`` and ``objective_value`` are those of the
    same start in input units, scaling the input by a power of two scales
    the answer exactly, and the determinant of the Hessian stays finite at
    every accepted scale.  Each step solves ``H s = sum u_i`` with the
    Hessian ``H = sum (I - u_i u_i^T) / d_i``.  The full step is tried
    first; when it raises the objective beyond rounding, it is retried at
    the distance to the nearest vertex (where the quadratic model stops
    holding) and then halved until the objective does not rise.  Iterates
    within ``VERTEX_EPS * scale`` of a vertex are moved off it along the
    descent ray.  ``iterations`` counts Newton steps and vertex escapes
    alike.  An interior solution carries no flags: the minimizer it
    converged to has balanced unit legs, so it lies inside the hull, and no
    hull test is made.  Raises NonConvergence when the iteration budget
    runs out, and at once when a Newton step finds no trial point that does
    not raise the objective, or ``det H`` is not positive (NaN included).
    """
    cls = classify(tetra)
    if cls.kind == VERTEX:
        i = cls.vertex_index
        rows = tetra.rows
        return FermatSolution(
            kind=VERTEX,
            point=tetra.vertex(i).copy(),
            vertex_index=i,
            residual=cls.pull_norms[i - 1],
            iterations=0,
            objective_value=kernels.distance_sum(rows, *rows[i - 1]),
            pull_norms=cls.pull_norms,
            flags=cls.flags,
        )
    cfg = config or SolverConfig()
    pulls = cls.pull_norms
    scale = tetra.scale
    # 2**-e with scale = f * 2**e, 0.5 <= f < 1: multiplying by a power of
    # two is exact, so the iteration runs as it would on the input rows,
    # with its lengths near 1 and its Hessian finite at any scale
    m = math.ldexp(1.0, -math.frexp(scale)[1])
    rows = tuple((x * m, y * m, z * m) for x, y, z in tetra.rows)
    sx, sy, sz = kernels.vertex_ray_start(rows, pulls.index(min(pulls)))
    eps = VERTEX_EPS * (scale * m)
    x, y, z, value, res, iters, status = kernels.newton(
        rows, sx, sy, sz, cfg.grad_tol, cfg.max_iter, eps, 10.0 * eps,
    )
    point = np.array([x / m, y / m, z / m])
    if status == kernels.MAXITER:
        raise NonConvergence(point, res, iters)
    return FermatSolution(
        kind=INTERIOR,
        point=point,
        vertex_index=None,
        residual=res,
        iterations=iters,
        objective_value=value / m,
        pull_norms=pulls,
    )


def hull_points(tetra: Tetrahedron, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random points inside the hull (uniform barycentric weights)."""
    w = rng.dirichlet(np.ones(4), size=count)
    return w @ tetra.vertices


def oracle_solve(tetra: Tetrahedron, seed: int = 0) -> np.ndarray:
    """Derivative-free cross-check: simplex search from a seeded hull start.

    Runs the simplex minimizer from one random point inside the hull, then
    polishes its answer with two small-simplex passes.  The first run stops
    once its simplex spans at most 1e-3 * scale in every coordinate, the
    size of the first polish simplex, and its values at most 1e-6 * scale:
    the polish passes restart from a fresh small simplex at the best point
    found and set the final precision (down to 1e-12 * scale).  On a convex
    objective more starts do not guard against simplex stagnation; the
    fresh polish simplexes do.  The search shares no start with ``solve``:
    it starts at a seeded point inside the hull, ``solve`` next to a
    vertex.  Deterministic for a fixed seed.
    """
    rows = tetra.rows
    scale = tetra.scale
    # barycentric weights on the float rows, summed left to right, so the
    # start does not depend on how a BLAS build rounds a matrix product
    w0, w1, w2, w3 = np.random.default_rng(seed).dirichlet(np.ones(4)).tolist()
    sx, sy, sz = (w0 * a + w1 * b + w2 * c + w3 * d for a, b, c, d in zip(*rows))
    best = kernels.nelder_mead(
        rows, sx, sy, sz, 0.2 * scale, 1e-3 * scale, 1e-6 * scale, 600,
    )[:4]
    for step in (1e-3 * scale, 1e-5 * scale):
        x, y, z, fv, _ = kernels.nelder_mead(
            rows, best[0], best[1], best[2],
            step, 1e-12 * scale, 1e-14 * scale, 500,
        )
        if fv < best[3]:
            best = (x, y, z, fv)
    return np.array(best[:3])
