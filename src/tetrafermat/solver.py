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
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
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
    classification the solve started from.
    """

    kind: str
    point: np.ndarray
    vertex_index: int | None
    residual: float
    iterations: int
    objective_value: float
    pull_norms: tuple[float, float, float, float]
    flags: tuple[str, ...] = ()


def objective(tetra: Tetrahedron, point) -> float:
    """Sum of distances from a point to the four vertices."""
    p = as_point(point)
    return float(kernels.distance_sum(tetra.rows, p[0], p[1], p[2]))


def pull_norm(tetra: Tetrahedron, i: int) -> float:
    """Norm of the summed unit vectors from the other vertices toward
    vertex i (1-based)."""
    if not 1 <= i <= 4:
        raise ValueError(f"vertex label must be 1..4, got {i}")
    return kernels.pull_norms(tetra.rows)[i - 1]


def balancing_residual(tetra: Tetrahedron, point) -> float:
    """Norm of the summed unit vectors from a non-vertex point toward the
    four vertices; zero exactly at an interior minimizer."""
    p = as_point(point)
    return float(kernels.resultant_norm(tetra.rows, p[0], p[1], p[2]))


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
    Interior case: runs Newton's method from the centroid until the
    balancing residual drops below ``grad_tol``.  Each step solves
    ``H s = sum u_i`` with the Hessian ``H = sum (I - u_i u_i^T) / d_i``.
    The full step is tried first; when it raises the objective beyond
    rounding, it is retried at the distance to the nearest vertex (where
    the quadratic model stops holding) and then halved until the objective
    does not rise; when no trial passes, the reweighted-average (Weiszfeld)
    point is taken instead.  Iterates within ``VERTEX_EPS * scale`` of a
    vertex are moved off it along the descent ray.  ``iterations`` counts
    Newton steps, Weiszfeld fallback steps and vertex escapes alike.
    Raises NonConvergence when the iteration budget runs out.
    """
    cls = classify(tetra)
    rows = tetra.rows
    if cls.kind == VERTEX:
        i = cls.vertex_index
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
    # the centroid, summed and divided in the order numpy's ``mean`` uses
    sx, sy, sz = ((a + b + c + d) / 4.0 for a, b, c, d in zip(*rows))
    scale = tetra.scale
    x, y, z, res, iters, status = kernels.newton(
        rows,
        sx,
        sy,
        sz,
        cfg.grad_tol,
        cfg.max_iter,
        VERTEX_EPS * scale,
        10.0 * VERTEX_EPS * scale,
    )
    if status == kernels.MAXITER:
        raise NonConvergence(np.array([x, y, z]), res, iters)
    flags = ()
    if not tetra._contains((x, y, z), 0.0):
        flags = ("outside_hull",)
    return FermatSolution(
        kind=INTERIOR,
        point=np.array([x, y, z]),
        vertex_index=None,
        residual=res,
        iterations=iters,
        objective_value=kernels.distance_sum(rows, x, y, z),
        pull_norms=cls.pull_norms,
        flags=flags,
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
    fresh polish simplexes do.  The hull start keeps the search from
    sharing ``solve``'s starting point, the centroid.  Deterministic for a
    fixed seed.
    """
    rows = tetra.rows
    scale = tetra.scale
    sx, sy, sz = hull_points(tetra, 1, np.random.default_rng(seed))[0].tolist()
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
