"""Distance-sum minimization over a tetrahedron.

Two routes to the minimizer are provided and kept independent on purpose:
``solve`` runs a safeguarded Newton iteration with a vertex test up front,
and ``oracle_solve`` runs a derivative-free simplex search from one
seeded point inside the hull, polished by two fresh small simplexes.
Tests cross-validate one against the other.

``solve`` is the way into the Newton solver; ``solve_columns`` solves a
chunk of tetrahedra at once for batch-verify, on the same kernels, from
their frames as columns (``geometry.frame_columns``) with no
``Tetrahedron`` per instance: it settles the vertex cases and solves the
interior ones in lockstep sweeps of full Newton steps, and each one the
sweeps do not finish goes on through ``kernels.newton`` on floats, with
its one set of safeguards, so every interior tetrahedron gets
``newton``'s outcome, MAXITER included.  Only the tetrahedra with two
winning vertices or a NaN pull norm are left to ``solve``.  Both take
the Newton start and the vertex escape radius from one function,
``_newton_start``, on floats or on columns, and build the interior
solution, or raise the NonConvergence of a MAXITER outcome, in one,
``_interior``.  The stopping residual is the constant ``GRAD_TOL``, the
value every check of the minimizer is written against; a caller sets
only the iteration budget.  Every kernel reads the tetrahedron's frame,
``Tetrahedron.frame``: its vertices times the power of two
``Tetrahedron.to_frame``.  Points and lengths go into the frame times
that power and come back divided by it, both exact.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import kernels
from .errors import ClassificationConflict, NonConvergence
from .geometry import Tetrahedron, as_point
from .ops import FLOATS, Columns

#: a vertex wins the optimality test when its pull norm is <= 1 + BOUNDARY_EPS
BOUNDARY_EPS = 1e-9
#: |pull - 1| below this marks the vertex/interior decision as a near-tie
TIE_BAND = 1e-6
#: an iterate within VERTEX_EPS * scale of a vertex is moved 10 times that
#: distance off it, along the descent ray
VERTEX_EPS = 1e-9
#: the interior solve stops once the summed unit legs have at most this norm
GRAD_TOL = 1e-10
#: Newton steps and vertex escapes an interior solve may take by default
MAX_ITER = 10000
#: ``solve_columns`` finishes on floats the tetrahedra of a lockstep sweep
#: that would hold at most this many: a sweep's kernels cost about 85 us
#: on 1 to 24 columns and 180 us on 900, one Newton iterate on floats about
#: 3 us (2-core Xeon VM), and 16 to 32 measured best
FLOAT_TAIL = 24

INTERIOR = "interior"
VERTEX = "vertex"


@dataclass(frozen=True, init=False)
class Classification:
    """Outcome of the vertex-optimality test at each vertex."""

    kind: str
    vertex_index: int | None
    pull_norms: tuple[float, float, float, float]
    flags: tuple[str, ...] = ()

    def __init__(self, kind, vertex_index, pull_norms, flags=()):
        # the fields go straight into the instance dict; the generated
        # frozen __init__ makes one call per field past the frozen
        # __setattr__, about twice the time (so too below, and in
        # properties and batch)
        d = self.__dict__
        d["kind"] = kind
        d["vertex_index"] = vertex_index
        d["pull_norms"] = pull_norms
        d["flags"] = flags


@dataclass(frozen=True, init=False)
class FermatSolution:
    """Minimizer of the four-point distance sum.

    ``residual`` is the norm of the summed unit vectors toward the vertices:
    all four legs for an interior solution, the three defined legs (the pull
    norm) for a vertex solution.  ``objective_value`` is the distance sum
    at ``point``; it is ``inf`` when that sum exceeds the float64 range,
    though the point itself is finite.  ``pull_norms`` are those of the
    classification the solve started from.  Two solutions are equal when
    every field is, the point compared coordinate by coordinate, and equal
    solutions hash alike.
    """

    kind: str
    point: np.ndarray
    vertex_index: int | None
    residual: float
    iterations: int
    objective_value: float
    pull_norms: tuple[float, float, float, float]
    flags: tuple[str, ...] = ()

    def __init__(self, kind, point, vertex_index, residual, iterations,
                 objective_value, pull_norms, flags=()):
        d = self.__dict__
        d["kind"] = kind
        d["point"] = point
        d["vertex_index"] = vertex_index
        d["residual"] = residual
        d["iterations"] = iterations
        d["objective_value"] = objective_value
        d["pull_norms"] = pull_norms
        d["flags"] = flags

    def __eq__(self, other):
        # the generated method compares fields as tuple items, and an
        # array's == has no single truth value there
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return (
            self.kind,
            tuple(self.point.tolist()),
            self.vertex_index,
            self.residual,
            self.iterations,
            self.objective_value,
            self.pull_norms,
            self.flags,
        )


def objective(tetra: Tetrahedron, point) -> float:
    """Sum of distances from a point to the four vertices."""
    m = tetra.to_frame
    return kernels.distance_sum(tetra.frame, *(as_point(point) * m).tolist()) / m


def classify(tetra: Tetrahedron) -> Classification:
    """Split into the interior case and the vertex case.

    A vertex whose pull norm is <= 1 + BOUNDARY_EPS absorbs the minimizer.
    At most one vertex can qualify on non-degenerate input; two or more
    raise ClassificationConflict.
    """
    pulls = kernels.pull_norms(tetra.frame)
    if min(pulls) > 1.0 + BOUNDARY_EPS:
        # no winner; a NaN pull norm, never a winner, takes the long way
        return Classification(INTERIOR, None, pulls)
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


def solve(tetra: Tetrahedron, max_iter: int = MAX_ITER) -> FermatSolution:
    """Minimize the distance sum over the tetrahedron.

    ``classify`` makes the only vertex/interior decision.  Vertex case:
    returns the winning vertex exactly, with the classification's flags.
    Interior case: runs Newton's method until the balancing residual drops
    below ``GRAD_TOL``.  It starts one Newton step off the vertex with the
    smallest pull norm (the first, on a tie), along that vertex's descent
    ray (``_newton_start``), which lands next to a minimizer that sits
    near a vertex, where Newton from a distant start takes longest.
    It iterates in the tetrahedron's frame, which moves no iterate (see
    ``Tetrahedron``), and divides the answer by ``to_frame``.  Each step
    solves ``H s = sum u_i`` with the Hessian ``H = sum (I - u_i u_i^T) /
    d_i``.  The full step is tried first; when it raises the objective
    beyond rounding, it is retried at the distance to the nearest vertex
    (where the quadratic model stops holding) and then halved until the
    objective does not rise.  Iterates within ``VERTEX_EPS * scale`` of a
    vertex are moved off it along the descent ray.  ``iterations`` counts
    Newton steps and vertex escapes alike.  An interior solution carries no
    flags: the minimizer it converged to has balanced unit legs, so it lies
    inside the hull, and no hull test is made.  Raises NonConvergence when
    the ``max_iter`` iterations run out (at the start when ``max_iter`` is
    0), and at once when a Newton step finds no trial point that does not
    raise the objective, or ``det H`` is not positive (NaN included).
    """
    cls = classify(tetra)
    rows = tetra.frame
    m = tetra.to_frame
    if cls.kind == VERTEX:
        i = cls.vertex_index
        return FermatSolution(
            kind=VERTEX,
            point=tetra.vertex(i).copy(),
            vertex_index=i,
            residual=cls.pull_norms[i - 1],
            iterations=0,
            objective_value=kernels.distance_sum(rows, *rows[i - 1]) / m,
            pull_norms=cls.pull_norms,
            flags=cls.flags,
        )
    start, eps = _newton_start(rows, cls.pull_norms, tetra.scale, m, FLOATS)
    x, y, z, value, res, iters, status = kernels.newton(
        rows, *start, GRAD_TOL, max_iter, eps,
    )
    point = np.array([x / m, y / m, z / m])
    return _interior(point, res, iters, value / m, cls.pull_norms, status)


def _newton_start(rows, pulls, scale, to_frame, xp):
    """The Newton start of interior tetrahedra and their escape radius, on
    floats (``solve``) or on columns (``solve_columns``).

    ``rows`` are the four vertices in the frame, ``pulls`` their pull
    norms and ``scale`` and ``to_frame`` the ``Tetrahedron`` values.  The
    start is one Newton step off the first vertex with the least pull norm,
    along its descent ray (``ops.least``, then ``kernels.ray_start``); the
    radius is ``VERTEX_EPS * scale`` in the frame.
    """
    start = kernels.ray_start(*xp.least(rows, pulls), xp)
    return start, VERTEX_EPS * (scale * to_frame)


def _interior(point, residual, iterations, objective_value, pull_norms, status):
    """The interior ``FermatSolution`` with these fields, or, when
    ``status`` is MAXITER, NonConvergence at ``point``."""
    if status == kernels.MAXITER:
        raise NonConvergence(point, residual, iterations)
    return FermatSolution(
        INTERIOR, point, None, residual, iterations, objective_value, pull_norms,
    )


@dataclass(frozen=True, eq=False)
class ColumnSolutions:
    """The solutions ``solve_columns`` found for a chunk of tetrahedra, as
    columns.

    ``rows`` are the positions in the chunk of the interior tetrahedra;
    column j of ``point`` (3, k), ``residual``, ``iterations``,
    ``objective``, ``pull_norms`` (4, k) and ``status`` holds the outcome
    of the Newton iteration of ``rows[j]``: the solution ``solve``
    returns, or the NonConvergence it raises when ``status`` is MAXITER
    (``solution``).
    ``vertex_rows`` are the positions of the tetrahedra with exactly one
    vertex that passes the optimality test, the vertex ``solve`` returns,
    and ``vertex_residual`` that vertex's pull norm, its solution's
    ``residual``.
    """

    rows: np.ndarray
    point: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    objective: np.ndarray
    pull_norms: np.ndarray
    status: np.ndarray
    vertex_rows: np.ndarray
    vertex_residual: np.ndarray

    def solution(self, j: int) -> FermatSolution:
        """Column j's record, equal to ``solve``'s, or its NonConvergence."""
        return _interior(
            self.point[:, j].copy(), self.residual[j].item(),
            self.iterations[j].item(), self.objective[j].item(),
            tuple(self.pull_norms[:, j].tolist()), self.status[j].item(),
        )


def solve_columns(frame, scale, to_frame, max_iter: int = MAX_ITER) -> ColumnSolutions:
    """``solve`` on a chunk of tetrahedra at once.

    ``frame`` (12, n) holds the chunk's ``Tetrahedron.frame`` coordinates,
    vertex by vertex and x, y, z within a vertex, and ``scale`` and
    ``to_frame`` their ``Tetrahedron`` values (``geometry.frame_columns``).
    Computes every pull norm on the columns.  A tetrahedron with exactly one
    pull norm at most ``1 + BOUNDARY_EPS`` is the vertex case ``classify``
    finds: its residual is that pull norm.  The tetrahedra whose four pull
    norms all exceed ``1 + BOUNDARY_EPS`` are interior; each starts off the
    vertex with the smallest pull norm (the first, on a tie) through
    ``_newton_start``, as in ``solve``, and ``kernels.newton_columns``
    iterates them in lockstep while they take full Newton steps.  Each one
    that needs a safeguard (an escape, a shortened step, a non-positive
    ``det H``), and all once a sweep would hold at most ``FLOAT_TAIL``, go
    on through ``kernels.newton`` on floats from the iterate where they
    stand, with the budget left of ``max_iter``.  Every interior
    tetrahedron is in ``rows``, with ``newton``'s outcome: CONVERGED, or
    MAXITER (a budget run out, a non-positive ``det H`` or a step with no
    acceptable trial point), whose ``solution`` raises NonConvergence.
    The rest (two winning vertices, a NaN pull norm) are in neither
    ``rows`` nor ``vertex_rows``: ``solve`` handles each of them,
    ClassificationConflict included.  Every outcome found here is the one
    ``solve`` gives, bit for bit: the kernels are the same, in the same
    order of operations.
    """
    with np.errstate(all="ignore"):
        rows = tuple(zip(frame[0::3], frame[1::3], frame[2::3]))
        pulls = np.array(kernels.pull_norms(rows, Columns))
        wins = pulls <= 1.0 + BOUNDARY_EPS
        vertex = np.flatnonzero(wins.sum(axis=0) == 1)
        # NaN is not above the bound: such a tetrahedron is left to solve
        inner = np.flatnonzero((pulls > 1.0 + BOUNDARY_EPS).all(axis=0))
        vertex_residual = pulls[wins[:, vertex].argmax(axis=0), vertex]
        pulls, mi, frame = pulls[:, inner], to_frame[inner], frame[:, inner]
        rows = tuple(zip(frame[0::3], frame[1::3], frame[2::3]))
        start, eps = _newton_start(rows, pulls, scale[inner], mi, Columns)
        x, y, z, value, res, iters, status = kernels.newton_columns(
            rows, *start, GRAD_TOL, max_iter, eps, FLOAT_TAIL,
        )
        # a far MAXITER iterate may overflow to inf, as solve's floats do
        return ColumnSolutions(
            rows=inner,
            point=np.array([x / mi, y / mi, z / mi]),
            residual=res,
            iterations=iters,
            objective=value / mi,
            pull_norms=pulls,
            status=status,
            vertex_rows=vertex,
            vertex_residual=vertex_residual,
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
    found and set the final precision.  At an interior minimizer, where
    rounding of the distance sum leaves nothing to compare, that is a few
    1e-8 * scale (at most 7e-8 on 1200 known answers, 1.1e-7 on a sliver
    flattened by 1e-3); at a vertex minimizer a few 1e-12 * scale.  On a
    convex objective more starts do not guard against simplex stagnation; the
    fresh polish simplexes do.  The search shares no start with ``solve``:
    it starts at a seeded point inside the hull, ``solve`` next to a
    vertex.  Deterministic for a fixed seed.
    """
    rows = tetra.frame
    m = tetra.to_frame
    scale = tetra.scale * m
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
    return np.array([c / m for c in best[:3]])
