"""Exception types raised by the geometry, solver, and formula layers."""

from __future__ import annotations


class TetrafermatError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPoints(TetrafermatError):
    """Two points are too close to define a direction between them."""


class DegenerateInput(TetrafermatError):
    """Four points too close to collinear/coplanar to form a tetrahedron."""


class DegenerateFrame(TetrafermatError):
    """The first two direction vectors are (anti-)parallel, so no canonical
    frame can be anchored on them."""


class ClassificationConflict(TetrafermatError):
    """More than one vertex passed the vertex-optimality test; the input is
    numerically pathological."""


class NonConvergence(TetrafermatError):
    """The balancing residual did not drop below tolerance: budget
    exhausted, or a Newton step found no trial point that does not raise
    the objective.  Carries the iterate the iteration stopped at."""

    def __init__(self, point, residual: float, iterations: int):
        self.point = point
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class UnrealizableTriple(TetrafermatError):
    """An angle triple cannot be realized by three unit vectors (its Gram
    determinant would be negative)."""


class DegenerateBaseAngle(TetrafermatError):
    """The angle between legs 1 and 2 is too close to 0 or pi; the frame
    equations divide by its sine."""


class InfeasiblePair(TetrafermatError):
    """An angle pair admits no induced third angle under the cosine-sum
    identity."""
