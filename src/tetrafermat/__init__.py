"""Fermat-Torricelli point of a tetrahedron: solver and verification tools.

The minimizer of the summed distances to four non-coplanar points either
lies strictly inside their hull (balanced unit legs) or coincides with a
vertex (pull norm at most 1).  This package computes it, measures the angle
identities the interior case satisfies, and evaluates the closed formula
that recovers the sixth leg-pair angle from the other five.
"""

from .errors import (
    ClassificationConflict,
    CoincidentPoints,
    DegenerateBaseAngle,
    DegenerateFrame,
    DegenerateInput,
    InfeasiblePair,
    NonConvergence,
    TetrafermatError,
    UnrealizableTriple,
)
from .formula import (
    FiveAngles,
    SixthAngleResult,
    config_from_five_angles,
    ft_substitution_residual,
    radical_factor,
    resolve_branch,
    sixth_angle,
)
from .geometry import (
    DirectionConfig,
    Tetrahedron,
    canonical_frame,
    direction_config,
)
from .properties import (
    AngleSextuple,
    PropertyReport,
    angle_sextuple,
    check_cosine_sum,
    check_opposite_angles,
    verify_fundamental_property,
)
from .solver import (
    Classification,
    FermatSolution,
    SolverConfig,
    balancing_residual,
    classify,
    hull_points,
    objective,
    oracle_solve,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSextuple",
    "Classification",
    "ClassificationConflict",
    "CoincidentPoints",
    "DegenerateBaseAngle",
    "DegenerateFrame",
    "DegenerateInput",
    "DirectionConfig",
    "FermatSolution",
    "FiveAngles",
    "InfeasiblePair",
    "NonConvergence",
    "PropertyReport",
    "SixthAngleResult",
    "SolverConfig",
    "Tetrahedron",
    "TetrafermatError",
    "UnrealizableTriple",
    "angle_sextuple",
    "balancing_residual",
    "canonical_frame",
    "check_cosine_sum",
    "check_opposite_angles",
    "classify",
    "config_from_five_angles",
    "direction_config",
    "ft_substitution_residual",
    "hull_points",
    "objective",
    "oracle_solve",
    "radical_factor",
    "resolve_branch",
    "sixth_angle",
    "solve",
    "verify_fundamental_property",
]
