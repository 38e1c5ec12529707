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
    verify_fundamental_property,
)
from .solver import (
    Classification,
    FermatSolution,
    SolverConfig,
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
    "TetrafermatError",
    "Tetrahedron",
    "UnrealizableTriple",
    "angle_sextuple",
    "canonical_frame",
    "classify",
    "config_from_five_angles",
    "direction_config",
    "ft_substitution_residual",
    "hull_points",
    "objective",
    "oracle_solve",
    "resolve_branch",
    "sixth_angle",
    "solve",
    "verify_fundamental_property",
]
