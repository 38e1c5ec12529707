"""Seeded random inputs for verification sweeps.

Every generator derives its stream from (seed, index) so corpora are
reproducible instance by instance, independent of evaluation order.
``random_vertices`` is the unit-cube draw itself, a (4, 3) vertex array:
batch-verify stacks a chunk's draws and validates them on columns
(``geometry.frame_columns``), with no per-instance object.
``random_tetrahedron`` is the same draw as a ``Tetrahedron``.
"""

from __future__ import annotations

import numpy as np

from .geometry import Tetrahedron, _det4

#: unit-cube tetrahedra flatter than this volume are rejected
MIN_VOLUME = 1e-3


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one corpus instance, derived from (seed, index)."""
    return np.random.default_rng([seed, index])


def random_vertices(seed: int, index: int) -> np.ndarray:
    """Four vertices uniform in the unit cube, as a (4, 3) array, redrawn
    while their volume is below MIN_VOLUME."""
    rng = instance_rng(seed, index)
    while True:
        v = rng.random((4, 3))
        if abs(_det4(*v.tolist())) / 6.0 >= MIN_VOLUME:
            return v


def random_tetrahedron(seed: int, index: int) -> Tetrahedron:
    """The tetrahedron on ``random_vertices(seed, index)``."""
    return Tetrahedron(random_vertices(seed, index))
