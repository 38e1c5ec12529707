"""Seeded random inputs for verification sweeps.

Every generator derives its stream from (seed, index) so corpora are
reproducible instance by instance, independent of evaluation order.
"""

from __future__ import annotations

import numpy as np

from .geometry import Tetrahedron, _det4

#: unit-cube tetrahedra flatter than this volume are rejected
MIN_VOLUME = 1e-3


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one corpus instance, derived from (seed, index)."""
    return np.random.default_rng([seed, index])


def random_tetrahedron(seed: int, index: int) -> Tetrahedron:
    """Vertices uniform in the unit cube, rejecting volume < MIN_VOLUME."""
    rng = instance_rng(seed, index)
    while True:
        v = rng.random((4, 3))
        if abs(_det4(*v.tolist())) / 6.0 >= MIN_VOLUME:
            return Tetrahedron(v)
