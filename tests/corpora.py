"""Seeded corpora the tests draw from: random rotations, unit-leg
quadruples, balanced quadruples, known-answer tetrahedra and five-angle
sets.

Every generator derives its stream from (seed, index) so corpora are
reproducible instance by instance, independent of evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from tetrafermat.formula import resolve_branch, FiveAngles
from tetrafermat.geometry import DirectionConfig, Tetrahedron
from tetrafermat.properties import angle_sextuple
from tetrafermat.sampling import instance_rng

#: resampling guard for pairwise |cos| between generated directions
MAX_PAIR_COS = 0.99
#: minimal |Gram determinant| of the leg-1/2/i triples kept in sweeps
MIN_GRAM = 1e-3
#: target resultant norm for balanced quadruples
BALANCE_TOL = 1e-10
#: vertices mirror-symmetric in the plane y = 0, where vertices 3 and 4
#: swap: their pull norms, the least two, tie bit for bit
MIRROR_TIE = ((1.3, 0.0, 0.2), (-1.0, 0.0, 0.0), (0.1, 0.7, -0.5), (0.1, -0.7, -0.5))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _unit_rows(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    u = rng.normal(size=(n, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _frame_ok(units: np.ndarray) -> bool:
    """Reject quadruples with a pair of legs near (anti-)parallel or a
    near-degenerate radical factor."""
    c = units @ units.T
    if np.abs(c[np.triu_indices(4, 1)]).max() > MAX_PAIR_COS:
        return False
    g3 = np.linalg.det(c[np.ix_((0, 1, 2), (0, 1, 2))])
    g4 = np.linalg.det(c[np.ix_((0, 1, 3), (0, 1, 3))])
    return min(abs(g3), abs(g4)) >= MIN_GRAM


def random_unit_quadruple(seed: int, index: int) -> np.ndarray:
    """Four generic unit directions (not balanced), degeneracy-rejected."""
    rng = instance_rng(seed, index)
    while True:
        u = _unit_rows(rng)
        if _frame_ok(u):
            return u


def balanced_quadruple(seed: int, index: int) -> np.ndarray:
    """Four unit directions summing to (numerically) zero.

    Project-and-renormalize fixed point: subtract the mean and rescale rows
    until the resultant norm drops below BALANCE_TOL; collapsing rows or
    a quadruple ``_frame_ok`` rejects trigger a resample.
    """
    rng = instance_rng(seed, index)
    while True:
        u = _unit_rows(rng)
        for _ in range(5000):
            resultant = u.sum(axis=0)
            if np.linalg.norm(resultant) < BALANCE_TOL:
                break
            w = u - resultant / 4.0
            norms = np.linalg.norm(w, axis=1)
            if norms.min() < 0.3:
                break
            u = w / norms[:, None]
        if np.linalg.norm(u.sum(axis=0)) < BALANCE_TOL and _frame_ok(u):
            return u


def known_answer_tetrahedron(seed: int, index: int) -> tuple[Tetrahedron, np.ndarray]:
    """A tetrahedron with its Fermat-Torricelli point p known by construction.

    The vertices are p + d_i u_i for the balanced quadruple u of
    (seed, index): the unit vectors from p toward the vertices sum to zero
    (within BALANCE_TOL), so p is the minimizer.  p is uniform in
    [-1, 1]^3 and d_2..d_4 uniform in [0.5, 1].  d_1 is r times the longest
    edge among vertices 2-4, with log10 r uniform on [-12, 0], so that
    log10(d_1 / scale) spreads over [-12, 0] and reaches minimizers
    arbitrarily close to vertex 1.  Returns (tetrahedron, p).
    """
    u = balanced_quadruple(seed, index)
    # a stream of its own, apart from the one that drew u
    rng = np.random.default_rng([seed, index, 1])
    p = rng.uniform(-1.0, 1.0, 3)
    legs = rng.uniform(0.5, 1.0, (4, 1)) * u
    far = max(
        float(np.linalg.norm(legs[i] - legs[j]))
        for i in (1, 2, 3)
        for j in range(i + 1, 4)
    )
    legs[0] = 10.0 ** rng.uniform(-12.0, 0.0) * far * u[0]
    return Tetrahedron(p + legs), p


def random_five_angles(seed: int, index: int) -> tuple[FiveAngles, int, DirectionConfig]:
    """A realizable five-angle set with its radical branch and the
    configuration of four random unit legs that realizes it."""
    rng = instance_rng(seed, index)
    while True:
        u = _unit_rows(rng)
        if not _frame_ok(u):
            continue
        config = DirectionConfig(u)
        branch = resolve_branch(config)
        if branch == 0:
            continue
        s = angle_sextuple(config)
        fa = FiveAngles(s.a102, s.a103, s.a104, s.a203, s.a204)
        if math.sin(fa.a102) <= 1e-6:
            continue
        return fa, branch, config
