"""Tetrahedron validation and the unit-cube sampler against their numpy
form.

``Tetrahedron.__post_init__`` is straight-line float code: the six edges
are float differences, ``scale`` is the largest ``math.hypot`` of them,
and the relative volume test is a scalar triple product.
``random_tetrahedron`` tests each draw's volume with the scalar ``_det4``.
The functions below are their earlier bodies: fancy-indexed edges, a
``dot`` per edge and LAPACK determinants.  They are the reference the
package must match: the same accept decision and error type on every
input, and the same vertex bytes.  ``scale`` is judged against the exact
longest edge instead, to within 2 units in its last place: the reference
squares unscaled lengths, which overflow beyond about 1e154 and underflow
below about 1e-154, where ``hypot`` does neither.

``Tetrahedron`` runs the validation kernel ``frame_rows`` on floats, and
batch-verify runs it on columns (``frame_columns``).  On every input
below, gathered in one set of columns, a row must be rejected exactly
where ``Tetrahedron`` raises, and an accepted row must hold its
``frame``, ``scale`` and ``to_frame`` bit for bit.  On columns the longest
edge is ranked by numpy's length and only the near-longest edges take
``math.hypot``, so the inputs include near-ties: regular and isosceles
tetrahedra with a coordinate moved by one ulp, and turned regular
tetrahedra on which numpy's length and ``math.hypot`` rank the longest
edges in different orders.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from tetrafermat import DegenerateInput, Tetrahedron
from tetrafermat.geometry import VOLUME_EPS, frame_columns
from tetrafermat.sampling import (
    MIN_VOLUME, instance_rng, random_tetrahedron, random_vertices,
)

from corpora import random_rotation
from conftest import scale_error_ulps

EDGE_I = [0, 0, 0, 1, 1, 2]
EDGE_J = [1, 2, 3, 2, 3, 3]


def numpy_tetrahedron(vertices):
    """The vertex array as the earlier constructor kept it; raises where it
    raised."""
    v = np.array(vertices, dtype=float, order="C")
    if v.shape != (4, 3):
        raise DegenerateInput(f"expected 4 points in 3D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DegenerateInput("vertex coordinates must be finite")
    with np.errstate(over="ignore"):
        e = v[EDGE_I] - v[EDGE_J]
        d = max(math.sqrt(r.dot(r)) for r in e)
    if not 0.0 < d < math.inf:
        raise DegenerateInput(f"longest pairwise distance is {d!r}")
    det = abs(float(np.linalg.det(e[:3] / d)))
    if det <= VOLUME_EPS:
        raise DegenerateInput(f"|det| / scale^3 = {det:.3e}")
    return v


def numpy_draws(seed, index):
    """Every draw the earlier ``random_tetrahedron`` made for (seed, index),
    the accepted one last."""
    rng = instance_rng(seed, index)
    draws = []
    while True:
        v = rng.random((4, 3))
        draws.append(v)
        if abs(np.linalg.det(v[1:] - v[0])) / 6.0 >= MIN_VOLUME:
            return draws


def outcome(build, v):
    """What a constructor makes of ``v``: the error type it raises, or the
    vertex bytes it keeps.  An accepted tetrahedron's scale must be the
    exact longest edge to within 2 units in its last place."""
    try:
        got = build(v)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    if isinstance(got, Tetrahedron):
        assert scale_error_ulps(got.vertices, got.scale) <= 2.0
        got = got.vertices
    return got.tobytes()


def assert_same_outcome(v):
    expected = outcome(numpy_tetrahedron, v)
    assert outcome(Tetrahedron, v) == expected
    return expected


@pytest.mark.parametrize("seed", range(20))
def test_unit_cube_corpus_matches_numpy_sampler(seed):
    rejected = 0
    for i in range(1000):
        draws = numpy_draws(seed, i)
        # the same stream, so equal bytes mean the same decision on every
        # draw up to the accepted one
        assert random_tetrahedron(seed, i).vertices.tobytes() == draws[-1].tobytes()
        for v in draws:
            assert_same_outcome(v)
        rejected += len(draws) - 1
    assert rejected > 0


@pytest.mark.parametrize(
    "factor, numpy_accepts",
    [(1.0, True), (1e103, True), (1e-110, True), (1e160, False), (1e-300, False)],
)
def test_scaled_inputs_match_numpy_constructor(factor, numpy_accepts):
    # at 1e160 the reference's squared lengths overflow and at 1e-300 they
    # underflow to zero, so it raises DegenerateInput; the package accepts
    # every factor, with the reference's vertex bytes where it accepts too,
    # and no numpy warning on the way
    for i in range(20):
        v = random_tetrahedron(0, i).vertices * factor
        expected = outcome(numpy_tetrahedron, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(Tetrahedron, v)
        assert got == v.tobytes()
        assert expected == (got if numpy_accepts else DegenerateInput)


def near_flat_sweep():
    """Four points within a slab of relative thickness 10**-12.5 ..
    10**-9.5, turned and moved off the axes, so |det| / scale^3 spreads
    around VOLUME_EPS with the cancellation of a real near-flat input."""
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        v = rng.random((4, 3))
        v[:, 2] *= 10.0 ** rng.uniform(-12.5, -9.5)
        yield v @ random_rotation(rng).T + rng.uniform(-1.0, 1.0, 3)


def test_near_flat_sweep_matches_numpy_decision():
    kept = sum(assert_same_outcome(v) is not DegenerateInput for v in near_flat_sweep())
    assert 300 < kept < 2700


#: the first five have shape (4, 3)
INVALID = [
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, math.nan]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, math.inf]],
    [[0, 0, 0], [1, 0, 0], [-math.inf, 1, 0], [0, 0, 1]],
    [[1, 2, 3]] * 4,
    [[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    [[0, 0], [1, 0], [0, 1], [1, 1]],
    [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    [[0, 0, 0], [1, 0], [0, 1, 0], [0, 0, 1]],
]


@pytest.mark.parametrize(
    "vertices",
    INVALID,
    ids=["nan", "inf", "minus_inf", "all_coincident", "two_coincident",
         "three_points", "planar_coords", "four_coords", "flat_list", "ragged"],
)
def test_invalid_inputs_raise_as_numpy_constructor(vertices):
    got = assert_same_outcome(vertices)
    assert isinstance(got, type) and issubclass(got, Exception)


def numpy_lengths(v):
    """The six edge lengths of ``v`` as numpy's sqrt(x*x + y*y + z*z)."""
    e = v[EDGE_I] - v[EDGE_J]
    return np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1] + e[:, 2] * e[:, 2])


def near_tie_inputs():
    """Tetrahedra whose longest edges tie, or nearly: the regular one and
    two isosceles ones (three edges of the unit corner, and an apex with
    three equal edges) with each coordinate moved one ulp either way, at
    scales on both sides of 2**+-450 and where squares are subnormal; and
    turned, moved regular tetrahedra whose longest edges by numpy's length
    are not the longest by ``math.hypot``, also at 2**-525."""
    bases = [
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 3], [1, 0, 0], [-0.5, 0.75 ** 0.5, 0], [-0.5, -(0.75 ** 0.5), 0]],
    ]
    inputs = []
    for base in np.array(bases, dtype=float):
        for k in (-520, -460, -449, 0, 449, 460):
            for slot in range(12):
                for toward in (-math.inf, math.inf):
                    v = np.ldexp(base, k).reshape(12)
                    v[slot] = np.nextafter(v[slot], toward)
                    inputs.append(v.reshape(4, 3))
    rng = np.random.default_rng(27)
    regular = np.array(bases[0], dtype=float)
    swapped = []
    while len(swapped) < 24:
        v = regular * rng.uniform(0.5, 2.0) @ random_rotation(rng).T
        v += rng.uniform(-1, 1, 3)
        lengths = np.array([math.hypot(*e) for e in (v[EDGE_I] - v[EDGE_J]).tolist()])
        estimates = numpy_lengths(v)
        # the longest by numpy's length are shorter by math.hypot than
        # another edge: about one draw in 200
        if lengths[estimates == estimates.max()].max() < lengths.max():
            swapped.append(v)
    # at 2**-525 the squares are subnormal and numpy's lengths of the six
    # nearly equal edges lose their order
    return inputs + swapped + [np.ldexp(v, -525) for v in swapped]


def kernel_inputs():
    """Every (4, 3) input of this module and of ``test_frame``, and the
    edge cases of the scale range: unit-cube draws, the rejected ones
    included; seeded inputs times 2**+-1000, 1e+-300 and the other factors
    above; the near-flat sweep; non-finite, zero-length, coincident and
    collinear points; the scale floor; an edge that overflows; the
    near-ties of the longest edge."""
    inputs = [v for seed in range(2) for i in range(300) for v in numpy_draws(seed, i)]
    factors = [1e103, 1e-110, 1e160, 1e-300, 1e-200, 1e300, 2.0 ** -1000, 2.0 ** 1000]
    shifts = [0.0, 1e5, -2.0]
    inputs += [random_vertices(0, i) * f for i in range(20) for f in factors]
    with np.errstate(over="ignore"):
        # at 2**1023 a shifted input overflows to inf: a non-finite input
        inputs += [
            np.ldexp(random_vertices(0, i) + shift, k)
            for i in range(20) for shift in shifts
            for k in (-1070, -1000, -8, 0, 8, 1000, 1023)
        ]
    inputs += list(near_flat_sweep())
    corner = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
    inputs += [corner * 2.0 ** -1022, corner * 2.0 ** -1023, corner * sys.float_info.max]
    inputs += INVALID[:5]
    inputs += [
        [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]],
        [[0, 0, 0], [-1e308, 0, 0], [1e308, 0, 0], [0, 1, 0]],
        [[math.nan] * 3] * 4,
    ]
    inputs += near_tie_inputs()
    return np.array(inputs, dtype=float)


def test_validation_kernel_on_columns_matches_tetrahedron():
    vertices = kernel_inputs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame, scale, to_frame, rejected = frame_columns(vertices)
    kept = 0
    for j, v in enumerate(vertices):
        try:
            t = Tetrahedron(v)
        except DegenerateInput:
            assert rejected[j]
            continue
        assert not rejected[j]
        assert frame[:, j].tobytes() == np.array(t.frame).tobytes()
        assert scale[j].tobytes() == np.float64(t.scale).tobytes()
        assert to_frame[j].tobytes() == np.float64(t.to_frame).tobytes()
        kept += 1
    # both outcomes are well represented
    assert 1000 < kept < len(vertices) - 1000
