"""The tetrahedron's power-of-two frame, across the float64 range.

``Tetrahedron`` keeps its vertices times ``to_frame``, a power of two that
brings ``scale`` into [0.5, 1), and every kernel reads that frame.  A
product by a power of two is exact in the normal range, so scaling the
input by 2**k leaves the frame as it is and scales every answer by 2**k
exactly.  Inputs scaled by decimal factors are not exact multiples, so
their answers are judged against the unit-scale ones with a bound.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetrafermat import (
    DegenerateInput,
    NonConvergence,
    Tetrahedron,
    classify,
    direction_config,
    oracle_solve,
    solve,
    verify_fundamental_property,
)
from tetrafermat.sampling import random_tetrahedron


def solve_outcome(t):
    """Every field of ``solve``'s answer, or of its NonConvergence payload,
    with the point and the objective as lists of floats."""
    try:
        s = solve(t)
    except NonConvergence as exc:
        return ("nonconvergence", exc.point.tolist(), exc.residual, exc.iterations)
    return (
        s.kind, s.point.tolist(), s.vertex_index, s.residual, s.iterations,
        [s.objective_value], s.pull_norms, s.flags,
    )


def scaled(outcome, k):
    """``solve_outcome`` with its point and objective times 2**k."""
    return tuple(
        [math.ldexp(c, k) for c in item] if type(item) is list else item
        for item in outcome
    )


@given(
    index=st.integers(0, 99),
    k=st.integers(-1000, 1000),
    shift=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
@settings(max_examples=300, deadline=None)
def test_power_of_two_scaling_is_exact(index, k, shift):
    u = random_tetrahedron(0, index).vertices + shift
    w = np.ldexp(u, k)
    # only an input that scales exactly can scale its answers exactly:
    # none of its coordinates may round into the subnormal range
    assume(np.array_equal(np.ldexp(w, -k), u))
    tu, tw = Tetrahedron(u), Tetrahedron(w)
    assert all(
        c == 0.0 or abs(c) >= sys.float_info.min for row in tw.frame for c in row
    )
    assert tw.frame == tu.frame
    assert tw.to_frame == math.ldexp(tu.to_frame, -k)
    assert tw.scale == math.ldexp(tu.scale, k)
    assert classify(tw) == classify(tu)
    outcome = solve_outcome(tu)
    assert solve_outcome(tw) == scaled(outcome, k)
    centroid = u.mean(axis=0)
    points = [(centroid, np.ldexp(centroid, k))]
    if outcome[0] == "interior":
        points.append((np.array(outcome[1]), np.array(scaled(outcome, k)[1])))
    for pu, pw in points:
        assert direction_config(tw, pw) == direction_config(tu, pu)
    expected = [math.ldexp(c, k) for c in oracle_solve(tu, seed=index).tolist()]
    assert oracle_solve(tw, seed=index).tolist() == expected


@pytest.mark.parametrize(
    "factor", [1e-300, 1e-200, 1e160, 1e300, 2.0 ** -1000, 2.0 ** 1000],
)
def test_extreme_scales_match_unit_scale(factor):
    # well-shaped inputs whose squared edges leave float64 are accepted,
    # solved, verified and cross-checked with no error and no warning, and
    # each answer is the unit-scale one times the factor, to rounding
    for i in range(100):
        t1 = random_tetrahedron(0, i)
        sol1 = solve(t1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tetrahedron(t1.vertices * factor)
            sol = solve(t)
            orc = oracle_solve(t, seed=i)
            if sol.kind == "interior":
                assert verify_fundamental_property(
                    direction_config(t, sol.point)
                ).passed
        assert (sol.kind, sol.vertex_index) == (sol1.kind, sol1.vertex_index)
        assert np.abs(sol.point - sol1.point * factor).max() <= 1e-14 * t.scale
        assert np.abs(orc - sol.point).max() <= 1e-5 * t.scale


def test_scale_floor_is_the_least_normal_float():
    # a longest edge just above the least normal float still has a finite
    # frame, and its answer is the unit-scale one scaled exactly; below it,
    # 2**-e would overflow, and the input is rejected
    corner = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
    t = Tetrahedron(corner * 2.0 ** -1022)
    assert sys.float_info.min < t.scale < 2.0 * sys.float_info.min
    unit = solve(Tetrahedron(corner)).point.tolist()
    assert solve(t).point.tolist() == [math.ldexp(c, -1022) for c in unit]
    with pytest.raises(DegenerateInput, match="longest pairwise distance"):
        Tetrahedron(corner * 2.0 ** -1023)
