"""The column draw of a batch-verify chunk against numpy's own generator.

``random_vertex_columns`` re-derives numpy's ``SeedSequence`` and
``PCG64`` on integer columns.  It must return, byte for byte, numpy's raw
``default_rng([seed, index]).random((4, 3))`` when no draw is rejected,
and the stacked ``random_vertices`` arrays with the volume test on.  The
seeds span one, two, three and four uint32 words (four words put the
index past ``SeedSequence``'s pool, into its remaining-entropy loop), and
the indices cross 2**32, where a row takes the scalar draw.
"""

from collections import Counter

import numpy as np
import pytest

from tetrafermat import sampling
from tetrafermat.geometry import _det4
from tetrafermat.sampling import (
    MIN_VOLUME, random_vertex_columns, random_vertices,
)

SEEDS = [*range(8), 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7]
INDICES = [*range(2048), 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1]


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_draws_are_numpys(seed, monkeypatch):
    # with the volume test off every row keeps its first draw
    monkeypatch.setattr(sampling, "MIN_VOLUME", 0.0)
    want = np.array([np.random.default_rng([seed, i]).random((4, 3)) for i in INDICES])
    assert_bytes_equal(random_vertex_columns(seed, INDICES), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_kept_draws_are_random_vertices(seed):
    want = np.array([random_vertices(seed, i) for i in INDICES])
    assert_bytes_equal(random_vertex_columns(seed, INDICES), want)


def rejected_draws(seed, index):
    """How many of numpy's draws for the instance fail the volume test
    before one passes."""
    rng = np.random.default_rng([seed, index])
    count = 0
    while abs(_det4(*rng.random((4, 3)).tolist())) / 6.0 < MIN_VOLUME:
        count += 1
    return count


def test_compared_rows_include_one_two_and_three_redraws():
    # rows test_kept_draws_are_random_vertices compares, whose columns
    # continue their streams once, twice and three times
    counts = Counter(min(rejected_draws(s, i), 3) for s in range(8) for i in range(2048))
    assert counts[1] and counts[2] and counts[3]


@pytest.mark.parametrize("indices", [[], range(0), [5], range(2**32, 2**32 + 1)])
def test_empty_and_one_row_chunks(indices):
    want = np.array([random_vertices(3, i) for i in indices]).reshape(-1, 4, 3)
    assert_bytes_equal(random_vertex_columns(3, indices), want)


def test_negative_seed_raises_as_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_vertex_columns(-1, range(3))


def test_negative_index_raises_as_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_vertex_columns(0, [0, -1])
