"""The column draw of a batch-verify chunk against numpy's own generator.

``random_vertex_columns`` re-derives numpy's ``SeedSequence`` and
``PCG64`` on integer columns.  It must return, byte for byte, numpy's raw
``default_rng([seed, index]).random((4, 3))`` when no draw is rejected,
and the stacked ``random_vertices`` arrays with the volume test on.  The
seeds span one, two, three and four uint32 words (four words put the
index past ``SeedSequence``'s pool, into its remaining-entropy loop), and
the indices cross 2**32, where a row takes the scalar draw.  A volume
bound far above ``MIN_VOLUME`` rejects most draws, so that rows take
every block of a redraw round and go on to further rounds.
"""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import tetrafermat
from tetrafermat import sampling
from tetrafermat.geometry import _det4
from tetrafermat.sampling import (
    MIN_VOLUME, random_vertex_columns, random_vertices,
)

SEEDS = [*range(8), 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7]
INDICES = [*range(2048), 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1]
#: a volume bound that about 76 % of unit-cube draws fail
HIGH_MIN_VOLUME = 0.02


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


@pytest.mark.parametrize("seed", SEEDS)
def test_redrawn_rows_are_random_vertices(seed, monkeypatch):
    monkeypatch.setattr(sampling, "MIN_VOLUME", HIGH_MIN_VOLUME)
    want = np.array([random_vertices(seed, i) for i in INDICES])
    assert_bytes_equal(random_vertex_columns(seed, INDICES), want)


def rejected_draws(seed, index, min_volume=MIN_VOLUME):
    """How many of numpy's draws for the instance fail the volume test
    before one passes."""
    rng = np.random.default_rng([seed, index])
    count = 0
    while abs(_det4(*rng.random((4, 3)).tolist())) / 6.0 < min_volume:
        count += 1
    return count


def test_compared_rows_include_one_two_and_three_redraws():
    # rows test_kept_draws_are_random_vertices compares, whose columns
    # continue their streams once, twice and three times
    counts = Counter(min(rejected_draws(s, i), 3) for s in range(8) for i in range(2048))
    assert counts[1] and counts[2] and counts[3]


def test_redrawn_rows_take_every_block_and_further_rounds():
    # rows test_redrawn_rows_are_random_vertices compares: a row rejected
    # c > 0 times takes block (c - 1) % BLOCKS of redraw round
    # (c - 1) // BLOCKS + 1; every block of the first two rounds is taken,
    # and some rows need a third round
    blocks = sampling._BLOCKS
    taken = Counter()
    for s in range(8):
        for i in range(2048):
            c = rejected_draws(s, i, HIGH_MIN_VOLUME)
            if c:
                taken[min((c - 1) // blocks, 2), (c - 1) % blocks] += 1
    assert all(taken[r, b] for r in range(2) for b in range(blocks))
    assert sum(taken[2, b] for b in range(blocks))


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


def test_batch_verify_leaves_numpy_random_unloaded():
    # random_vertices is numpy.random's own draw, but importing
    # numpy.random adds about 5.5 MB to the process's peak RSS: every
    # batch-verify row, redrawn ones included, must come from the integer
    # columns, which need only numpy's core
    code = (
        "import sys\n"
        "from tetrafermat.batch import run_batch_verify\n"
        "run_batch_verify(1, 2500)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(tetrafermat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
