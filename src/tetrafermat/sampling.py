"""Seeded random inputs for verification sweeps.

Every generator derives its stream from (seed, index) so corpora are
reproducible instance by instance, independent of evaluation order.
``random_vertices`` is the unit-cube draw itself, a (4, 3) vertex array,
on ``instance_rng(seed, index)``: numpy's ``default_rng([seed, index])``,
a ``SeedSequence`` seeding ``PCG64``.  ``random_tetrahedron`` is the same
draw as a ``Tetrahedron``.

``random_vertex_columns`` is the draw of a batch-verify chunk, byte for
byte the stacked ``random_vertices`` arrays.  It runs numpy's fixed
algorithms on integer columns, one element per instance: ``SeedSequence``'s
hashmix, mix and ``generate_state`` on uint32 columns, ``PCG64``'s seeding
and XSL-RR output on a 128-bit LCG held as (high, low) uint64 columns, the
doubles as ``(x >> 11) * 2**-53`` and the volume test through the same
``_det4`` expression.  The constants below are numpy's (``SeedSequence``:
numpy/random/bit_generator.pyx; ``PCG64``: O'Neill, PCG, HMC-CS-2014-0905);
NEP 19 keeps both streams stable across numpy versions.
"""

from __future__ import annotations

import operator

import numpy as np

from .geometry import Tetrahedron, _det4

#: unit-cube tetrahedra flatter than this volume are rejected
MIN_VOLUME = 1e-3

_M32 = 0xFFFFFFFF
#: SeedSequence: its pool size in uint32 words, the hash constants of the
#: pool (A) and of ``generate_state`` (B), and the mix multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: PCG64's LCG multiplier as (high, low) 64-bit halves
_PCG_MULT = (2549297995355413924, 4865540595714422341)


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


def random_vertex_columns(seed: int, indices) -> np.ndarray:
    """``np.array([random_vertices(seed, i) for i in indices])`` as an
    (n, 4, 3) array, byte for byte, drawn on integer columns.

    An index outside [0, 2**32) takes ``random_vertices`` itself, as does
    its error; a negative seed raises numpy's ValueError.
    """
    indices = [operator.index(i) for i in indices]
    words = _uint32_words(operator.index(seed))
    index = np.array([i if 0 <= i <= _M32 else 0 for i in indices], dtype=np.uint32)
    out = _draw_columns(_pcg_seed(_pool([*words, index])))
    for slot, i in enumerate(indices):
        if not 0 <= i <= _M32:
            out[slot] = random_vertices(seed, i)
    return out


def _uint32_words(n: int) -> list:
    """``n`` as the little-endian uint32 words ``SeedSequence`` reads, each
    a 1-element array; zero is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return [np.array([w], dtype=np.uint32) for w in words]


def _hash_constants(init: int, mult: int):
    """The running hash constant of ``SeedSequence``: per hashmix, the
    value it is XORed with and the next value, which it multiplies."""
    h = init
    while True:
        following = h * mult & _M32
        yield h, following
        h = following


def _hashmix(value, constants):
    """``SeedSequence``'s hashmix of a uint32 column, with the next of its
    running ``constants``."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    """``SeedSequence``'s mix of two uint32 columns."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _pool(entropy: list) -> list:
    """``SeedSequence``'s pool of uint32 columns for the entropy words."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else zero, constants)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    return pool


def _pcg_seed(pool: list):
    """``PCG64`` seeded from ``generate_state(4, uint64)`` of the pool: its
    128-bit state and increment, each as (high, low) uint64 columns."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    w = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (w[k] | (w[k + 1] << 32) for k in range(0, 8, 2))
    inc = ((seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1)
    # state 0, one step (to inc), the seed added, one more step
    return _step(_add(inc, (seed_hi, seed_lo)), inc), inc


def _add(a, b):
    """a + b mod 2**128 on (high, low) uint64 columns."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _mulhi(a, b: int):
    """The high 64 bits of the 128-bit product of a uint64 column and a
    64-bit constant, from 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    low, cross1, cross2 = a0 * b0, a0 * b1, a1 * b0
    carry = ((low >> 32) + (cross1 & _M32) + (cross2 & _M32)) >> 32
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + carry


def _step(state, inc):
    """One LCG step, state * multiplier + inc mod 2**128."""
    hi, lo = state
    m_hi, m_lo = _PCG_MULT
    return _add((_mulhi(lo, m_lo) + hi * m_lo + lo * m_hi, lo * m_lo), inc)


def _draw_columns(generator) -> np.ndarray:
    """Each row's first (4, 3) draw from its PCG64 stream with volume at
    least MIN_VOLUME, as ``Generator.random`` fills it: step, XSL-RR
    output, ``(x >> 11) * 2**-53``, in C order."""
    (hi, lo), (inc_hi, inc_lo) = generator
    out = np.empty((len(lo), 4, 3))
    rows = np.arange(len(lo))
    while len(rows):
        draws = np.empty((12, len(rows)))
        for k in range(12):
            hi, lo = _step((hi, lo), (inc_hi, inc_lo))
            x = hi ^ lo
            rot = hi >> 58
            x = (x >> rot) | (x << ((64 - rot) & 63))
            draws[k] = (x >> 11).astype(float) * 2.0**-53
        v = tuple(tuple(draws[3 * r:3 * r + 3]) for r in range(4))
        kept = np.abs(_det4(*v)) / 6.0 >= MIN_VOLUME
        out[rows[kept]] = draws[:, kept].T.reshape(-1, 4, 3)
        left = ~kept
        rows, hi, lo, inc_hi, inc_lo = (c[left] for c in (rows, hi, lo, inc_hi, inc_lo))
    return out
