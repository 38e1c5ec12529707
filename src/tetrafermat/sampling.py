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

Every row draws its first 12 doubles in 12 sequential LCG steps; the
volume test rejects about 6 % of unit-cube draws, and those rows then
draw their next ``_BLOCKS`` draws in one round, all 48 states at once by
jumping each stream ahead: k LCG steps are one affine map, ``s * a**k +
inc * (a**k - 1) / (a - 1)`` mod 2**128 (F. Brown, "Random number
generation with arbitrary strides", 1994), whose constants for k = 1 ..
48 are tabled once, so one broadcasting product gives them all.  A row
keeps its first accepted block, and one with none goes on from the end
of its last block.  No row is left to ``random_vertices``: loading numpy's
``numpy.random`` would add about 5.5 MB to a batch-verify process.
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
_M64, _M128 = 2**64 - 1, 2**128 - 1
#: PCG64's LCG multiplier
_PCG_A = 2549297995355413924 << 64 | 4865540595714422341


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

    Integer ``indices`` all in [0, 2**32) go to the columns as one array.
    Otherwise an index outside that range takes ``random_vertices``
    itself, as does its error; a negative seed raises numpy's ValueError.
    """
    index = np.asarray(indices)
    if index.dtype.kind in "iu" and index.ndim == 1 and (
        not len(index) or (index.min() >= 0 and index.max() <= _M32)
    ):
        words = _uint32_words(operator.index(seed))
        return _draw_columns(_pcg_seed(_pool([*words, index.astype(np.uint32)])))
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
    value it is XORed with and the next value, which it multiplies.  Each
    value is made a 0-d uint32 array once, in ``_HASH_RUNS``, the first
    time a pool needs it."""
    run = _HASH_RUNS[init]
    k = 0
    while True:
        if k + 1 == len(run):
            run.append(np.array(int(run[k]) * mult & _M32, dtype=np.uint32))
        yield run[k], run[k + 1]
        k += 1


def _hashmix(value, constants):
    """``SeedSequence``'s hashmix of a uint32 column, with the next of its
    running ``constants``."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _16)


def _mix(x, y):
    """``SeedSequence``'s mix of two uint32 columns."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _16)


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
    seed_hi, seed_lo, seq_hi, seq_lo = (w[k] | (w[k + 1] << _32) for k in range(0, 8, 2))
    inc = ((seq_hi << _1) | (seq_lo >> _63), (seq_lo << _1) | _1)
    # state 0, one step (to inc), the seed added, one more step
    return _step(_add(inc, (seed_hi, seed_lo)), inc), inc


def _constant(values) -> tuple:
    """128-bit constants as ``_mul`` reads them: their high halves, low
    halves and the low and high 32 bits of the low halves, each a uint64
    array of ``np.shape(values)``."""
    values = np.array(values, dtype=object)
    return tuple(
        np.array(values >> shift & mask, dtype=np.uint64)
        for shift, mask in ((64, _M64), (0, _M64), (0, _M32), (32, _M32))
    )


#: the uint64 operands of the column arithmetic, bound once as 0-d arrays:
#: numpy combines one with a column faster than a Python int or a scalar
_1, _11, _32, _58, _63, _64, _LOW32 = (
    np.array(k, dtype=np.uint64) for k in (1, 11, 32, 58, 63, 64, _M32)
)
_PCG_MULT = _constant(_PCG_A)
#: the uint32 operands of ``SeedSequence``'s hashes, bound the same way; the
#: running hash constants of the pool (A) and of ``generate_state`` (B) are
#: bound as far as a pool has needed them
_16, _MIX_L, _MIX_R = (
    np.array(k, dtype=np.uint32) for k in (16, _MIX_L, _MIX_R)
)
_HASH_RUNS = {
    init: [np.array(init, dtype=np.uint32)] for init in (_INIT_A, _INIT_B)
}


def _add(a, b):
    """a + b mod 2**128 on (high, low) uint64 columns."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _mul(a, m):
    """a * m mod 2**128 of (high, low) uint64 columns and a ``_constant``:
    the low half's 128-bit product, from 32-bit halves, and the cross
    terms' low 64 bits added to the high half."""
    hi, lo = a
    m_hi, m_lo, m0, m1 = m
    a0, a1 = lo & _LOW32, lo >> _32
    low, cross1, cross2 = a0 * m0, a0 * m1, a1 * m0
    carry = ((low >> _32) + (cross1 & _LOW32) + (cross2 & _LOW32)) >> _32
    mulhi = a1 * m1 + (cross1 >> _32) + (cross2 >> _32) + carry
    return mulhi + hi * m_lo + lo * m_hi, lo * m_lo


def _step(state, inc):
    """One LCG step, state * multiplier + inc mod 2**128."""
    return _add(_mul(state, _PCG_MULT), inc)


def _double(state):
    """The double ``Generator.random`` makes of each LCG state: its XSL-RR
    output ``x``, then ``(x >> 11) * 2**-53``."""
    hi, lo = state
    x = hi ^ lo
    rot = hi >> _58
    x = (x >> rot) | (x << ((_64 - rot) & _63))
    return (x >> _11).astype(float) * 2.0**-53


def _block(state, inc):
    """The next 12 doubles of each stream, one (4, 3) draw, as a (12, ...)
    array as ``Generator.random`` fills it (a step, then its double, in C
    order), and the state after them."""
    draws = np.empty((12, *np.shape(state[1])))
    for k in range(12):
        state = _step(state, inc)
        draws[k] = _double(state)
    return draws, state


def _accepted(draws):
    """Whether each draw of a ``_block`` passes the volume test."""
    v = tuple(tuple(draws[3 * r:3 * r + 3]) for r in range(4))
    return np.abs(_det4(*v)) / 6.0 >= MIN_VOLUME


def _draw_columns(generator) -> np.ndarray:
    """Each row's first (4, 3) draw from its PCG64 stream with volume at
    least MIN_VOLUME.

    Every row draws one block of 12 doubles; the rows it rejects then
    draw their next ``_BLOCKS`` blocks at once, every state of them
    jumped ahead from the row's state in one product, and keep the first
    accepted one, as many times as some row accepts none.
    """
    state, inc = generator
    draws, state = _block(state, inc)
    kept = _accepted(draws)
    out = np.empty((len(kept), 4, 3))
    out[kept] = draws[:, kept].T.reshape(-1, 4, 3)
    rows = np.flatnonzero(~kept)
    state, inc = [tuple(c[rows] for c in pair) for pair in (state, inc)]
    while len(rows):
        # the states 1 .. 12 * _BLOCKS steps on, block by block
        state = _add(_mul(state, _JUMP_MULT), _mul(inc, _JUMP_INC))
        draws = _double(state).reshape(_BLOCKS, 12, -1).transpose(1, 0, 2)
        kept = _accepted(draws)
        first = kept.argmax(axis=0)
        columns = np.arange(len(rows))
        done = kept[first, columns]
        out[rows[done]] = draws[:, first[done], columns[done]].T.reshape(-1, 4, 3)
        # a row with no accepted block goes on from the end of its last
        left = ~done
        rows = rows[left]
        state = tuple(c[-1, left] for c in state)
        inc = tuple(c[left] for c in inc)
    return out


def _jump_constants(steps: int):
    """The jumps of 1, 2, ... ``steps`` LCG steps: each one's multiplier
    a**k and increment factor (a**k - 1) / (a - 1) mod 2**128,
    ``s -> s * a**k + inc * (a**k - 1) / (a - 1)``, as (steps, 1)
    ``_constant`` arrays."""
    power, total, mult, factor = 1, 0, [], []
    for _ in range(steps):
        power, total = power * _PCG_A & _M128, (total * _PCG_A + 1) & _M128
        mult.append([power])
        factor.append([total])
    return _constant(mult), _constant(factor)


#: how many blocks of 12 a rejected row draws in one further round
_BLOCKS = 4
#: the jumps to every state of those blocks, 1 to 48 steps on
_JUMP_MULT, _JUMP_INC = _jump_constants(12 * _BLOCKS)
