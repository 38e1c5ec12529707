"""The elementary operations of the numeric kernels, for floats or for
columns.

The kernels in ``kernels`` (pull norms, the Newton start and iterate),
``geometry`` (validation, legs), ``properties`` and ``formula`` are
written once, for coordinates that are either Python floats (the scalar
API, one instance per call) or 1-D float64 arrays with one element per
instance (``batch.run_batch_verify``, one chunk per call).  ``+ - * /``,
comparisons, ``&``, ``|`` and ``abs`` need nothing: floats and numpy
arrays both define them, and every element of an array result is the IEEE
result the float operation gives (a comparison's bool adds as 0 or 1 in
both).  The rest comes from one of two namespaces, passed to each kernel
as ``xp``:

- ``FLOATS``: ``math``'s functions, ``max`` and ``min`` of two floats, as
  ``clip`` a value clamped to [-1, 1] by one conditional expression, a
  conditional expression as ``where``, ``operator.truth`` as ``all``, as
  ``finite`` whether every value of a sequence is finite, as ``longest``
  the largest ``math.hypot`` of a sequence of (x, y, z) edges, and as
  ``least`` the first vertex with the least pull norm, by ``index`` of
  ``min``.
- ``Columns``: numpy's ``sqrt``, ``maximum``, ``minimum``, ``where``,
  ``all``, ``frexp`` and ``ldexp``, ``clip`` as ``minimum(1, maximum(-1,
  c))``, ``finite`` per row, ``longest`` per row, and ``least`` per row,
  by ``argmin``.  Numpy's length of an edge can differ from
  ``math.hypot``'s in the last bits, and a column must hold exactly the
  value the scalar API computes, so ``longest`` ranks each row's edges by
  numpy's length and takes ``math.hypot`` element by element only of the
  edges that could be the longest: one per row but for near-ties.  It is
  the only ``math`` call on a column.  No kernel takes a trigonometric
  function: the identity checks read the cosines of the leg angles, which
  are dot products.  ``maximum`` and ``minimum`` differ from the float
  ones in which zero a tie of +0 and -0 returns, and on NaN: the float
  ones keep their first argument, the column ones give NaN.  No kernel
  result depends on the zero, and no row that passes every check carries a
  NaN into them.  ``clip`` keeps -0.0 and takes +-inf to +-1 in both, but
  takes NaN to -1.0 on floats and keeps it NaN on columns; a NaN cosine
  comes only from a non-finite leg, whose row has already failed a check.

``least(rows, pulls)`` returns the first of the four (x, y, z) vertices
``rows`` whose pull norm in ``pulls`` is the least, and the other three in
row order: the vertex the Newton start steps off
(``solver._newton_start``).  Both namespaces take the first of tied
vertices, row by row.  No NaN pull norm reaches it, where ``min`` and
``argmin`` would part: it sees only the tetrahedra whose every pull norm
exceeds 1 + ``solver.BOUNDARY_EPS``.

``require(ok, error, *args)`` marks a check.  ``FLOATS`` raises
``error(*args)`` when ``ok`` is false, where the scalar code has always
raised.  ``Columns`` records the rows where ``ok`` is false in ``failed``
and goes on; a caller recomputes those rows through the scalar API, so
their error text or flag is the scalar one.
"""

from __future__ import annotations

import math
import operator
from itertools import starmap
from types import SimpleNamespace

import numpy as np


def _require(ok, error, *args):
    if not ok:
        raise error(*args)


def _where(cond, a, b):
    return a if cond else b


def _finite(values):
    return all(map(math.isfinite, values))


def _longest(edges):
    return max(starmap(math.hypot, edges))


# the built-in max and min of two floats, which keep the first argument
# unless the second compares greater (less); as Python functions they cost
# a third of the built-ins' call on CPython 3.11
def _maximum(a, b):
    return b if b > a else a


def _minimum(a, b):
    return b if b < a else a


def _least(rows, pulls):
    k = pulls.index(min(pulls))
    return rows[k], rows[:k] + rows[k + 1:]


def _clip(c):
    # _minimum(1.0, _maximum(-1.0, c)) in one call: NaN gives -1.0
    return (c if c < 1.0 else 1.0) if c > -1.0 else -1.0


#: the operations on Python floats
FLOATS = SimpleNamespace(
    sqrt=math.sqrt,
    frexp=math.frexp,
    ldexp=math.ldexp,
    finite=_finite,
    longest=_longest,
    maximum=_maximum,
    minimum=_minimum,
    clip=_clip,
    where=_where,
    all=operator.truth,
    least=_least,
    require=_require,
)


def _clip_rows(c):
    # np.clip measured slower on a chunk's columns
    return np.minimum(1.0, np.maximum(-1.0, c))


def _finite_rows(values):
    return np.isfinite(values).all(axis=0)


#: for each vertex k, the other three in row order
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _least_rows(rows, pulls):
    v = np.array(rows)  # (vertex, coordinate, row)
    k = np.argmin(pulls, axis=0)
    at = np.arange(len(k))
    return v[k, :, at].T, v[_OTHERS[k], :, at[:, None]].transpose(1, 2, 0)


#: the least and the largest longest-edge estimate whose candidates' squares
#: neither overflow nor lose a relevant bit to underflow
_SAFE_LENGTHS = 2.0**-450, 2.0**450
#: an edge whose estimate is at least this fraction of its row's largest
#: may be the longest
_NEAR = 1.0 - 2.0**-47


def _longest_rows(edges):
    """The largest ``math.hypot`` of each row's (x, y, z) edges, taken only
    of the edges that could be the largest."""
    d = np.array(edges)
    # sqrt(x*x + y*y + z*z) rounds three squares, two sums and the root:
    # relative error at most 2.5 * 2**-53, within 2.5 ulp of the length,
    # where no square overflows or underflows significantly; math.hypot's
    # is below one ulp, at most 2**-52 relative.  Two edges whose
    # estimates differ by more than about 2**-50 relatively are in the same
    # order under math.hypot, so a margin of 2**-47 drops no edge that could
    # be the longest.  In [2**-450, 2**450] no candidate's square overflows,
    # and a square that underflows is below 2**-1022, nothing against a
    # candidate's squared length; a row whose largest estimate lies outside
    # that range or is not finite takes every edge.
    estimate = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    top = estimate.max(axis=0)
    low, high = _SAFE_LENGTHS
    near = (estimate >= top * _NEAR) | ~((top >= low) & (top <= high))
    edge, row = np.nonzero(near)
    lengths = np.zeros(estimate.shape)
    lengths[edge, row] = np.fromiter(
        map(math.hypot, *d[edge, :, row].T.tolist()), float, len(row)
    )
    return lengths.max(axis=0)


class Columns:
    """The operations on 1-D float64 columns of ``n`` rows, with the rows
    that failed a check so far.

    Values on a failed row are never used, and may be NaN or infinite, so
    a caller evaluates under ``np.errstate(all="ignore")``.  ``longest``
    needs no guard there: ``math.hypot`` returns inf or NaN for a
    non-finite argument.
    """

    sqrt = staticmethod(np.sqrt)
    maximum = staticmethod(np.maximum)
    minimum = staticmethod(np.minimum)
    where = staticmethod(np.where)
    all = staticmethod(np.all)
    frexp = staticmethod(np.frexp)
    ldexp = staticmethod(np.ldexp)
    clip = staticmethod(_clip_rows)
    finite = staticmethod(_finite_rows)
    longest = staticmethod(_longest_rows)
    least = staticmethod(_least_rows)

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)

    def require(self, ok, error=None, *args):
        self.failed |= ~ok
