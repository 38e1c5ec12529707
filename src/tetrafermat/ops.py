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

- ``FLOATS``: ``math``'s functions, ``max`` and ``min`` of two floats, a
  conditional expression as ``where``, ``operator.truth`` as ``all``, and
  as ``finite`` whether every value of a sequence is finite.
- ``Columns``: numpy's ``sqrt``, ``maximum``, ``minimum``, ``where``,
  ``all``, ``frexp`` and ``ldexp``, and ``finite`` per row.  The
  three-argument ``hypot`` is the one function it maps from ``math``
  element by element: numpy's own can differ from it in the last bit, and
  a column must hold exactly the value the scalar API computes.  No kernel
  takes a trigonometric function: the identity checks read the cosines of
  the leg angles, which are dot products.  ``maximum`` and ``minimum``
  differ from the float ones only in which zero a tie of +0 and -0
  returns; no kernel result depends on that.

``require(ok, error, *args)`` marks a check.  ``FLOATS`` raises
``error(*args)`` when ``ok`` is false, where the scalar code has always
raised.  ``Columns`` records the rows where ``ok`` is false in ``failed``
and goes on; a caller recomputes those rows through the scalar API, so
their error text or flag is the scalar one.
"""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace

import numpy as np


def _require(ok, error, *args):
    if not ok:
        raise error(*args)


def _where(cond, a, b):
    return a if cond else b


def _finite(values):
    return all(map(math.isfinite, values))


# the built-in max and min of two floats, which keep the first argument
# unless the second compares greater (less); as Python functions they cost
# a third of the built-ins' call on CPython 3.11
def _maximum(a, b):
    return b if b > a else a


def _minimum(a, b):
    return b if b < a else a


#: the operations on Python floats
FLOATS = SimpleNamespace(
    sqrt=math.sqrt,
    hypot=math.hypot,
    frexp=math.frexp,
    ldexp=math.ldexp,
    finite=_finite,
    maximum=_maximum,
    minimum=_minimum,
    where=_where,
    all=operator.truth,
    require=_require,
)


def _mapped(f):
    def column(*args):
        return np.fromiter(map(f, *[a.tolist() for a in args]), float, len(args[0]))

    return column


def _finite_rows(values):
    return np.isfinite(values).all(axis=0)


class Columns:
    """The operations on 1-D float64 columns of ``n`` rows, with the rows
    that failed a check so far.

    Values on a failed row are never used, and may be NaN or infinite, so
    a caller evaluates under ``np.errstate(all="ignore")``.  ``hypot``
    needs no guard there: it returns inf or NaN for a non-finite argument.
    """

    sqrt = staticmethod(np.sqrt)
    maximum = staticmethod(np.maximum)
    minimum = staticmethod(np.minimum)
    where = staticmethod(np.where)
    all = staticmethod(np.all)
    frexp = staticmethod(np.frexp)
    ldexp = staticmethod(np.ldexp)
    finite = staticmethod(_finite_rows)
    hypot = staticmethod(_mapped(math.hypot))

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)

    def require(self, ok, error=None, *args):
        self.failed |= ~ok
