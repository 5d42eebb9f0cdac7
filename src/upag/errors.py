"""The outside-input contract: the exceptions a caller can see, and the one
check of query indices.

* A query index (a bit position, a tree node, a string symbol, position,
  prefix length or occurrence number, a vertex or an edge index) goes
  through ``checked``, in scalar calls and batch calls alike.  An integer
  outside its range raises ``OutOfRangeError``, integers beyond int64
  included; a value that is not an integer (a float, NaN, a string,
  ``None``) raises ``TypeError``.  Nothing is truncated and answered.
* A batch query takes each argument as a scalar or a one-dimensional
  array, and a scalar is a batch of one; an argument of two or more
  dimensions raises ``ValueError``.  The two arguments of a two-argument
  query broadcast against each other (a scalar pairs with every lane), and
  lengths that do not broadcast raise numpy's ``ValueError``.  Every batch
  query returns a one-dimensional array, one entry per lane.
* A ``.upag`` payload that is malformed, truncated or corrupt raises
  ``FormatError``.
* An instance or edge list that is no attachment graph raises
  ``ModelError``.
"""

from __future__ import annotations

import numpy as np


class OutOfRangeError(IndexError):
    """A query index fell outside its valid range."""


class FormatError(ValueError):
    """A serialized payload is malformed, truncated, or corrupt."""


class ModelError(ValueError):
    """An instance violates the attachment-model shape."""


def checked(values, lo: int, hi: int, what: str) -> np.ndarray:
    """``values`` as a one-dimensional int64 array (a scalar becomes a
    batch of one), once every one is known to be an integer in ``lo..hi``.
    An empty input of any dtype gives an empty result, and an input of two
    or more dimensions raises ``ValueError``.

    Integers too large for int64 arrive as uint64 or as Python ints in an
    object array; they are compared before any cast, so they raise
    ``OutOfRangeError`` like every other integer out of range.
    """
    arr = np.asarray(values)
    if arr.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a one-dimensional array")
    if arr.size:
        if arr.dtype.kind not in "iu" and not (
                arr.dtype.kind == "O" and all(isinstance(v, (int, np.integer)) for v in arr.flat)):
            raise TypeError(f"{what} must be an integer, not {arr.dtype}")
        # one lane (a scalar call) is compared as a Python int: a numpy
        # reduction costs more than the rest of the check
        low, high = (arr.item(),) * 2 if arr.size == 1 else (arr.min(), arr.max())
        if low < lo or high > hi:
            raise OutOfRangeError(f"{what} must lie in {lo}..{hi}")
    return arr.astype(np.int64, copy=False).reshape(-1)
