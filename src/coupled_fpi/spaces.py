"""Points and metric spaces.

Points are one-dimensional ``float64`` numpy arrays of fixed length
(``dimension``).  Scalars are accepted anywhere a point is expected and
are promoted to length-1 arrays, so the real line works without
ceremony.  All objects here are immutable after construction and safe
to share across threads.

Builtin spaces cover R^n with the Euclidean metric (absolute value when
n = 1) and the Chebyshev (max) metric; arbitrary metrics plug in via
:class:`CallbackSpace`.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

PointLike = Union[float, int, Sequence[float], np.ndarray]


def as_point(value: PointLike, dimension: int | None = None, copy: bool = True) -> np.ndarray:
    """Normalize *value* to a float64 point array.

    Scalars become length-1 arrays.  When *dimension* is given the
    result's length must match it.  With ``copy=False`` a float64 vector
    is returned as it is, for a point that is only read.

    Raises:
        InvalidInputError: non-numeric data, wrong shape, or a
            dimension mismatch.
    """
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        pt = value.copy() if copy else value
    else:
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"not a point: {value!r}") from exc
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise InvalidInputError(f"a point must be a flat vector, got shape {arr.shape}")
        pt = arr.astype(np.float64, copy=True)
    if pt.size == 0:
        raise InvalidInputError("a point must have at least one coordinate")
    if dimension is not None and pt.size != dimension:
        raise InvalidInputError(f"dimension mismatch: expected {dimension}, got {pt.size}")
    return pt


def _as_rows(value, dimension: int) -> np.ndarray:
    """*value* as float64 rows of *dimension* values, as every ``distance_batch``
    and ``edge_mask`` reads its arguments: an (n, d) array is taken as it is,
    and a flat vector is its consecutive points of d coordinates.

    Raises:
        InvalidInputError: any other shape.
    """
    rows = np.asarray(value, dtype=np.float64)
    if rows.ndim < 2 and rows.size % dimension == 0:
        rows = rows.reshape(-1, dimension)
    if rows.ndim != 2 or rows.shape[1] != dimension:
        raise InvalidInputError(
            f"expected rows of {dimension} coordinate(s), got shape {rows.shape}")
    return rows


def fold_last(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=-1)`` (max, min, and, or, add), column by column
    when the last axis is short, which numpy reduces at a cost per row: up to
    8 columns, sums below 8 terms, where numpy too adds them to 0.0 one by
    one (from 8 it sums pairwise).  A NaN may differ in sign or payload bits."""
    size = a.shape[-1]
    if not 0 < size < (8 if op is np.add else 9):
        return op.reduce(a, axis=-1)
    out = 0.0 + a[..., 0] if op is np.add else a[..., 0]
    for i in range(1, size):
        out = op(out, a[..., i])
    return out


def _check_int(value, name: str, low: int) -> int:
    """*value*, which must be an integer (not a bool) of at least *low*, 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        kind = "positive" if low else "nonnegative"
        raise InvalidParameterError(f"{name} must be a {kind} integer, got {value!r}")
    return value


class MetricSpace:
    """Base metric space over R^d points.

    Subclasses implement :meth:`_dist` on validated arrays.  ``distance``
    validates inputs; ``distance_batch`` falls back to a row loop and is
    overridden with a vectorized version where the metric allows it.
    """

    def __init__(self, dimension: int):
        self._dimension = _check_int(dimension, "dimension", 1)

    @property
    def dimension(self) -> int:
        return self._dimension

    def distance(self, p: PointLike, q: PointLike) -> float:
        p = as_point(p, self._dimension)
        q = as_point(q, self._dimension)
        return self._dist(p, q)

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        raise NotImplementedError

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Rowwise distances between (n,d) arrays P and Q, read by :func:`_as_rows`."""
        P, Q = _as_rows(P, self._dimension), _as_rows(Q, self._dimension)
        return np.fromiter(
            (self._dist(p, q) for p, q in zip(P, Q)), np.float64, count=len(P)
        )

    def _row_rule(self) -> Callable[[list, list], float] | None:
        """``distance_batch``'s bits on two rows of finite Python floats, or None."""
        return None


def _root_sum_squares(p: list, q: list) -> float:
    """The root of the squared differences, added to 0.0 one by one."""
    total = 0.0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return math.sqrt(total)


class EuclideanSpace(MetricSpace):
    """R^d with the Euclidean metric; plain absolute value when d = 1."""

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        if p.size == 1:
            return abs(p[0] - q[0])
        diff = p - q
        return math.sqrt(float((diff * diff).sum()))

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        diff = _as_rows(P, self._dimension) - _as_rows(Q, self._dimension)
        if diff.shape[1] == 1:
            return np.abs(diff[:, 0])
        return np.sqrt(fold_last(np.add, diff * diff))

    def _row_rule(self):
        if self._dimension == 1:
            return lambda p, q: abs(p[0] - q[0])
        return _root_sum_squares if self._dimension < 8 else None  # fold_last's order of sums


class ChebyshevSpace(MetricSpace):
    """R^d with the max metric d(p,q) = max_i |p_i - q_i|."""

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        return float(np.abs(p - q).max())

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        d = self._dimension
        return fold_last(np.maximum, np.abs(_as_rows(P, d) - _as_rows(Q, d)))

    def _row_rule(self):
        if self._dimension == 1:
            return lambda p, q: abs(p[0] - q[0])
        return lambda p, q: max(map(abs, map(operator.sub, p, q)))


class CallbackSpace(MetricSpace):
    """Metric defined by a user callback ``fn(p, q) -> float``.

    The callback receives copies of validated points.  No metric axioms are
    enforced here; the sampled checkers are the place to falsify them.
    """

    def __init__(self, dimension: int, fn: Callable[[np.ndarray, np.ndarray], float]):
        super().__init__(dimension)
        if not callable(fn):
            raise InvalidInputError("distance callback must be callable")
        self._fn = fn

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        return float(self._fn(p.copy(), q.copy()))


def real_line() -> EuclideanSpace:
    """R with the absolute-value metric."""
    return EuclideanSpace(1)
