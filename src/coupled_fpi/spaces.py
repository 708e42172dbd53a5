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

import functools
import math
import numbers
import re
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


def _as_rows(P, Q, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """*P* and *Q* as float64 rows of *dimension* values, as every ``distance_batch``,
    ``edge_mask`` and expression map's ``eval_batch`` reads its two arguments: an
    (n, d) array is taken as it is, and a flat vector is its consecutive points of d
    coordinates.

    Raises:
        InvalidInputError: any other shape, or a different number of rows.
    """
    pair = []
    for value in (P, Q):
        rows = np.asarray(value, dtype=np.float64)
        if rows.ndim < 2 and rows.size % dimension == 0:
            rows = rows.reshape(-1, dimension)
        if rows.ndim != 2 or rows.shape[1] != dimension:
            raise InvalidInputError(
                f"expected rows of {dimension} coordinate(s), got shape {rows.shape}")
        pair.append(rows)
    P, Q = pair
    if len(P) != len(Q):
        raise InvalidInputError(f"expected as many rows in Q as in P, got {len(P)} and {len(Q)}")
    return P, Q


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


@functools.lru_cache(maxsize=1024)
def _compiled(text: str) -> Callable:
    """The function the lambda *text* defines, compiled once per text, with the
    rule texts' globals (an expression's text names only its arguments)."""
    names = {"abs": abs, "min": min, "sqrt": math.sqrt, "inf": math.inf}
    return eval(compile(text, "<rule>", "eval"), {"__builtins__": {}, **names})


_COORDINATE = re.compile(r"\b([pq])([0-9]+)\b")


def _rename(text: str, p: Callable[[int], str], q: Callable[[int], str]) -> str:
    """The rule *text* over coordinates ``p1..pd`` and ``q1..qd`` with each
    ``p<i>`` written ``p(i - 1)`` and each ``q<i>`` written ``q(i - 1)``."""
    return _COORDINATE.sub(lambda c: (p if c[1] == "p" else q)(int(c[2]) - 1), text)


@functools.lru_cache(maxsize=256)
def _row_function(text: str | None) -> Callable[[list, list], object] | None:
    """The rule *text* as a function of two lists of floats p and q (None for None)."""
    return text and _compiled("lambda p, q: " + _rename(text, "p[{}]".format, "q[{}]".format))


def _check_int(value, name: str, low: int, error: type = InvalidParameterError) -> int:
    """*value*, which must be an integer (numpy's too, not a bool) of at
    least *low*, 0 or 1, as a Python int; else raises *error*."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        kind = "positive" if low else "nonnegative"
        raise error(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _check_number(value, name: str, error: type = InvalidParameterError,
                  positive: bool = False) -> float:
    """*value*, which must be a finite real number (numpy's too, not a bool)
    and above 0 when *positive*, as a Python float; else raises *error*."""
    kind = "a positive number" if positive else "a number"
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise error(f"{name} must be finite, got {number!r}")
        if number > 0.0 or not positive:
            return number
    raise error(f"{name} must be {kind}, got {value!r}")


def _check_flag(value, name: str, error: type = InvalidParameterError) -> bool:
    """*value*, which must be a bool (numpy's too), as a bool; else raises *error*."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a boolean, got {value!r}")
    return bool(value)


class _PairRule:
    """A relation on pairs of R^d points, a metric or a graph's edges: its
    dimension, its rule text and compiled float rule, and its row loop."""

    def __init__(self, dimension: int):
        self._dimension = _check_int(dimension, "dimension", 1)

    @property
    def dimension(self) -> int:
        return self._dimension

    def _rows(self, P, Q, rule: Callable, dtype) -> np.ndarray:
        """*rule* on each row of P and Q, read by :func:`_as_rows`, as a *dtype* array."""
        P, Q = _as_rows(P, Q, self._dimension)
        return np.fromiter((rule(p, q) for p, q in zip(P, Q)), dtype, count=len(P))

    def _row_text(self) -> str | None:
        """``distance_batch``'s or ``edge_mask``'s bits on one row as text over the
        coordinates ``p1..pd`` and ``q1..qd`` (a NaN's sign and payload aside), or None."""
        return None

    @functools.cached_property
    def _row_rule(self) -> Callable[[list, list], object] | None:
        """:meth:`_row_text` compiled, on two lists of floats, or None; once per instance."""
        return _row_function(self._row_text())


class MetricSpace(_PairRule):
    """Base metric space over R^d points.

    Subclasses implement :meth:`_dist` on validated arrays.  ``distance``
    validates inputs; ``distance_batch`` falls back to a row loop and is
    overridden with a vectorized version where the metric allows it.
    """

    def distance(self, p: PointLike, q: PointLike) -> float:
        p = as_point(p, self._dimension)
        q = as_point(q, self._dimension)
        return self._dist(p, q)

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        raise NotImplementedError

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Rowwise distances between (n,d) arrays P and Q, read by :func:`_as_rows`."""
        return self._rows(P, Q, self._dist, np.float64)


class EuclideanSpace(MetricSpace):
    """R^d with the Euclidean metric; plain absolute value when d = 1."""

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        if p.size == 1:
            return abs(p[0] - q[0])
        diff = p - q
        return math.sqrt(float((diff * diff).sum()))

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P, Q = _as_rows(P, Q, self._dimension)
        diff = P - Q
        if diff.shape[1] == 1:
            return np.abs(diff[:, 0])
        return np.sqrt(fold_last(np.add, diff * diff))

    def _row_text(self):
        d = self._dimension  # the squares added one by one, as fold_last adds fewer than 8 columns
        squares = " + ".join(f"(e{i} := p{i} - q{i}) * e{i}" for i in range(1, d + 1))
        return "abs(p1 - q1)" if d == 1 else f"sqrt({squares})" if d < 8 else None


class ChebyshevSpace(MetricSpace):
    """R^d with the max metric d(p,q) = max_i |p_i - q_i|."""

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        return float(np.abs(p - q).max())

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P, Q = _as_rows(P, Q, self._dimension)
        return fold_last(np.maximum, np.abs(P - Q))

    def _row_text(self):
        # fold_last's running np.maximum, which keeps the first NaN it meets, up to its 8
        # columns (each one nests the text deeper, and Python parses 200 parentheses deep)
        if self._dimension > 8:
            return None
        text = "abs(p1 - q1)"
        for i in range(2, self._dimension + 1):
            text = f"(c if (c := {text}) >= (e := abs(p{i} - q{i})) or c != c else e)"
        return text


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
