"""Finite point sets, the Pompeiu-Hausdorff distance and near-point selection.

Multivalued maps in this package take values in nonempty finite point
sets, so every infimum below is a minimum and selection is exact
arithmetic rather than an approximation argument.  (Finite sets are
compact, hence closed and bounded; nothing here needs the distinction.)
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import numpy as np

from .errors import InvalidInputError
from .spaces import MetricSpace, PointLike, as_point


class FiniteSet:
    """Immutable nonempty finite set of points of one dimension.

    Construction deduplicates bitwise-equal points and preserves first
    occurrence order; that order is what indexed tie-breaking refers to.
    """

    def __init__(self, points: Iterable[PointLike], dimension: int | None = None):
        rows: list[np.ndarray] = []
        seen: set[bytes] = set()
        for value in points:
            p = as_point(value, dimension)
            if dimension is None:
                dimension = p.size
            key = p.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(p)
        if not rows:
            raise InvalidInputError("a finite set must contain at least one point")
        self._points = np.vstack(rows)
        self._points.setflags(write=False)
        self._keys = seen

    @property
    def points(self) -> np.ndarray:
        """(m, d) array of member points, construction order."""
        return self._points

    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self._points.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._points)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._points[i]

    def contains(self, p: PointLike) -> bool:
        """Bitwise membership test."""
        return as_point(p, self.dimension).tobytes() in self._keys

    def __repr__(self) -> str:
        inner = ", ".join(repr(list(map(float, p))) for p in self._points)
        return f"FiniteSet([{inner}])"


FiniteSetLike = Union[FiniteSet, Iterable[PointLike]]


def _point_rows(value: FiniteSetLike, dimension: int | None = None) -> np.ndarray:
    """*value* as an (m, d) array of its points, in order and with repeats.

    Accepts an existing set, an iterable of points, or (for dimension
    d > 1) a single flat length-d vector standing for a one-point set.
    A flat sequence in dimension 1 is read as many one-dimensional
    points.
    """
    if isinstance(value, FiniteSet):
        rows = value.points
    else:
        try:
            rows = np.asarray(value if isinstance(value, np.ndarray) or np.isscalar(value)
                              else list(value), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"not a finite point set: {value!r}") from exc
        if rows.ndim < 2:
            rows = rows.reshape(1, -1) if (dimension or 1) > 1 else rows.reshape(-1, 1)
    if rows.ndim != 2 or rows.size == 0:
        raise InvalidInputError(f"not a nonempty finite point set: shape {rows.shape}")
    if dimension is not None and rows.shape[1] != dimension:
        raise InvalidInputError(f"dimension mismatch: expected {dimension}, got {rows.shape[1]}")
    return rows


def as_finite_set(value: FiniteSetLike, dimension: int | None = None) -> FiniteSet:
    """Coerce *value* (read as :func:`_point_rows` reads it) to a :class:`FiniteSet`."""
    rows = _point_rows(value, dimension)
    return value if isinstance(value, FiniteSet) else FiniteSet(rows, dimension)


def dist_to_set(space: MetricSpace, a: PointLike, B: FiniteSetLike) -> float:
    """min over b in B of d(a, b); NaN if any of these distances is NaN."""
    B = _point_rows(B, space.dimension)
    a = as_point(a, space.dimension)
    return float(space.distance_batch(np.broadcast_to(a, B.shape), B).min())


def hausdorff(space: MetricSpace, A: FiniteSetLike, B: FiniteSetLike) -> float:
    """Pompeiu-Hausdorff distance between finite sets.

    H(A, B) = max( max_a min_b d(a,b), max_b min_a d(a,b) ), the larger
    of the two one-sided excesses.
    """
    A = as_finite_set(A, space.dimension)
    B = as_finite_set(B, space.dimension)
    D = space.pairwise(A.points, B.points)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))


def select_near(
    space: MetricSpace,
    A: FiniteSetLike,
    B: FiniteSetLike,
    a: PointLike,
    eps: float = 1e-12,
) -> np.ndarray:
    """Pick b in B nearest to a, for a member a of A.

    On finite sets the nearest point realizes d(a, B) <= H(A, B) exactly,
    so it satisfies the approximate-selection bound d(a, b) <= H(A, B) + eps
    for every positive slack *eps*.  Ties resolve to the lowest index in
    B's construction order.

    Raises:
        InvalidInputError: ``a`` is not a member of ``A`` or *eps* is not
            positive.
    """
    if not eps > 0.0:
        raise InvalidInputError(f"eps must be positive, got {eps!r}")
    A = as_finite_set(A, space.dimension)
    B = as_finite_set(B, space.dimension)
    a = as_point(a, space.dimension)
    if not A.contains(a):
        raise InvalidInputError("selection source point must belong to the first set")
    dists = space.distance_batch(np.broadcast_to(a, B.points.shape), B.points)
    return B[int(np.argmin(dists))].copy()
