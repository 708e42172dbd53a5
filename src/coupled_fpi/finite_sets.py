"""Finite point sets and the Pompeiu-Hausdorff distance.

Multivalued maps in this package take values in nonempty finite point
sets, so every infimum below is a minimum, computed exactly.  (Finite
sets are compact, hence closed and bounded; nothing here needs the
distinction.)  Every point-to-set distance in the package, here and in
the checkers and the certifier, is one :func:`_excess` reduction (both
directions at once in :func:`_gaps`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import numpy as np

from .errors import InvalidInputError
from .spaces import MetricSpace, PointLike, as_point, fold_last


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


def _pairs(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (A[i, j], B[i, l]) pair as two flat (n*m*mb, d) row arrays."""
    n, m, d = A.shape
    shape = (n, m, B.shape[1], d)
    P = np.broadcast_to(A[:, :, None, :], shape).reshape(-1, d)
    Q = np.broadcast_to(B[:, None, :, :], shape).reshape(-1, d)
    return P, Q


def _distances(space: MetricSpace, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, m, mb) distances d(A[i, j], B[i, l]) for (n, m, d) and (n, mb, d) arrays."""
    n, m = A.shape[:2]
    return space.distance_batch(*_pairs(A, B)).reshape(n, m, -1)


def _excess(space: MetricSpace, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, m) distance of each point A[i, j] to the set B[i], for (n, m, d)
    and (n, mb, d) arrays; NaN where one of its distances is NaN."""
    return fold_last(np.minimum, _distances(space, A, B))


def _gaps(space: MetricSpace, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n,) Pompeiu-Hausdorff distance between the sets A[i] and B[i]: the
    larger of the two directed excesses, both reduced from one distance
    array (a metric is symmetric); NaN where one of the distances is NaN."""
    D = _distances(space, A, B)
    return np.maximum(fold_last(np.minimum, D).max(axis=1),
                      fold_last(np.minimum, D.swapaxes(1, 2)).max(axis=1))


def dist_to_set(space: MetricSpace, a: PointLike, B: FiniteSetLike) -> float:
    """min over b in B of d(a, b); NaN if any of these distances is NaN."""
    B = _point_rows(B, space.dimension)[None]
    return float(_excess(space, as_point(a, space.dimension)[None, None], B)[0, 0])


def hausdorff(space: MetricSpace, A: FiniteSetLike, B: FiniteSetLike) -> float:
    """Pompeiu-Hausdorff distance between finite sets: the larger of the
    directed excesses max_a min_b d(a,b) and max_b min_a d(a,b)."""
    A, B = (_point_rows(Z, space.dimension)[None] for Z in (A, B))
    return float(_gaps(space, A, B)[0])
