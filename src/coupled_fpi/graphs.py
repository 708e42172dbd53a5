"""Reflexive digraphs over points, and the product graph on pairs.

Every graph answers edge tests only (``has_edge`` and its rowwise
``edge_mask``); none enumerates its vertices or edges, because no
hypothesis checked here needs them.  Loops are present everywhere: the
structures modeled here are reflexive by definition, so ``has_edge(p, p)``
is always true for every vertex p.

The coupled iteration lives on the product graph over pairs:

    ((x, y), (u, v)) is a product edge  iff  has_edge(x, u) and has_edge(v, y)

Note the reversal in the second coordinate; it is what makes mixed
monotonicity propagate edges along the iteration and everything
downstream (seed condition, contraction sampling, edge flags) relies
on it.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInputError, NotAVertexError
from .spaces import PointLike, _as_rows, _PairRule, as_point, fold_last


class Digraph(_PairRule):
    """Base reflexive digraph."""

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        """Edge test by the graph's float rule (:attr:`_row_rule`)."""
        rule = self._row_rule
        if rule is None:
            raise NotImplementedError
        d = self._dimension
        return rule(as_point(p, d, copy=False).tolist(), as_point(q, d, copy=False).tolist())

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Rowwise ``has_edge`` over (n,d) arrays, read by ``spaces._as_rows``;
        loops over rows by default."""
        return self._rows(P, Q, self.has_edge, bool)

    def construct_edges(
        self, draw: Callable[[int], np.ndarray], n: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """n edge pairs (p, q) built from box draws, or None to reject instead.

        ``draw(n)`` returns n i.i.d. points of a coordinate box.  A graph
        that can turn such draws into pairs with exactly the law of a
        box pair conditioned on ``has_edge(p, q)`` returns them; the
        default returns None without drawing, and the sampler falls back
        to rejection.
        """
        return None


class PredicateGraph(Digraph):
    """Intensional graph from ``pred(p, q) -> bool``; loops are implicit."""

    def __init__(self, dimension: int, pred: Callable[[np.ndarray, np.ndarray], bool]):
        super().__init__(dimension)
        if not callable(pred):
            raise InvalidInputError("edge predicate must be callable")
        self._pred = pred

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        p = as_point(p, self._dimension)
        q = as_point(q, self._dimension)
        if p.size == q.size and bool((p == q).all()):
            return True
        return bool(self._pred(p, q))


class OrderGraph(Digraph):
    """Edge p -> q iff p <= q componentwise (the usual order on R^d)."""

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P, Q = _as_rows(P, Q, self._dimension)
        return fold_last(np.logical_and, P <= Q)

    def _row_text(self):
        return " and ".join(f"p{i} <= q{i}" for i in range(1, self._dimension + 1))

    def construct_edges(
        self, draw: Callable[[int], np.ndarray], n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coordinatewise min and max of two draws, A then B.

        Per coordinate, (min, max) of two i.i.d. values has the law of
        the pair conditioned on p <= q, and the coordinates stay
        independent, so the pairs are uniform on {p <= q} in the box.
        """
        A = draw(n)
        B = draw(n)
        return np.minimum(A, B), np.maximum(A, B)


class FullGraph(Digraph):
    """Every ordered pair is an edge (the unrestricted classical setting).

    Box samples are constructed, not rejected: any two draws form an edge.
    """

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return np.ones(len(_as_rows(P, Q, self._dimension)[0]), dtype=bool)

    def _row_text(self):
        return "True"

    def construct_edges(
        self, draw: Callable[[int], np.ndarray], n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two draws as they come, A then B: every box pair is an edge."""
        return draw(n), draw(n)


def _vertex_key(p: PointLike, dimension: int | None) -> bytes:
    """*p*'s float64 bytes, which tell vertices apart in a graph and a spec alike."""
    return as_point(p, dimension, copy=False).tobytes()


class FiniteGraph(Digraph):
    """Graph over an explicit vertex list and edge list.

    Vertices are told apart bitwise (so 0.0 and -0.0 are two vertices),
    every vertex has its loop, and edges must join listed vertices.
    ``has_edge`` against an unlisted point raises :class:`NotAVertexError`.
    """

    def __init__(
        self,
        vertices: Iterable[PointLike],
        edges: Iterable[tuple[PointLike, PointLike]] = (),
        dimension: int | None = None,
    ):
        keys: set[bytes] = set()
        for v in vertices:
            key = _vertex_key(v, dimension)
            dimension = len(key) // 8  # float64 coordinates; the first vertex sets it
            keys.add(key)
        if not keys:
            raise InvalidInputError("vertex list must be nonempty")
        super().__init__(dimension)
        self._keys = keys
        self._edges = {(self._listed_key(a), self._listed_key(b)) for a, b in edges}

    def _listed_key(self, p: PointLike) -> bytes:
        key = _vertex_key(p, self._dimension)
        if key not in self._keys:
            raise NotAVertexError(f"point {np.frombuffer(key)!r} is not a vertex")
        return key

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        a, b = self._listed_key(p), self._listed_key(q)
        return a == b or (a, b) in self._edges


def product_edge(
    g: Digraph,
    pair_a: tuple[PointLike, PointLike],
    pair_b: tuple[PointLike, PointLike],
) -> bool:
    """Edge test in the product graph on pairs.

    ``((x, y), (u, v))`` is an edge iff ``has_edge(x, u)`` and
    ``has_edge(v, y)``: forward in the first coordinate, reversed in the
    second.
    """
    x, y = pair_a
    u, v = pair_b
    return g.has_edge(x, u) and g.has_edge(v, y)


def product_edge_mask(g: Digraph, X: np.ndarray, Y: np.ndarray, U: np.ndarray,
                      V: np.ndarray) -> np.ndarray:
    """Rowwise :func:`product_edge` from (X, Y) to (U, V) over (n, d) arrays:
    ``edge_mask(X, U)`` then ``edge_mask(V, Y)``, both on every row."""
    return g.edge_mask(X, U) & g.edge_mask(V, Y)

