"""Reflexive digraphs over points, and the product graph on pairs.

Graphs come in two modes.  Intensional graphs answer ``has_edge`` from
a predicate and have no vertex list; extensional graphs enumerate a
finite vertex set and edge set.  Loops are present everywhere: the
structures modeled here are reflexive by definition, so ``has_edge(p, p)``
is always true and extensional constructions add loops automatically.

The coupled iteration lives on the product graph over pairs:

    ((x, y), (u, v)) is a product edge  iff  has_edge(x, u) and has_edge(v, y)

Note the reversal in the second coordinate; it is what makes mixed
monotonicity propagate edges along the iteration and everything
downstream (seed condition, contraction sampling, edge flags) relies
on it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    NotAVertexError,
    UnsupportedModeError,
)
from .spaces import PointLike, as_point


class Digraph:
    """Base reflexive digraph."""

    def __init__(self, dimension: int):
        self._dimension = dimension

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def extensional(self) -> bool:
        """True when the graph enumerates its vertices."""
        return False

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        raise NotImplementedError

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Rowwise ``has_edge`` over (n,d) arrays; loops over rows by default."""
        return np.fromiter(
            (self.has_edge(p, q) for p, q in zip(P, Q)), bool, count=len(P)
        )

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

    def vertices(self) -> list[np.ndarray]:
        raise UnsupportedModeError("graph does not enumerate vertices")

    def edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        raise UnsupportedModeError("graph does not enumerate edges")


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

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        p = as_point(p, self._dimension)
        q = as_point(q, self._dimension)
        return bool((p <= q).all())

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=np.float64)
        Q = np.asarray(Q, dtype=np.float64)
        if P.ndim == 1:
            return P <= Q
        return (P <= Q).all(axis=1)

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
    """Every ordered pair is an edge (the unrestricted classical setting)."""

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        as_point(p, self._dimension)
        as_point(q, self._dimension)
        return True

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return np.ones(len(P), dtype=bool)


class FiniteGraph(Digraph):
    """Extensional graph over an explicit vertex list.

    Duplicate vertices collapse (bitwise), loops are added, and edges
    must join listed vertices.  ``has_edge`` against an unlisted point
    raises :class:`NotAVertexError`.
    """

    def __init__(
        self,
        vertices: Iterable[PointLike],
        edges: Iterable[tuple[PointLike, PointLike]] = (),
        dimension: int | None = None,
    ):
        pts: list[np.ndarray] = []
        index: dict[bytes, int] = {}
        for v in vertices:
            p = as_point(v, dimension)
            if dimension is None:
                dimension = p.size
            key = p.tobytes()
            if key not in index:
                index[key] = len(pts)
                pts.append(p)
        if not pts:
            raise InvalidInputError("vertex list must be nonempty")
        super().__init__(dimension)
        self._points = pts
        self._index = index
        self._edges: set[tuple[int, int]] = {(i, i) for i in range(len(pts))}
        for a, b in edges:
            self._edges.add((self._vertex_id(a), self._vertex_id(b)))
        for p in pts:
            p.setflags(write=False)

    def _vertex_id(self, p: PointLike) -> int:
        key = as_point(p, self._dimension).tobytes()
        try:
            return self._index[key]
        except KeyError:
            raise NotAVertexError(f"point {np.frombuffer(key)!r} is not a vertex") from None

    @property
    def extensional(self) -> bool:
        return True

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        return (self._vertex_id(p), self._vertex_id(q)) in self._edges

    def vertices(self) -> list[np.ndarray]:
        return list(self._points)

    def edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for i, j in sorted(self._edges):
            yield self._points[i], self._points[j]


class ReversedGraph(Digraph):
    """Adapter exposing the reversal of a base graph (edges flipped)."""

    def __init__(self, base: Digraph):
        super().__init__(base.dimension)
        self._base = base

    @property
    def extensional(self) -> bool:
        return self._base.extensional

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        return self._base.has_edge(q, p)

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return self._base.edge_mask(Q, P)

    def vertices(self) -> list[np.ndarray]:
        return self._base.vertices()

    def edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for a, b in self._base.edges():
            yield b, a


class SymmetrizedGraph(Digraph):
    """Adapter exposing the symmetrization (edge iff either direction)."""

    def __init__(self, base: Digraph):
        super().__init__(base.dimension)
        self._base = base

    @property
    def extensional(self) -> bool:
        return self._base.extensional

    def has_edge(self, p: PointLike, q: PointLike) -> bool:
        return self._base.has_edge(p, q) or self._base.has_edge(q, p)

    def edge_mask(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return self._base.edge_mask(P, Q) | self._base.edge_mask(Q, P)

    def vertices(self) -> list[np.ndarray]:
        return self._base.vertices()

    def edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for a, b in self._base.edges():
            yield a, b
            yield b, a


def reverse_graph(g: Digraph) -> Digraph:
    return ReversedGraph(g)


def symmetrize_graph(g: Digraph) -> Digraph:
    return SymmetrizedGraph(g)


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


def is_path(g: Digraph, points: Sequence[PointLike]) -> bool:
    """True when consecutive points are joined by edges.

    A single point is a (trivial) path; an empty sequence is invalid.
    """
    if len(points) == 0:
        raise InvalidInputError("a path needs at least one point")
    return all(g.has_edge(points[i], points[i + 1]) for i in range(len(points) - 1))


def is_weakly_connected(g: Digraph) -> bool:
    """Connectivity of the symmetrization; extensional graphs only.

    Raises:
        UnsupportedModeError: the graph does not enumerate vertices.
    """
    if not g.extensional:
        raise UnsupportedModeError("weak connectivity needs an extensional graph")
    verts = g.vertices()
    ids = {p.tobytes(): i for i, p in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in g.edges():
        ra, rb = find(ids[a.tobytes()]), find(ids[b.tobytes()])
        if ra != rb:
            parent[ra] = rb
    roots = {find(i) for i in range(len(verts))}
    return len(roots) <= 1
