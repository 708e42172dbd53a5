"""Seeded sampling of points, edge pairs and product-edge pairs.

All checkers draw through this module so that a recorded integer seed
reproduces a run exactly.  Box points are ``low + (high - low) * U``
with ``U`` from ``Generator.random``, the same bytes numpy's
``Generator.uniform`` gives.  Edge pairs come from one of two paths:

* Constructed: when the sample is a coordinate box and the graph's
  :meth:`~coupled_fpi.graphs.Digraph.construct_edges` hook builds pairs
  (``OrderGraph``, ``FullGraph``), each edge takes two draws of
  ``count`` rows, A then B.  ``OrderGraph`` makes them (min(A, B),
  max(A, B)) coordinatewise and ``FullGraph`` keeps (A, B) as drawn.
  Either way that is exactly the law rejection would give, with every
  row kept.  ``edge_triples`` draws its free ``w`` after the pair;
  ``product_edge_pairs`` builds (x, u) first and (v, y) second, so the
  draw order is A_xu, B_xu, A_vy, B_vy.
* Rejection: every other graph (``PredicateGraph``, ``FiniteGraph``)
  and every point pool.  Draws happen in fixed-size rounds in a fixed
  column order, get filtered by the edge constraint, and accumulate
  until the requested count is reached or the draw budget runs out; a
  short sample is returned as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientSamplesError, InvalidInputError
from .graphs import Digraph, product_edge_mask
from .spaces import _check_int, as_point

# Per-round batch size and the cap on total draws, as multiples of the
# requested count.  The cap is what turns an (almost) empty edge set into
# InsufficientSamplesError instead of a hang.
_ROUND = 4096
_BUDGET_FACTOR = 400


@dataclass(frozen=True)
class SampleSpec:
    """Where and how much to sample.

    Either a coordinate box (``low``/``high``, scalars or per-coordinate
    vectors) or an explicit finite pool of ``points`` to draw from with
    replacement.  ``count`` is the number of *accepted* samples a
    checker aims for; ``seed`` feeds numpy's Generator.
    """

    count: int = 10_000
    seed: int = 0
    low: float | Sequence[float] = -1.0
    high: float | Sequence[float] = 1.0
    points: tuple = ()

    def __post_init__(self):
        _check_int(self.count, "sample count", 1)
        _check_int(self.seed, "rng seed", 0)


class Sampler:
    """Draws points of a given dimension according to a :class:`SampleSpec`."""

    def __init__(self, spec: SampleSpec, dimension: int):
        self.spec = spec
        self.dimension = dimension
        self._rng = np.random.default_rng(spec.seed)
        if spec.points:
            rows = [as_point(p, dimension) for p in spec.points]
            self._pool = np.vstack(rows)
            self._low = self._width = None
        else:
            self._pool = None
            low = np.broadcast_to(np.asarray(spec.low, dtype=np.float64), (dimension,))
            high = np.broadcast_to(np.asarray(spec.high, dtype=np.float64), (dimension,))
            if np.isnan(low).any() or np.isnan(high).any():
                raise InvalidInputError(f"sampling box bound is NaN: low {spec.low!r}, high {spec.high!r}")
            if not (low <= high).all():
                raise InvalidInputError("sampling box has low > high")
            with np.errstate(over="ignore"):
                width = high - low
            if not np.isfinite(width).all():
                raise InvalidInputError("sampling box needs finite bounds and a finite width")
            self._low = low
            self._width = width

    def draw(self, n: int) -> np.ndarray:
        """(n, d) array of fresh points."""
        if self._pool is not None:
            idx = self._rng.integers(0, len(self._pool), size=n)
            return self._pool[idx]
        return self._low + self._width * self._rng.random((n, self.dimension))

    def _filtered(self, columns: int, accept: Callable[[list[np.ndarray]], np.ndarray]):
        """Draw rounds of `columns` point arrays, keep rows where accept() is true."""
        want = self.spec.count
        kept: list[list[np.ndarray]] = []
        got = 0
        budget = _BUDGET_FACTOR * want + _ROUND
        drawn = 0
        while got < want and drawn < budget:
            n = min(_ROUND, budget - drawn)
            cols = [self.draw(n) for _ in range(columns)]
            drawn += n
            mask = accept(cols)
            if mask.any():
                kept.append([c[mask] for c in cols])
                got += int(mask.sum())
        if got == 0:
            raise InsufficientSamplesError(
                "no admissible samples found within the draw budget"
            )
        out = [np.concatenate([part[i] for part in kept])[:want] for i in range(columns)]
        return out

    def _construct(self, graph: Digraph) -> tuple[np.ndarray, np.ndarray] | None:
        """``count`` constructed edge pairs, or None when rejection is needed."""
        if self._pool is not None:
            return None
        return graph.construct_edges(self.draw, self.spec.count)

    def edge_pairs(self, graph: Digraph) -> tuple[np.ndarray, np.ndarray]:
        """Pairs (p, q) with has_edge(p, q)."""
        edge = self._construct(graph)
        if edge is not None:
            return edge
        P, Q = self._filtered(2, lambda c: graph.edge_mask(c[0], c[1]))
        return P, Q

    def edge_triples(self, graph: Digraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Triples (p, q, w) with has_edge(p, q); w unconstrained."""
        edge = self._construct(graph)
        if edge is not None:
            return (*edge, self.draw(self.spec.count))
        P, Q, W = self._filtered(3, lambda c: graph.edge_mask(c[0], c[1]))
        return P, Q, W

    def product_edge_pairs(
        self, graph: Digraph
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pair-of-pairs (x, y), (u, v) joined by a product edge.

        The product edge is has_edge(x, u) and has_edge(v, y).  Constructed
        graphs build the two edges independently, (x, u) then (v, y);
        rejection evaluates both masks on the whole round and combines them.
        """
        xu = self._construct(graph)
        if xu is not None:
            (X, U), (V, Y) = xu, self._construct(graph)
            return X, Y, U, V
        X, Y, U, V = self._filtered(4, lambda c: product_edge_mask(graph, *c))
        return X, Y, U, V
