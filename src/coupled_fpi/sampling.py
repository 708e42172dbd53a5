"""Seeded sampling of points, edge pairs and product-edge pairs.

All checkers draw through this module so that a recorded integer seed
reproduces a run exactly.  :func:`_check_box` is the one box rule, for
``SampleSpec`` and a spec's ``sampler`` alike.  Box points are
``low + (high - low) * U``, ``U`` from ``Generator.random``: the same
bytes numpy's ``Generator.uniform`` gives.  A box of one interval in every
coordinate is held as two floats, since numpy runs one inner loop per row
when an operand broadcasts along a short last axis; the bytes stay
``Generator.uniform``'s.  Edge pairs come from one of two paths:

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

A checker handed a Sampler in place of a SampleSpec builds a reader of it,
which draws the same bits as a fresh Sampler of its spec.  Preflight hands
both checkers one Sampler, so the contraction check reads the blocks that the
mixed-monotonicity check drew; a block of another size stops the sharing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientSamplesError, InvalidInputError
from .graphs import Digraph, product_edge_mask
from .spaces import _check_int, _check_number, as_point

# Per-round batch size and the cap on total draws, as multiples of the
# requested count.  The cap is what turns an (almost) empty edge set into
# InsufficientSamplesError instead of a hang.
_ROUND = 4096
_BUDGET_FACTOR = 400
# The blocks a sampler keeps for its readers: one round of a product-edge sample.
_KEPT_BLOCKS = 4


def _check_box(low, high, dimension: int, where: str, error: type) -> tuple:
    """*low* and *high*, each one number or *dimension* of them (a list, tuple
    or 1-D array) by the number rule, with no low coordinate above its high
    and every width ``high - low`` finite, returned as given: a float or a
    tuple of floats.  Else raises *error*, naming ``{where}.low`` or ``.high``."""
    given, coords = [], []
    for name, value in ((f"{where}.low", low), (f"{where}.high", high)):
        value = value.tolist() if isinstance(value, np.ndarray) else value
        many = isinstance(value, (list, tuple))
        values = tuple(_check_number(c, name, error) for c in (value if many else [value]))
        if many and len(values) != dimension:
            raise error(f"{name} needs {dimension} coordinate(s), got {len(values)}")
        given.append(values if many else values[0])
        coords.append(values if many else values * dimension)
    for i, (lo, hi) in enumerate(zip(*coords)):
        if lo > hi:
            raise error(f"{where}.low exceeds {where}.high in coordinate {i}: {lo!r} > {hi!r}")
    if not all(math.isfinite(hi - lo) for lo, hi in zip(*coords)):
        raise error(f"{where}.high - {where}.low must be finite, got {given[1]!r} - {given[0]!r}")
    return tuple(given)


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
        object.__setattr__(self, "count", _check_int(self.count, "sample count", 1))
        object.__setattr__(self, "seed", _check_int(self.seed, "rng seed", 0))
        try:  # a tuple, which every Sampler of this spec reads alike
            object.__setattr__(self, "points", tuple(self.points))
        except TypeError as exc:
            raise InvalidInputError(f"SampleSpec.points must be a sequence, got {self.points!r}") from exc


class Sampler:
    """Draws points of a given dimension according to a :class:`SampleSpec`;
    checks the box or pool when built, and seeds its generator at the first draw.
    Built from a Sampler, it reads that one's stream from the first block and
    shares the blocks it keeps: each reader draws the bits a fresh Sampler does."""

    def __init__(self, spec: SampleSpec | Sampler, dimension: int):
        if isinstance(spec, Sampler):  # same box, kept blocks and spec; its own generator
            if spec.dimension != dimension:
                raise InvalidInputError(f"a sampler of dimension {spec.dimension} read at {dimension}")
            vars(self).update({k: v for k, v in vars(spec).items() if k != "_rng"}, _read=0, _at=0)
            return
        self.spec = spec
        self.dimension = dimension = _check_int(dimension, "dimension", 1)
        if spec.points:
            self._pool = np.vstack([as_point(p, dimension) for p in spec.points])
            self._low = self._width = None
        else:
            self._pool = None
            low, high = _check_box(spec.low, spec.high, dimension, "SampleSpec", InvalidInputError)
            self._low = np.full(dimension, low)
            self._width = np.full(dimension, high) - self._low
            if all(a.tobytes() == a[:1].tobytes() * dimension for a in (self._low, self._width)):
                self._low, self._width = float(self._low[0]), float(self._width[0])
        self._kept, self._read, self._at = [], 0, 0  # the kept blocks, draws made, blocks generated

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.spec.seed)

    def _points(self, n: int) -> np.ndarray:
        if self._pool is not None:
            return self._pool.take(self._rng.integers(0, len(self._pool), size=n), axis=0)
        return self._low + self._width * self._rng.random((n, self.dimension))

    def draw(self, n: int) -> np.ndarray:
        """(n, d) array of fresh points: at the i-th call, block i of the seed's
        stream, the kept one when it has n rows.  Its generator catches up with the
        kept blocks only to draw a new one; a block of another size cuts it off them."""
        kept, i = self._kept, self._read
        self._read = i + 1
        if i < len(kept) and len(kept[i]) == n:
            return kept[i]
        for block in kept[self._at:i]:
            self._points(len(block))
        self._at, self._kept = i + 1, kept if i >= len(kept) else []
        block = self._points(n)
        if i == len(kept) < _KEPT_BLOCKS:
            kept.append(block)
        return block

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
                kept.append([c.compress(mask, axis=0) for c in cols])
                got += int(mask.sum())
        if got == 0:
            raise InsufficientSamplesError(
                "no admissible samples found within the draw budget"
            )
        return tuple(np.concatenate([part[i] for part in kept])[:want] for i in range(columns))

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
        return self._filtered(2, lambda c: graph.edge_mask(c[0], c[1]))

    def edge_triples(self, graph: Digraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Triples (p, q, w) with has_edge(p, q); w unconstrained."""
        edge = self._construct(graph)
        if edge is not None:
            return (*edge, self.draw(self.spec.count))
        return self._filtered(3, lambda c: graph.edge_mask(c[0], c[1]))

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
        return self._filtered(4, lambda c: product_edge_mask(graph, *c))
