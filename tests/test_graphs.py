from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from coupled_fpi import (
    FiniteGraph,
    FullGraph,
    InvalidInputError,
    NotAVertexError,
    OrderGraph,
    PredicateGraph,
    UnsupportedModeError,
    is_path,
    is_weakly_connected,
    product_edge,
    reverse_graph,
    symmetrize_graph,
)


def test_order_graph_edges():
    g = OrderGraph(1)
    assert g.has_edge(0.0, 0.2)
    assert not g.has_edge(1.0, 0.0)
    assert g.has_edge(0.5, 0.5)


def test_order_graph_componentwise():
    g = OrderGraph(2)
    assert g.has_edge([0.0, 0.0], [1.0, 2.0])
    assert not g.has_edge([0.0, 3.0], [1.0, 2.0])


def test_reflexivity_everywhere():
    rng = np.random.default_rng(201)
    graphs = [OrderGraph(2), FullGraph(2), PredicateGraph(2, lambda p, q: False)]
    for g in graphs:
        for _ in range(50):
            p = rng.uniform(-10.0, 10.0, size=2)
            assert g.has_edge(p, p)


def test_full_graph_all_edges():
    g = FullGraph(1)
    rng = np.random.default_rng(202)
    P = rng.uniform(-10.0, 10.0, size=(100, 1))
    Q = rng.uniform(-10.0, 10.0, size=(100, 1))
    assert g.edge_mask(P, Q).all()


def test_product_edge_examples():
    g = OrderGraph(1)
    assert product_edge(g, (0.0, 1.0), (0.2, 0.2))
    assert not product_edge(g, (1.0, 0.0), (0.0, 1.0))


def test_product_edge_loops():
    rng = np.random.default_rng(203)
    for g in (OrderGraph(1), FullGraph(1)):
        for _ in range(50):
            x, y = rng.uniform(-10.0, 10.0, size=2)
            assert product_edge(g, (x, y), (x, y))


def test_product_edge_componentwise_definition():
    # second coordinate reversed: has_edge(x,u) and has_edge(v,y)
    g = OrderGraph(2)
    rng = np.random.default_rng(204)
    reversal_matters = 0
    for _ in range(1000):
        x, y, u, v = rng.uniform(-1.0, 1.0, size=(4, 2))
        expected = g.has_edge(x, u) and g.has_edge(v, y)
        assert product_edge(g, (x, y), (u, v)) == expected
        if expected != (g.has_edge(x, u) and g.has_edge(y, v)):
            reversal_matters += 1
    assert reversal_matters > 0


def test_is_path():
    g = OrderGraph(1)
    assert is_path(g, [0.0, 1.0, 2.0])
    assert not is_path(g, [0.0, 2.0, 1.0])
    assert is_path(g, [7.0])
    with pytest.raises(InvalidInputError):
        is_path(g, [])


def test_finite_graph_basics():
    g = FiniteGraph([0.0, 1.0, 0.0], edges=[(0.0, 1.0)])
    assert g.extensional
    assert len(g.vertices()) == 2  # duplicate collapsed
    assert g.has_edge(0.0, 0.0)  # auto loop
    assert g.has_edge(0.0, 1.0)
    assert not g.has_edge(1.0, 0.0)
    with pytest.raises(NotAVertexError):
        g.has_edge(0.0, 5.0)
    with pytest.raises(InvalidInputError):
        FiniteGraph([])


def test_finite_graph_edges_iteration_is_sorted():
    g = FiniteGraph([0.0, 1.0, 2.0], edges=[(2.0, 0.0), (0.0, 2.0)])
    listed = [(float(a[0]), float(b[0])) for a, b in g.edges()]
    assert listed == sorted(listed)
    assert (0.0, 0.0) in listed and (2.0, 0.0) in listed


def test_reverse_and_symmetrize():
    g = FiniteGraph([0.0, 1.0], edges=[(0.0, 1.0)])
    r = reverse_graph(g)
    assert r.has_edge(1.0, 0.0) and not r.has_edge(0.0, 1.0)
    s = symmetrize_graph(g)
    assert s.has_edge(0.0, 1.0) and s.has_edge(1.0, 0.0)
    assert r.extensional and s.extensional
    assert sorted((float(a[0]), float(b[0])) for a, b in r.edges()) == [
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]


def test_edge_mask_default_matches_has_edge():
    calls = []

    def pred(p, q):
        calls.append(1)
        return p[0] + 1.0 < q[0]

    rng = np.random.default_rng(205)
    P = rng.uniform(-3.0, 3.0, size=(200, 1))
    Q = rng.uniform(-3.0, 3.0, size=(200, 1))
    for g in (PredicateGraph(1, pred), symmetrize_graph(PredicateGraph(1, pred))):
        calls.clear()
        mask = g.edge_mask(P, Q)
        assert mask.dtype == bool
        mask_calls = len(calls)
        calls.clear()
        for i in range(200):
            assert mask[i] == g.has_edge(P[i], Q[i])
        # a symmetrized graph tests a reverse edge only where the forward one fails
        assert mask_calls == len(calls)


def test_weak_connectivity_examples():
    assert is_weakly_connected(FiniteGraph([0.0, 1.0], edges=[(0.0, 1.0)]))
    assert not is_weakly_connected(FiniteGraph([0.0, 1.0]))
    assert is_weakly_connected(
        FiniteGraph([1.0, 2.0, 3.0], edges=[(1.0, 2.0), (3.0, 2.0)])
    )
    with pytest.raises(UnsupportedModeError):
        is_weakly_connected(OrderGraph(1))


def _bfs_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == n


def test_weak_connectivity_against_bfs_oracle():
    rng = np.random.default_rng(206)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(0, max(1, 2 * n)))
        edges = set()
        for _ in range(m):
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            edges.add((a, b))
        g = FiniteGraph(
            [float(i) for i in range(n)],
            edges=[(float(a), float(b)) for a, b in edges],
        )
        assert is_weakly_connected(g) == _bfs_connected(n, edges)


def test_intensional_graphs_refuse_enumeration():
    g = OrderGraph(1)
    assert not g.extensional
    with pytest.raises(UnsupportedModeError):
        g.vertices()
    with pytest.raises(UnsupportedModeError):
        list(g.edges())
