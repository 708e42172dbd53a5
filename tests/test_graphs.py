from __future__ import annotations

import numpy as np
import pytest

from coupled_fpi import (
    Digraph,
    FiniteGraph,
    FullGraph,
    InvalidInputError,
    NotAVertexError,
    OrderGraph,
    PredicateGraph,
    product_edge,
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


def test_finite_graph_basics():
    g = FiniteGraph([0.0, 1.0, 0.0], edges=[(0.0, 1.0)])  # duplicate listed twice
    assert g.has_edge(0.0, 0.0)  # auto loop
    assert g.has_edge(0.0, 1.0)
    assert not g.has_edge(1.0, 0.0)
    with pytest.raises(NotAVertexError):
        g.has_edge(0.0, 5.0)
    with pytest.raises(InvalidInputError):
        FiniteGraph([])


def test_edge_mask_default_matches_has_edge():
    calls = []

    def pred(p, q):
        calls.append(1)
        return p[0] + 1.0 < q[0]

    rng = np.random.default_rng(205)
    P = rng.uniform(-3.0, 3.0, size=(200, 1))
    Q = rng.uniform(-3.0, 3.0, size=(200, 1))
    g = PredicateGraph(1, pred)
    mask = g.edge_mask(P, Q)
    assert mask.dtype == bool
    mask_calls = len(calls)
    calls.clear()
    for i in range(200):
        assert mask[i] == g.has_edge(P[i], Q[i])
    assert mask_calls == len(calls)


@pytest.mark.parametrize("graph", [
    OrderGraph(1), OrderGraph(2), FullGraph(1), FullGraph(2),
    PredicateGraph(2, lambda p, q: p[0] < q[1]),
    FiniteGraph([[0.0, 5.0], [1.0, 1.0], [-1.0, -2.0], [0.0, 0.0]], [([0.0, 5.0], [1.0, 1.0])]),
], ids=["order-1", "order-2", "full-1", "full-2", "predicate-2", "finite-2"])
def test_edge_mask_reads_a_flat_vector_as_rows(graph):
    # a flat vector is its consecutive points of d coordinates
    d = graph.dimension
    P, Q = np.array([0.0, 5.0, -1.0, -2.0]), np.array([1.0, 1.0, 0.0, 0.0])
    want = [graph.has_edge(p, q) for p, q in zip(P.reshape(-1, d), Q.reshape(-1, d))]
    assert graph.edge_mask(P[:d], Q[:d]).tolist() == want[:1]
    assert graph.edge_mask(P, Q).tolist() == want
    assert graph.edge_mask(P.reshape(-1, d), Q.reshape(-1, d)).tolist() == want
    if isinstance(graph, OrderGraph) and d == 2:
        assert want == [False, True]


@pytest.mark.parametrize("graph", [
    OrderGraph(2), FullGraph(2), PredicateGraph(2, lambda p, q: p[0] < q[1]),
    FiniteGraph([[0.0, 0.0]]),
], ids=["order-2", "full-2", "predicate-2", "finite-2"])
@pytest.mark.parametrize("shape", [(4, 1), (3, 5), (2, 2, 2), (3,)])
def test_edge_mask_rejects_other_shapes(graph, shape):
    # rows of another width, more than two axes, or a flat vector that is
    # not whole points
    with pytest.raises(InvalidInputError, match=r"^expected rows of 2 coordinate\(s\), got shape "):
        graph.edge_mask(np.zeros(shape), np.zeros(shape))


@pytest.mark.parametrize("graph", [
    OrderGraph(2), FullGraph(2), PredicateGraph(2, lambda p, q: p[0] < q[1]),
    FiniteGraph([[0.0, 0.0]]),
], ids=["order-2", "full-2", "predicate-2", "finite-2"])
@pytest.mark.parametrize("P, Q", [
    (np.zeros((1, 2)), np.zeros((4, 2))), (np.zeros((3, 2)), np.zeros((4, 2))),
    (np.zeros((4, 2)), np.zeros((3, 2))), (np.zeros(4), np.zeros(6)),
], ids=["1-4", "3-4", "4-3", "flat-2-3"])
def test_edge_mask_rejects_unequal_row_counts(graph, P, Q):
    # no broadcast of one row, and no truncation to the shorter argument
    rows = len(np.reshape(P, (-1, 2))), len(np.reshape(Q, (-1, 2)))
    with pytest.raises(InvalidInputError,
                       match=rf"^expected as many rows in Q as in P, got {rows[0]} and {rows[1]}$"):
        graph.edge_mask(P, Q)


def test_has_edge_follows_the_float_rule_on_special_values():
    # OrderGraph and FullGraph test an edge by their float rule; on every
    # pair of NaN, +-inf, +-0.0 and +-1 coordinates it agrees with numpy's
    # componentwise order and with edge_mask
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]
    for d in (1, 2):
        points = np.array(np.meshgrid(*[values] * d)).reshape(d, -1).T
        P = np.repeat(points, len(points), axis=0)
        Q = np.tile(points, (len(points), 1))
        order, full = OrderGraph(d), FullGraph(d)
        assert [order.has_edge(p, q) for p, q in zip(P, Q)] == (P <= Q).all(axis=1).tolist() \
            == order.edge_mask(P, Q).tolist()
        assert all(full.has_edge(p, q) for p, q in zip(P, Q)) and full.edge_mask(P, Q).all()
    with pytest.raises(NotImplementedError):
        Digraph(1).has_edge(0.0, 1.0)  # no float rule
    with pytest.raises(InvalidInputError):
        OrderGraph(2).has_edge([0.0, 1.0], 1.0)


@pytest.mark.parametrize("d", range(1, 10))
def test_row_rule_matches_edge_mask_on_special_values(d):
    # the rule compiled from the graph's text gives edge_mask's flags, also
    # where a row holds a NaN (at each position), an inf, a signed zero or a
    # subnormal
    values = (np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.5, -2.0)
    rng = np.random.default_rng(d)
    P, Q = rng.choice(values, size=(2, 400, d))
    Q[-50:] = np.maximum(P[-50:], Q[-50:])  # rows with an edge on the order graph
    for i in range(d):
        P[i, i], Q[d + i, i] = np.nan, np.nan
    for graph in (OrderGraph(d), FullGraph(d)):
        mask = graph.edge_mask(P, Q)
        assert [graph._row_rule(p, q) for p, q in zip(P.tolist(), Q.tolist())] == mask.tolist()
        assert mask.any() and (isinstance(graph, FullGraph) or not mask.all())


def test_finite_graph_edge_tests_against_edge_set_oracle():
    # Vertices are told apart by their bytes: duplicates collapse, 0.0 and
    # -0.0 are two vertices, and a NaN vertex has its loop like any other.
    g = FiniteGraph([0.0, -0.0, np.nan, 0.0], edges=[(0.0, np.nan)])
    assert g.has_edge(np.nan, np.nan) and g.has_edge(-0.0, -0.0)
    assert g.has_edge(0.0, np.nan) and not g.has_edge(-0.0, np.nan)
    assert not g.has_edge(0.0, -0.0) and not g.has_edge(np.nan, 0.0)
    with pytest.raises(NotAVertexError, match=r"^point array\(\[0\.5\]\) is not a vertex$"):
        g.has_edge(0.0, 0.5)
    with pytest.raises(NotAVertexError, match=r"^point array\(\[2\.\]\) is not a vertex$"):
        FiniteGraph([0.0, 1.0], edges=[(0.0, 2.0)])  # an edge to an unlisted point

    rng = np.random.default_rng(206)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        values = [float(i) for i in range(n)] + [0.0, -0.0, np.nan]
        listed = [values[i] for i in rng.integers(0, len(values), size=n + 3)]
        verts = list({np.float64(v).tobytes(): v for v in listed}.values())
        m = len(verts)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, m, size=(int(rng.integers(0, 2 * m)), 2))}
        g = FiniteGraph(listed, edges=[(verts[a], verts[b]) for a, b in edges])
        pairs = [(a, b) for a in range(m) for b in range(m)]
        expected = [a == b or (a, b) in edges for a, b in pairs]
        assert [g.has_edge(verts[a], verts[b]) for a, b in pairs] == expected
        P = np.array([[verts[a]] for a, _ in pairs])
        Q = np.array([[verts[b]] for _, b in pairs])
        assert g.edge_mask(P, Q).tolist() == expected
        with pytest.raises(NotAVertexError):
            g.has_edge(verts[0], n + 0.5)
        with pytest.raises(NotAVertexError):
            FiniteGraph(listed, edges=[(verts[-1], n + 0.5)])
