from __future__ import annotations

import numpy as np
import pytest

from coupled_fpi import (
    Digraph,
    FiniteGraph,
    FullGraph,
    InsufficientSamplesError,
    InvalidInputError,
    InvalidParameterError,
    OrderGraph,
    PredicateGraph,
    SampleSpec,
    Sampler,
    product_edge,
    reverse_graph,
    symmetrize_graph,
)


class RejectedOrderGraph(OrderGraph):
    """The order graph sampled by rejection (the default hook)."""

    construct_edges = Digraph.construct_edges


def all_edge_samples(sampler, graph):
    """edge_pairs, edge_triples and product_edge_pairs as (p, q) edge lists."""
    P, Q = sampler.edge_pairs(graph)
    P3, Q3, W = sampler.edge_triples(graph)
    X, Y, U, V = sampler.product_edge_pairs(graph)
    return [(P, Q), (P3, Q3), (X, U), (V, Y)], [P, Q, P3, Q3, W, X, Y, U, V]


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        SampleSpec(count=0)
    with pytest.raises(InvalidParameterError):
        SampleSpec(count=True)
    with pytest.raises(InvalidParameterError):
        SampleSpec(seed=1.5)
    spec = SampleSpec()
    assert spec.count == 10_000 and spec.seed == 0


def test_same_seed_same_draws():
    spec = SampleSpec(count=10, seed=42, low=-2.0, high=2.0)
    a = Sampler(spec, 3).draw(100)
    b = Sampler(spec, 3).draw(100)
    assert np.array_equal(a, b)
    c = Sampler(SampleSpec(count=10, seed=43, low=-2.0, high=2.0), 3).draw(100)
    assert not np.array_equal(a, c)


def test_box_bounds_respected():
    s = Sampler(SampleSpec(count=10, seed=1, low=-1.5, high=0.5), 2)
    pts = s.draw(1000)
    assert pts.shape == (1000, 2)
    assert (pts >= -1.5).all() and (pts <= 0.5).all()


def test_per_coordinate_bounds():
    s = Sampler(SampleSpec(count=10, seed=1, low=(0.0, -5.0), high=(1.0, -4.0)), 2)
    pts = s.draw(500)
    assert (pts[:, 0] >= 0.0).all() and (pts[:, 0] <= 1.0).all()
    assert (pts[:, 1] >= -5.0).all() and (pts[:, 1] <= -4.0).all()


def test_invalid_box():
    with pytest.raises(InvalidInputError):
        Sampler(SampleSpec(count=10, seed=1, low=1.0, high=0.0), 1)


def test_non_finite_box_is_rejected():
    for low, high, message in (
        (float("nan"), 1.0, "bound is NaN: low nan, high 1.0"),
        (0.0, [1.0, float("nan")], r"bound is NaN: low 0.0, high \[1.0, nan\]"),
        (float("-inf"), 1.0, "finite bounds and a finite width"),
        (0.0, float("inf"), "finite bounds and a finite width"),
        (-1e308, 1e308, "finite bounds and a finite width"),  # the width overflows
        ([0.0, -1e308], [1.0, 1e308], "finite bounds and a finite width"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            Sampler(SampleSpec(count=10, seed=1, low=low, high=high), 2)
    # the widest finite box still samples
    assert np.isfinite(Sampler(SampleSpec(count=10, seed=1, low=-1e307, high=1e307), 2).draw(5)).all()


def test_pool_draws_only_listed_points():
    s = Sampler(SampleSpec(count=10, seed=5, points=(0.0, 1.0, 2.0)), 1)
    pts = s.draw(200)
    assert set(np.unique(pts)) <= {0.0, 1.0, 2.0}


def test_edge_pairs_satisfy_constraint():
    g = OrderGraph(1)
    spec = SampleSpec(count=500, seed=7, low=-1.0, high=1.0)
    P, Q = Sampler(spec, 1).edge_pairs(g)
    assert len(P) == 500
    assert g.edge_mask(P, Q).all()


def test_edge_triples_first_two_constrained():
    g = OrderGraph(2)
    spec = SampleSpec(count=300, seed=8, low=-1.0, high=1.0)
    P, Q, W = Sampler(spec, 2).edge_triples(g)
    assert len(P) == len(Q) == len(W) == 300
    assert g.edge_mask(P, Q).all()


def test_product_edge_pairs_satisfy_product_constraint():
    g = OrderGraph(1)
    spec = SampleSpec(count=200, seed=9, low=-1.0, high=1.0)
    X, Y, U, V = Sampler(spec, 1).product_edge_pairs(g)
    for i in range(len(X)):
        assert product_edge(g, (X[i], Y[i]), (U[i], V[i]))


def test_rejection_budget_exhaustion():
    # loops are the only edges; box draws never repeat a point exactly
    g = PredicateGraph(1, lambda p, q: False)
    spec = SampleSpec(count=5, seed=3, low=-1.0, high=1.0)
    with pytest.raises(InsufficientSamplesError):
        Sampler(spec, 1).edge_pairs(g)


def test_filtered_draws_deterministic():
    g = OrderGraph(1)
    spec = SampleSpec(count=100, seed=11, low=-1.0, high=1.0)
    A = Sampler(spec, 1).edge_pairs(g)
    B = Sampler(spec, 1).edge_pairs(g)
    assert np.array_equal(A[0], B[0]) and np.array_equal(A[1], B[1])


@pytest.mark.parametrize(
    "d, low, high",
    [(1, -1.0, 1.0), (3, -2.5, 0.5), (2, (0.0, -5.0), (1.0, -4.0)), (5, -1.0, 1.0)],
)
def test_constructed_order_edges_fill_the_count_inside_the_box(d, low, high):
    g = OrderGraph(d)
    spec = SampleSpec(count=777, seed=21, low=low, high=high)
    edges, arrays = all_edge_samples(Sampler(spec, d), g)
    for P, Q in edges:
        assert g.edge_mask(P, Q).all()
    lo = np.broadcast_to(np.asarray(low, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(high, dtype=float), (d,))
    for A in arrays:
        assert A.shape == (777, d)
        assert (A >= lo).all() and (A <= hi).all()


def test_constructed_order_edges_same_seed_same_arrays():
    spec = SampleSpec(count=300, seed=22, low=-1.0, high=1.0)
    _, a = all_edge_samples(Sampler(spec, 2), OrderGraph(2))
    _, b = all_edge_samples(Sampler(spec, 2), OrderGraph(2))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    _, c = all_edge_samples(Sampler(SampleSpec(count=300, seed=23, low=-1.0, high=1.0), 2),
                            OrderGraph(2))
    assert not np.array_equal(a[0], c[0])


def test_constructed_order_edges_draw_in_the_documented_order():
    spec = SampleSpec(count=50, seed=24, low=-1.0, high=1.0)
    draws = Sampler(spec, 2)
    A, B, C, D = (draws.draw(50) for _ in range(4))
    X, Y, U, V = Sampler(spec, 2).product_edge_pairs(OrderGraph(2))
    assert np.array_equal(X, np.minimum(A, B)) and np.array_equal(U, np.maximum(A, B))
    assert np.array_equal(V, np.minimum(C, D)) and np.array_equal(Y, np.maximum(C, D))
    P, Q, W = Sampler(spec, 2).edge_triples(OrderGraph(2))
    assert np.array_equal(P, X) and np.array_equal(Q, U) and np.array_equal(W, C)


def test_constructed_order_edges_match_the_analytic_law():
    # per coordinate, p and q are the min and max of two uniforms: means at
    # 1/3 and 2/3 of the way through the box, standard error about 6e-4 here
    n = 100_000
    low, high = np.array([0.0, -5.0, 2.0]), np.array([1.0, -4.0, 6.0])
    width = high - low
    spec = SampleSpec(count=n, seed=25, low=tuple(low), high=tuple(high))
    X, Y, U, V = Sampler(spec, 3).product_edge_pairs(OrderGraph(3))
    for P, Q in ((X, U), (V, Y)):
        assert np.allclose(P.mean(axis=0), low + width / 3, atol=3e-3 * width)
        assert np.allclose(Q.mean(axis=0), low + 2 * width / 3, atol=3e-3 * width)
        # the gap q - p has mean width/3 and is independent across coordinates
        gap = (Q - P) / width
        assert np.allclose(gap.mean(axis=0), 1 / 3, atol=3e-3)
        assert abs(np.corrcoef(gap[:, 0], gap[:, 1])[0, 1]) < 0.02
    # (x, u) and (v, y) are independent edges
    assert abs(np.corrcoef(X[:, 0], Y[:, 0])[0, 1]) < 0.02


def test_constructed_order_edges_match_rejection():
    # same law as rejection: KS distance below the 0.1% critical value
    # 1.95 * sqrt(2 / n) for every coordinate and the per-row gap q - p
    n = 20_000
    spec = SampleSpec(count=n, seed=26, low=(-1.0, 0.0), high=(1.0, 3.0))
    built = Sampler(spec, 2).edge_pairs(OrderGraph(2))
    rejected = Sampler(SampleSpec(count=n, seed=27, low=(-1.0, 0.0), high=(1.0, 3.0)), 2) \
        .edge_pairs(RejectedOrderGraph(2))
    assert len(rejected[0]) == n
    critical = 1.95 * np.sqrt(2.0 / n)
    for j in range(2):
        for a, b in ((built[0], rejected[0]), (built[1], rejected[1])):
            assert ks_distance(a[:, j], b[:, j]) < critical
        assert ks_distance((built[1] - built[0])[:, j],
                           (rejected[1] - rejected[0])[:, j]) < critical


def test_rejection_stays_for_other_graphs_and_pools():
    def no_draws(n):
        raise AssertionError("the default hook must not draw")

    order = OrderGraph(2)
    for g in (FullGraph(2), PredicateGraph(2, lambda p, q: bool((p <= q).all())),
              FiniteGraph([(0.0, 0.0), (1.0, 1.0)]), reverse_graph(order), symmetrize_graph(order)):
        assert g.construct_edges(no_draws, 5) is None
    # an order predicate is rejection-sampled: the stream of the rejection path
    spec = SampleSpec(count=200, seed=28, low=-1.0, high=1.0)
    pred = Sampler(spec, 2).edge_pairs(PredicateGraph(2, lambda p, q: bool((p <= q).all())))
    rejected = Sampler(spec, 2).edge_pairs(RejectedOrderGraph(2))
    built = Sampler(spec, 2).edge_pairs(order)
    assert np.array_equal(pred[0], rejected[0]) and np.array_equal(pred[1], rejected[1])
    assert not np.array_equal(pred[0], built[0])
    # a pool is rejection-sampled even on the order graph: min/max of two
    # pool points need not be a pool point
    pool = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    _, arrays = all_edge_samples(Sampler(SampleSpec(count=100, seed=29, points=pool), 2), order)
    rows = {tuple(p) for p in pool}
    for A in arrays:
        assert {tuple(r) for r in A} <= rows
