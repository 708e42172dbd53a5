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
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        SampleSpec(seed=-1)  # numpy's Generator rejects a negative seed
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
    for low, high, message in (("a", 1.0, r"^SampleSpec.low must be a number, got 'a'$"),
                               (0.0, [1.0, 2.0], r"^SampleSpec.high needs 1 coordinate\(s\), got 2$")):
        with pytest.raises(InvalidInputError, match=message):
            Sampler(SampleSpec(count=10, seed=1, low=low, high=high), 1)


def test_non_finite_box_is_rejected():
    for low, high, message in (
        (float("nan"), 1.0, "SampleSpec.low must be finite, got nan"),
        (0.0, [1.0, float("nan")], "SampleSpec.high must be finite, got nan"),
        (float("-inf"), 1.0, "SampleSpec.low must be finite, got -inf"),
        (0.0, float("inf"), "SampleSpec.high must be finite, got inf"),
        (-1e308, 1e308, "SampleSpec.high - SampleSpec.low must be finite"),  # the width overflows
        ([0.0, -1e308], [1.0, 1e308], "SampleSpec.high - SampleSpec.low must be finite"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            Sampler(SampleSpec(count=10, seed=1, low=low, high=high), 2)
    # the widest finite box still samples
    assert np.isfinite(Sampler(SampleSpec(count=10, seed=1, low=-1e307, high=1e307), 2).draw(5)).all()


@pytest.mark.parametrize("low, high", [
    (-2.0, 3.0),                              # scalar box
    ((0.0, -5.0, 2.0), (1.0, -4.0, 6.0)),     # per-coordinate box
    ((0.0, 1.5, -1.0), (1.0, 1.5, 1.0)),      # a degenerate coordinate
    (-0.0, 1.0),                              # a -0.0 bound
    ((-1.0, -0.0, 0.0), (-0.0, 0.0, 2.0)),    # -0.0 bounds and a zero width
    ((-2.0,) * 3, (3.0,) * 3),                # one interval given as 3 numbers
    ((0.0, -0.0, 0.0), (1.0, 1.0, 1.0)),      # lows that mix 0.0 and -0.0
])
def test_draw_matches_generator_uniform_bytes(low, high):
    for seed in (0, 7):
        got = Sampler(SampleSpec(count=1, seed=seed, low=low, high=high), 3).draw(257)
        want = np.random.default_rng(seed).uniform(low, high, (257, 3))
        assert got.tobytes() == want.tobytes()


def test_sampler_seeds_its_generator_at_the_first_draw(monkeypatch):
    # a sampler built only to check its box or pool seeds no generator
    seeded = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeded.append(seed) or default_rng(seed))
    box = Sampler(SampleSpec(count=4, seed=5, low=-1.0, high=2.0), 2)
    pool = Sampler(SampleSpec(count=4, seed=6, points=((0.0, 1.0), (2.0, 3.0))), 2)
    assert seeded == []
    first, second = box.draw(3), box.draw(3)
    pool.draw(2)
    assert seeded == [5, 6]
    assert np.concatenate([first, second]).tobytes() == default_rng(5).uniform(-1.0, 2.0, (6, 2)).tobytes()


@pytest.mark.parametrize("graph", [OrderGraph, FullGraph])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_one_interval_box_samples_alike_in_every_spelling(graph, d):
    # a scalar box, the same box given per coordinate, and the same box held
    # as length-d arrays (the per-coordinate form) give the same bytes
    def samplers():
        scalar = Sampler(SampleSpec(count=300, seed=13, low=-2.0, high=3.0), d)
        spelled = Sampler(SampleSpec(count=300, seed=13, low=(-2.0,) * d, high=(3.0,) * d), d)
        arrays = Sampler(SampleSpec(count=300, seed=13, low=-2.0, high=3.0), d)
        arrays._low, arrays._width = np.full(d, -2.0), np.full(d, 5.0)
        return scalar, spelled, arrays

    for method in ("edge_triples", "product_edge_pairs"):
        got = {tuple(a.tobytes() for a in getattr(s, method)(graph(d))) for s in samplers()}
        assert len(got) == 1
    assert all(isinstance(v, float) for s in samplers()[:2] for v in (s._low, s._width))


def test_draw_samples_a_box_numpy_uniform_refuses():
    # 0.0 <= -0.0, so the box is valid, but its width is -0.0 and
    # Generator.uniform rejects it by sign bit; the sampler draws the point
    pts = Sampler(SampleSpec(count=1, seed=3, low=(0.0, 0.0), high=(-0.0, 1.0)), 2).draw(50)
    assert (pts[:, 0] == 0.0).all() and (pts[:, 1] >= 0.0).all() and (pts[:, 1] <= 1.0).all()
    with pytest.raises(ValueError):
        np.random.default_rng(3).uniform((0.0, 0.0), (-0.0, 1.0), (50, 2))


def test_pool_draws_only_listed_points():
    s = Sampler(SampleSpec(count=10, seed=5, points=(0.0, 1.0, 2.0)), 1)
    pts = s.draw(200)
    assert set(np.unique(pts)) <= {0.0, 1.0, 2.0}


def test_array_pool_draws_as_its_rows():
    rows = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    from_array = Sampler(SampleSpec(count=3, seed=5, points=rows), 2).draw(50)
    from_tuple = Sampler(SampleSpec(count=3, seed=5, points=tuple(map(tuple, rows))), 2).draw(50)
    assert from_array.tobytes() == from_tuple.tobytes()
    column = Sampler(SampleSpec(count=3, seed=5, points=np.array([[0.0], [1.0]])), 1).draw(50)
    assert set(column.ravel()) == {0.0, 1.0}


def test_iterator_pool_is_read_once_for_every_sampler():
    spec = SampleSpec(count=3, seed=5, points=iter([0.0, 1.0]))
    assert spec.points == (0.0, 1.0)
    assert set(Sampler(spec, 1).draw(50).ravel()) == set(Sampler(spec, 1).draw(50).ravel()) == {0.0, 1.0}


@pytest.mark.parametrize("points, message", [
    (5, "^SampleSpec.points must be a sequence, got 5$"),
    (np.array(1.0), r"^SampleSpec.points must be a sequence, got array\(1\.\)$"),
    (("a",), "^not a point: 'a'$"),
    (np.array([[0.0, 1.0]]), "^dimension mismatch: expected 1, got 2$"),
], ids=["integer", "0-d-array", "string-point", "wide-row"])
def test_bad_pool_is_an_input_error(points, message):
    with pytest.raises(InvalidInputError, match=message):
        Sampler(SampleSpec(count=3, points=points), 1)


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
    for g in (PredicateGraph(2, lambda p, q: bool((p <= q).all())),
              FiniteGraph([(0.0, 0.0), (1.0, 1.0)])):
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


def counted(sampler):
    """Wrap sampler.draw to record the size of every draw."""
    sizes = []
    draw = sampler.draw

    def counting(n):
        sizes.append(n)
        return draw(n)

    sampler.draw = counting
    return sizes


@pytest.mark.parametrize(
    "d, low, high",
    [(1, -1.0, 1.0), (1, (0.5,), (2.0,)), (2, (0.0, -5.0), (1.0, -4.0)), (3, -2.5, 0.5),
     (3, (0.0, -5.0, 2.0), (1.0, -4.0, 6.0)), (5, -1.0, 1.0)],
)
def test_constructed_full_edges_draw_exactly_the_count(d, low, high):
    g = FullGraph(d)
    count = 777
    spec = SampleSpec(count=count, seed=31, low=low, high=high)
    lo = np.broadcast_to(np.asarray(low, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(high, dtype=float), (d,))
    for method, columns in (("edge_pairs", 2), ("edge_triples", 3), ("product_edge_pairs", 4)):
        sampler = Sampler(spec, d)
        sizes = counted(sampler)
        arrays = getattr(sampler, method)(g)
        assert sizes == [count] * columns
        assert len(arrays) == columns
        for A in arrays:
            assert A.shape == (count, d)
            assert (A >= lo).all() and (A <= hi).all()
    # a point pool on the full graph is still rejection-sampled in rounds
    pool = Sampler(SampleSpec(count=count, seed=31, points=((0.0,) * d, (1.0,) * d)), d)
    sizes = counted(pool)
    assert len(pool.edge_pairs(g)[0]) == count and sizes == [4096, 4096]


def test_constructed_full_edges_draw_in_the_documented_order():
    spec = SampleSpec(count=50, seed=32, low=(-1.0, 0.0), high=(1.0, 4.0))
    draws = Sampler(spec, 2)
    A, B, C, D = (draws.draw(50) for _ in range(4))
    P, Q = Sampler(spec, 2).edge_pairs(FullGraph(2))
    assert np.array_equal(P, A) and np.array_equal(Q, B)
    P, Q, W = Sampler(spec, 2).edge_triples(FullGraph(2))
    assert np.array_equal(P, A) and np.array_equal(Q, B) and np.array_equal(W, C)
    # product edges: (x, u) is A_xu, B_xu and (v, y) is A_vy, B_vy
    X, Y, U, V = Sampler(spec, 2).product_edge_pairs(FullGraph(2))
    assert np.array_equal(X, A) and np.array_equal(U, B)
    assert np.array_equal(V, C) and np.array_equal(Y, D)


@pytest.mark.parametrize("points", [(), ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))])
def test_readers_of_one_sampler_draw_a_fresh_samplers_bits(points):
    # each reader gets the blocks a fresh Sampler draws, whatever its sizes: kept
    # blocks, blocks drawn onto them, a size that cuts it off, draws past the four kept
    spec = SampleSpec(count=5, seed=9, low=[-1.0, 0.0], high=[1.0, 4.0], points=points)
    shared = Sampler(spec, 2)
    for sizes in ([3, 3, 4], [3, 3, 4, 5, 2, 6], [3, 2, 4], [3, 3, 4, 5, 7, 7], [6], [3, 3, 4, 5, 1]):
        reader, fresh = Sampler(shared, 2), Sampler(spec, 2)
        assert [reader.draw(n).tobytes() for n in sizes] == [fresh.draw(n).tobytes() for n in sizes]
    assert [len(block) for block in shared._kept] == [3, 3, 4, 5]
    fresh = Sampler(spec, 2)  # the sampler itself reads its kept blocks too
    assert [shared.draw(n).tobytes() for n in (3, 3, 8)] == [fresh.draw(n).tobytes() for n in (3, 3, 8)]
    with pytest.raises(InvalidInputError, match="^a sampler of dimension 2 read at 3$"):
        Sampler(shared, 3)
