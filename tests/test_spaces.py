from __future__ import annotations

import numpy as np
import pytest

from coupled_fpi import (
    CallbackSpace,
    ChebyshevSpace,
    EuclideanSpace,
    ExpressionCoupledMap,
    ExpressionMultiMap,
    FullGraph,
    InvalidInputError,
    InvalidParameterError,
    OrderGraph,
    PredicateGraph,
    Sampler,
    SampleSpec,
    SolveConfig,
    as_point,
    compile_expression,
    real_line,
    step_bound,
)
from coupled_fpi.spaces import _check_number, fold_last


def test_as_point_scalar_promotion():
    p = as_point(3)
    assert p.shape == (1,) and p.dtype == np.float64
    assert p[0] == 3.0


def test_as_point_sequences_and_arrays():
    assert as_point([1.0, 2.0]).shape == (2,)
    src = np.array([1.0, 2.0])
    p = as_point(src)
    p[0] = 99.0
    assert src[0] == 1.0  # caller's array must not be aliased


def test_as_point_dimension_check():
    assert as_point(0.5, 1).shape == (1,)
    with pytest.raises(InvalidInputError):
        as_point([1.0, 2.0], 3)
    with pytest.raises(InvalidInputError):
        as_point([], 1)
    with pytest.raises(InvalidInputError):
        as_point(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        as_point("not a number")


def test_metric_examples():
    line = real_line()
    assert line.distance(0.0, 0.0) == 0.0
    assert line.distance(0.0, 1.0) == 1.0
    assert EuclideanSpace(2).distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    assert ChebyshevSpace(2).distance([0.0, 0.0], [3.0, 4.0]) == 4.0


def test_distance_validates_dimension():
    with pytest.raises(InvalidInputError):
        EuclideanSpace(2).distance([0.0, 0.0], [1.0])


def test_bad_dimension_rejected():
    # every dimension argument, of a space, graph, sampler or expression, follows the integer rule
    makers = (EuclideanSpace, OrderGraph, FullGraph, lambda d: PredicateGraph(d, lambda p, q: True),
              lambda d: Sampler(SampleSpec(), d), lambda d: compile_expression("x", d),
              lambda d: ExpressionCoupledMap(["x1"], d), lambda d: ExpressionMultiMap(["x"], d))
    for make in makers:
        for bad in (0, -1, 1.0, 1.5, 2.5, "1", "x", None, True, np.bool_(True), np.float64(2.0)):
            with pytest.raises(InvalidParameterError, match="^dimension must be a positive integer, got "):
                make(bad)


def test_numpy_integers_are_integers():
    # each integer parameter takes numpy's integers and keeps a Python int
    space = EuclideanSpace(np.int64(2))
    cfg = SolveConfig(k=0.5, max_iter=np.int64(100))
    spec = SampleSpec(count=np.uint16(10), seed=np.int32(3))
    single = ExpressionCoupledMap(["x1", "x2"], np.int64(2))
    multi = ExpressionMultiMap([["x1", "y2"], ["y1", "x2"]], np.int32(2))
    for value, want in ((space.dimension, 2), (cfg.max_iter, 100), (spec.count, 10), (spec.seed, 3),
                        (single.dimension, 2), (multi.dimension, 2),
                        (single._kernel.shape[1], 2), (multi._kernel.shape[1], 2)):
        assert type(value) is int and value == want
    assert step_bound(0.5, 1.0, np.int64(3)) == step_bound(0.5, 1.0, 3) == 0.0625
    assert space.distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    with pytest.raises(InvalidParameterError, match="^max_iter must be a positive integer, got "):
        SolveConfig(k=0.5, max_iter=np.int64(0))


@pytest.mark.parametrize("value, shown", [pytest.param(-10 ** 400, "-inf", id="negative"),
                                          pytest.param(10 ** 400, "inf", id="positive")])
def test_integer_past_the_float_range_keeps_its_sign(value, shown):
    with pytest.raises(InvalidParameterError, match=f"^v must be finite, got {shown}$"):
        _check_number(value, "v")
    with pytest.raises(InvalidInputError, match=f"^SampleSpec.low must be finite, got {shown}$"):
        Sampler(SampleSpec(low=value), 2)


def _spaces():
    return [
        EuclideanSpace(1),
        EuclideanSpace(3),
        ChebyshevSpace(2),
        CallbackSpace(1, lambda p, q: abs(p[0] - q[0])),
    ]


def test_metric_axioms_on_random_triples():
    # nonnegativity, identity, exact symmetry, triangle to 1e-12
    rng = np.random.default_rng(101)
    for space in _spaces():
        d = space.dimension
        for _ in range(1000):
            p, q, r = rng.uniform(-50.0, 50.0, size=(3, d))
            dpq = space.distance(p, q)
            assert dpq >= 0.0
            assert space.distance(p, p) == 0.0
            if not np.array_equal(p, q):
                assert dpq > 0.0
            assert dpq == space.distance(q, p)
            assert dpq <= space.distance(p, r) + space.distance(r, q) + 1e-12


def test_distance_batch_matches_scalar_bitwise():
    rng = np.random.default_rng(102)
    for space in _spaces():
        d = space.dimension
        P = rng.uniform(-5.0, 5.0, size=(50, d))
        Q = rng.uniform(-5.0, 5.0, size=(50, d))
        batch = space.distance_batch(P, Q)
        scalar = np.array([space.distance(p, q) for p, q in zip(P, Q)])
        assert np.array_equal(batch, scalar)


@pytest.mark.parametrize("space", [
    EuclideanSpace(1), EuclideanSpace(2), ChebyshevSpace(1), ChebyshevSpace(2),
    CallbackSpace(2, lambda p, q: float(np.hypot(*(p - q)))),
], ids=["euclidean-1", "euclidean-2", "chebyshev-1", "chebyshev-2", "callback-2"])
def test_distance_batch_reads_a_flat_vector_as_rows(space):
    # a flat vector is its consecutive points of d coordinates
    d = space.dimension
    P, Q = np.array([0.0, 0.0, 1.0, -2.0]), np.array([3.0, 4.0, 1.0, 2.0])
    want = [space.distance(p, q) for p, q in zip(P.reshape(-1, d), Q.reshape(-1, d))]
    assert space.distance_batch(P[:d], Q[:d]).tolist() == want[:1]
    assert space.distance_batch(P, Q).tolist() == want
    assert space.distance_batch(P.reshape(-1, d), Q.reshape(-1, d)).tolist() == want
    if d == 2:
        assert want[0] == (4.0 if isinstance(space, ChebyshevSpace) else 5.0)


@pytest.mark.parametrize("space", [
    EuclideanSpace(2), ChebyshevSpace(2), CallbackSpace(2, lambda p, q: float(np.hypot(*(p - q)))),
], ids=["euclidean-2", "chebyshev-2", "callback-2"])
@pytest.mark.parametrize("shape", [(4, 1), (3, 5), (2, 2, 2), (3,)])
def test_distance_batch_rejects_other_shapes(space, shape):
    # rows of another width, more than two axes, or a flat vector that is
    # not whole points
    with pytest.raises(InvalidInputError, match=r"^expected rows of 2 coordinate\(s\), got shape "):
        space.distance_batch(np.zeros(shape), np.ones(shape))


@pytest.mark.parametrize("space", [
    EuclideanSpace(2), ChebyshevSpace(2), CallbackSpace(2, lambda p, q: float(np.hypot(*(p - q)))),
], ids=["euclidean-2", "chebyshev-2", "callback-2"])
@pytest.mark.parametrize("P, Q", [
    (np.zeros((1, 2)), np.ones((4, 2))), (np.zeros((3, 2)), np.ones((4, 2))),
    (np.zeros((4, 2)), np.ones((3, 2))), (np.zeros(4), np.ones(6)),
], ids=["1-4", "3-4", "4-3", "flat-2-3"])
def test_distance_batch_rejects_unequal_row_counts(space, P, Q):
    # no broadcast of one row, and no truncation to the shorter argument
    rows = len(np.reshape(P, (-1, 2))), len(np.reshape(Q, (-1, 2)))
    with pytest.raises(InvalidInputError,
                       match=rf"^expected as many rows in Q as in P, got {rows[0]} and {rows[1]}$"):
        space.distance_batch(P, Q)


def test_short_axis_folds_match_the_reductions_bytewise():
    # distance_batch, OrderGraph.edge_mask and the checkers fold short
    # trailing axes column by column; each gives the bytes of the numpy
    # reduction it replaces, across the fold limits (sums below 8 terms)
    rng = np.random.default_rng(104)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    with np.errstate(invalid="ignore", over="ignore"):
        for d in range(1, 13):
            P = rng.normal(size=(96, d)) * 10.0 ** rng.integers(-160, 160, size=(96, d))
            Q = rng.normal(size=(96, d)) * 10.0 ** rng.integers(-160, 160, size=(96, d))
            for A in (P, Q):
                hit = rng.random(A.shape) < 0.15
                A[hit] = rng.choice(special, size=hit.sum())
            P[0], Q[0] = -0.0, 0.0
            P[1], Q[1] = np.inf, np.inf  # inf - inf: NaN in every column
            P[2], Q[2] = np.nan, -0.0
            P[3, -1], Q[3, -1] = np.inf, np.inf  # NaN only in the last column
            diff = P - Q
            old_euclid = np.abs(diff[:, 0]) if d == 1 else np.sqrt((diff * diff).sum(axis=1))
            assert EuclideanSpace(d).distance_batch(P, Q).tobytes() == old_euclid.tobytes()
            old_cheb = np.abs(diff).max(axis=1)
            assert ChebyshevSpace(d).distance_batch(P, Q).tobytes() == old_cheb.tobytes()
            assert OrderGraph(d).edge_mask(P, Q).tobytes() == (P <= Q).all(axis=1).tobytes()
            dist = np.abs(diff).reshape(96, 1, d)  # distances, as the checkers' (n, m, m) minimum
            assert fold_last(np.minimum, dist).tobytes() == dist.min(axis=2).tobytes()
            flags = (P <= Q).reshape(96, 1, d)
            assert fold_last(np.logical_and, flags).tobytes() == flags.all(axis=2).tobytes()
            assert fold_last(np.logical_or, flags).tobytes() == flags.any(axis=2).tobytes()


# NaN, +-inf, +-0.0, subnormals, and values whose differences or squares overflow
_SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.5, -2.0, 1e200, -1e308)


def _same(a: float, b: float) -> bool:
    """The same bits, or NaN both (a NaN's sign and payload aside)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("space", [EuclideanSpace(d) for d in range(1, 8)]
                         + [ChebyshevSpace(d) for d in range(1, 9)],
                         ids=lambda s: f"{type(s).__name__}-{s.dimension}")
def test_row_rule_matches_distance_batch_on_special_values(space):
    # the rule compiled from the metric's text gives distance_batch's bits,
    # also where a row holds a NaN (at each position), an inf or a subnormal
    d = space.dimension
    rng = np.random.default_rng(d)
    P, Q = rng.choice(_SPECIAL[1:], size=(2, 400, d))
    Q[-50:] = P[-50:]  # zero distances, and NaN ones where an inf meets itself
    for i in range(d):
        P[i, i], Q[d + i, i] = np.nan, np.nan
    rule = space._row_rule
    with np.errstate(all="ignore"):
        batch = space.distance_batch(P, Q)
    got = [rule(p, q) for p, q in zip(P.tolist(), Q.tolist())]
    assert all(_same(a, b) for a, b in zip(got, batch.tolist()))
    assert np.isnan(batch).any() and np.isinf(batch).any() and (batch == 0.0).any()


def test_callback_space_requires_callable():
    with pytest.raises(InvalidInputError):
        CallbackSpace(1, "not callable")


def test_real_line_is_one_dimensional_euclidean():
    line = real_line()
    assert isinstance(line, EuclideanSpace)
    assert line.dimension == 1
    assert line.distance(-2.0, 2.5) == 4.5


def test_euclidean_one_dim_is_absolute_value():
    line = EuclideanSpace(1)
    rng = np.random.default_rng(104)
    for _ in range(200):
        a, b = rng.uniform(-1e6, 1e6, size=2)
        assert line.distance(a, b) == abs(a - b)
