from __future__ import annotations

import math

import numpy as np
import pytest

from coupled_fpi import (
    ExpressionCoupledMap,
    ExpressionMultiMap,
    FiniteSet,
    InvalidInputError,
    InvalidParameterError,
    LinearCoupledMap,
    SingletonMultiMap,
)


def test_linear_map_evaluation():
    fn = LinearCoupledMap(0.2, -0.1)
    out = fn(np.array([1.0]), np.array([2.0]))
    assert out[0] == 0.2 * 1.0 - 0.1 * 2.0


def test_linear_map_coefficients_are_numbers():
    for a, b, want in (("1", 0.1, "^a must be a number, got '1'$"),
                       (None, 0.1, "^a must be a number, got None$"),
                       (math.inf, 0.0, "^a must be finite, got inf$"),
                       (0.1, True, "^b must be a number, got True$")):
        with pytest.raises(InvalidParameterError, match=want):
            LinearCoupledMap(a, b)
    fn = LinearCoupledMap(np.float64(0.2), np.int64(0))
    assert type(fn.a) is float and type(fn.b) is float
    assert fn.canonical == "a=0.2 b=0.0"


def test_linear_map_batch_matches_scalar():
    fn = LinearCoupledMap(0.3, 0.4)
    rng = np.random.default_rng(401)
    X = rng.uniform(-5.0, 5.0, size=(100, 2))
    Y = rng.uniform(-5.0, 5.0, size=(100, 2))
    batch = fn.eval_batch(X, Y)
    rows = np.vstack([fn(x, y) for x, y in zip(X, Y)])
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("fn", [
    ExpressionCoupledMap(["x1 - y2", "y1"], 2),
    ExpressionMultiMap([["x1", "y2"], ["y1 / 2", "x2"]], 2),
    LinearCoupledMap(0.5, -0.25),
], ids=["expression", "multi", "linear"])
def test_eval_batch_rejects_rows_of_another_length(fn):
    # X and Y of one shape, as distance_batch and edge_mask read their
    # arguments: 1 or 3 rows of Y beside 5 rows of X neither broadcast nor
    # raise a bare numpy error; the expression maps name X and Y
    X = np.arange(10.0).reshape(5, 2)
    for rows in (1, 3):
        for args in ((X, X[:rows]), (X[:rows], X)):
            with pytest.raises(InvalidInputError) as info:
                fn.eval_batch(*args)
            if not isinstance(fn, LinearCoupledMap):
                assert str(info.value) == (
                    f"expected as many rows in Y as in X, got {len(args[0])} and {len(args[1])}")
    assert len(fn.eval_batch(X, X[::-1])) == 5


def test_singleton_multi_map():
    fn = SingletonMultiMap(LinearCoupledMap(0.5, 0.0))
    out = fn(np.array([4.0]), np.array([0.0]))
    assert isinstance(out, FiniteSet)
    assert len(out) == 1
    assert float(out[0][0]) == 2.0
    with pytest.raises(InvalidInputError):
        SingletonMultiMap("not callable")
