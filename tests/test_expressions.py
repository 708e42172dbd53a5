from __future__ import annotations

import numpy as np
import pytest

from coupled_fpi import (
    ExpressionCoupledMap,
    ExpressionError,
    ExpressionMultiMap,
    compile_expression,
)


def eval1(source, x, y):
    fn = ExpressionCoupledMap([source], dimension=1)
    return float(fn(np.array([x]), np.array([y]))[0])


def test_precedence_and_associativity():
    assert eval1("2 + 3 * 4", 0.0, 0.0) == 14.0
    assert eval1("(2 + 3) * 4", 0.0, 0.0) == 20.0
    assert eval1("2 - 3 - 4", 0.0, 0.0) == -5.0
    assert eval1("12 / 4 / 3", 0.0, 0.0) == 1.0


def test_unary_minus():
    assert eval1("-x", 3.0, 0.0) == -3.0
    assert eval1("--x", 3.0, 0.0) == 3.0
    assert eval1("2 - -3", 0.0, 0.0) == 5.0


def test_numeric_literals():
    assert eval1("1e-3", 0.0, 0.0) == 1e-3
    assert eval1(".5", 0.0, 0.0) == 0.5
    assert eval1("2.", 0.0, 0.0) == 2.0
    assert eval1("1.5E2", 0.0, 0.0) == 150.0


def test_dimension_one_variable_aliases():
    # x/y alias x1/y1 when the space is one-dimensional
    assert eval1("x + y", 2.0, 3.0) == 5.0
    assert eval1("x1 + y1", 2.0, 3.0) == 5.0


def test_dimension_two_variables():
    fn = ExpressionCoupledMap(["x1 + y2", "x2 - y1"], dimension=2)
    out = fn(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
    assert out[0] == 21.0 and out[1] == -8.0
    with pytest.raises(ExpressionError, match="unknown variable 'x'"):
        compile_expression("x + 1", dimension=2)


def test_error_positions():
    with pytest.raises(ExpressionError, match="unexpected character") as err:
        compile_expression("x ^ 2")
    assert err.value.position == 2
    assert "(at position" in str(err.value)
    with pytest.raises(ExpressionError, match="expression is empty"):
        compile_expression("   ")
    with pytest.raises(ExpressionError, match="unexpected end of expression"):
        compile_expression("2 +")
    with pytest.raises(ExpressionError, match="after expression"):
        compile_expression("2 2")
    with pytest.raises(ExpressionError, match=r"expected '\)'"):
        compile_expression("(2")
    with pytest.raises(ExpressionError, match="must be a string"):
        compile_expression(42)
    with pytest.raises(ExpressionError, match="unknown variable 'z'"):
        compile_expression("z + 1")


def test_map_matches_closed_form():
    fn = ExpressionCoupledMap(["(x + y) / 5"], dimension=1)
    rng = np.random.default_rng(601)
    for _ in range(100):
        x, y = rng.uniform(-10.0, 10.0, size=2)
        assert fn(np.array([x]), np.array([y]))[0] == (x + y) / 5.0


def test_eval_batch_matches_scalar():
    fn = ExpressionCoupledMap(["x1 - 2 * y2", "x2 * y1 + 1"], dimension=2)
    rng = np.random.default_rng(602)
    X = rng.uniform(-5.0, 5.0, size=(200, 2))
    Y = rng.uniform(-5.0, 5.0, size=(200, 2))
    batch = fn.eval_batch(X, Y)
    assert batch.shape == (200, 2)
    for i in range(200):
        assert np.array_equal(batch[i], fn(X[i], Y[i]))
    multi_cases = {
        2: [["x1 / y1", "-x2"], ["x1 - 2 * y2", "x2 * y1 + 1"], ["3", "y2"]],
        1: [["x / y"]],  # m = 1
        3: [["x1 / y1", "-(x2 - y3)", "0.5"], ["-x3", "y2 / x1", "x1 * y1 - 2"]],
    }
    for d, points in multi_cases.items():
        multi = ExpressionMultiMap(points, dimension=d)
        X = rng.uniform(-5.0, 5.0, size=(200, d))
        Y = rng.uniform(-5.0, 5.0, size=(200, d))
        # y = 0 rows: the first point's x / y is inf, or NaN where x = 0 too
        X[:3, 0], Y[:3, 0] = [1.0, -2.0, 0.0], 0.0
        X[3, :], Y[3, :] = 0.0, 0.0
        images = multi.eval_batch(X, Y)
        assert images.shape == (200, len(points), d)
        assert np.isinf(images[:2, 0, 0]).all() and np.isnan(images[2:4, 0, 0]).all()
        for i in range(200):
            assert images[i].tobytes() == np.vstack(multi(X[i], Y[i])).tobytes()


def test_constant_expression_broadcasts():
    fn = ExpressionCoupledMap(["3"], dimension=1)
    out = fn.eval_batch(np.zeros((7, 1)), np.ones((7, 1)))
    assert out.shape == (7, 1)
    assert (out == 3.0).all()


def test_division_by_zero_does_not_raise():
    fn = ExpressionCoupledMap(["x / y"], dimension=1)
    out = fn(np.array([1.0]), np.array([0.0]))
    assert np.isinf(out[0])
    batch = fn.eval_batch(np.array([[1.0], [2.0]]), np.array([[0.0], [1.0]]))
    assert np.isinf(batch[0, 0]) and batch[1, 0] == 2.0


def test_component_count_must_match_dimension():
    with pytest.raises(ExpressionError):
        ExpressionCoupledMap(["x1", "x2", "x1"], dimension=2)


def test_multi_map_images():
    mm = ExpressionMultiMap(["-(x + y) / 5", "(x + y) / 5"], dimension=1)
    image = mm(np.array([0.0]), np.array([1.0]))
    values = sorted(float(np.asarray(p).reshape(-1)[0]) for p in image)
    assert values == [-0.2, 0.2]
    with pytest.raises(ExpressionError):
        ExpressionMultiMap([], dimension=1)
