from __future__ import annotations

import re

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


def _random_form(rng, names, depth=3):
    """A random expression over the whole grammar, its numbers left as {}."""
    if depth == 0 or rng.random() < 0.25:
        return "{}" if not names or rng.random() < 0.4 else str(rng.choice(names))
    if rng.random() < 0.15:
        return f"-{_random_form(rng, names, depth - 1)}"
    op = str(rng.choice(list("+-*/")))
    return f"({_random_form(rng, names, depth - 1)} {op} {_random_form(rng, names, depth - 1)})"


def _number(rng):
    """A literal: often 0 (so x / 0 and 0 / 0 occur), else a float of any scale."""
    return "0" if rng.random() < 0.15 else f"{rng.uniform(0.1, 10.0) * 10.0 ** rng.integers(-3, 4):.17g}"


def test_eval_batch_is_bitwise_per_point_on_random_trees():
    # The batch kernel runs every component on float64 columns, by blocks of
    # rows; every row must be bitwise the per-point value of each point map.
    rng = np.random.default_rng(603)
    for trial in range(120):
        m, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        names = [f"{v}{i}" for v in "xy" for i in range(1, d + 1)] + (["x", "y"] if d == 1 else [])
        # a few shared forms, some without variables
        forms = [_random_form(rng, names if rng.random() < 0.8 else []) for _ in range(3)]
        forms.append("x1 / {}")
        points = []
        for _ in range(m):
            point = []
            for _ in range(d):
                form = str(rng.choice(forms)) if rng.random() < 0.7 else _random_form(rng, names)
                point.append(form.format(*(_number(rng) for _ in range(form.count("{}")))))
            points.append(point)
        multi = ExpressionMultiMap(points, dimension=d)
        single = [ExpressionCoupledMap(p, dimension=d) for p in points]
        rows = multi._kernel.rows
        n = int(rng.choice([0, 1, 2, 8, 9, rows + 3]))
        X = rng.choice([0.0, -0.0, 1.0, -2.5], size=(n, d)) * (rng.random((n, d)) < 0.3) \
            + rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.7)
        Y = X[::-1] * rng.choice([1.0, -1.0])
        with np.errstate(over="ignore"):
            images = multi.eval_batch(X, Y)
            assert images.shape == (n, m, d)
            check = sorted({0, 1, n - 1, rows - 1, rows, *rng.integers(0, max(n, 1), 8).tolist()})
            for i in (i for i in check if 0 <= i < n):
                want = np.array([p(X[i], Y[i]) for p in single])
                assert images[i].tobytes() == want.tobytes(), (points, i)
                assert np.array(multi(X[i], Y[i])).tobytes() == want.tobytes()
            if m == 1:
                assert single[0].eval_batch(X, Y).tobytes() == images[:, 0].tobytes()
            if n <= 8:
                # the same rows inside a larger batch
                pad = rng.normal(size=(9, d))
                batch = multi.eval_batch(np.vstack([X, pad]), np.vstack([Y, pad]))
                assert _same_bits(images, batch[:n]), (points, n)
        # the generated text names only the arguments and the numbers
        for c in (c for point in multi.points for c in point):
            allowed = {"lambda", *(f"{v}{i}" for v in "xy" for i in range(1, d + 1)),
                       *(f"c{i}" for i in range(len(c.numbers)))}
            assert set(re.findall(r"[A-Za-z_]\w*", c.form)) <= allowed, c.form


def _same_bits(a, b):
    """Equal bytes, except that any NaN matches any NaN: numpy itself gives a
    NaN of either sign, by the array position (vector body or remainder)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(np.isnan(a), np.isnan(b)) and \
        np.where(np.isnan(a), 0.0, a).tobytes() == np.where(np.isnan(b), 0.0, b).tobytes()


def test_point_path_matches_numpy_path_on_edge_cases():
    # A point runs on Python floats, which raise ZeroDivisionError where numpy
    # gives inf or NaN; such a call falls back to numpy.  Every value has the
    # numpy path's bits, in a batch of any size.
    values = [0.0, -0.0, 1.0, -2.5, 1e308, np.inf, -np.inf, np.nan]
    X, Y = (v.reshape(-1, 1) for v in np.meshgrid(values, values))
    cases = ["x / 0", "0 / 0", "x / -0.0", "x / y", "y / x", "(x - x) / (y - y)", "1 / 0",
             "1 / 0 + x", "1e999", "1e999 - x", "--x", "-x + y", "x - (y - 1)",
             "x / (y / 2)", "x * y", "x * 1e308 - y"]
    with np.errstate(over="ignore"):
        for source in cases:
            fn = ExpressionCoupledMap([source])
            batch = fn.eval_batch(X, Y)  # 64 rows: the numpy path
            for i in range(len(X)):
                assert _same_bits(fn(X[i], Y[i]), batch[i]), (source, X[i], Y[i])
            for size in (1, 2, 8):
                for a in range(0, len(X), size):
                    assert _same_bits(fn.eval_batch(X[a:a + size], Y[a:a + size]),
                                      batch[a:a + size]), (source, a, size)
        multi = ExpressionMultiMap([["x / y"], ["x - (y - 1)"], ["1 / 0"], ["--x"]])
        images = multi.eval_batch(X, Y)
        for i in range(len(X)):
            assert _same_bits(np.array(multi(X[i], Y[i])), images[i])
            assert _same_bits(multi.eval_batch(X[i:i + 2], Y[i:i + 2]), images[i:i + 2])
    fn = ExpressionCoupledMap(["x / y"])
    assert fn(np.array([-1.0]), np.array([-0.0]))[0] == np.inf
    assert np.isnan(fn(np.array([0.0]), np.array([0.0]))[0])


def _row_values(kernel, args):
    """The kernel's m * d values at one row: on_floats, or where a Python float
    divisor is zero, the same function on np.float64 scalars (numpy's inf or NaN)."""
    try:
        return kernel.on_floats(args)
    except ZeroDivisionError:
        return kernel.fused(*map(np.float64, [*args, *kernel.floats]))


def test_numpy_path_matches_on_floats_across_row_blocks():
    # eval_batch runs the kernel on blocks of ``rows`` rows.  A batch of n =
    # 1, rows - 1, rows, rows + 1 or 2 rows + 3 rows gives each row the bits
    # of on_floats at that row (a NaN's sign aside), for m * d = 1, 2, 16
    # and 96: every row next to a block edge or an end, and a seeded sample
    # of the others, of the largest batch, and the smaller batches are its
    # first rows.  Components: affine, a constant, a constant-only zero
    # divisor (inf, not ZeroDivisionError), x / (x - x) and overflow to inf.
    rng = np.random.default_rng(3501)
    affine, overflow = "0.5 * x{i} - 0.25 * y{j}", "x{i} * 1e308 * 10 - y{j}"
    cases = (((1, 1), ["1 / 0"]),
             ((2, 1), ["x{i} / (x{i} - x{i})", "2.5"]),
             ((8, 2), [affine, "2.5", "1 / 0", "x{i} / (x{i} - x{i})", overflow]),
             ((32, 3), [affine, "2.5", overflow]))
    seen = set()
    for (m, d), pool in cases:
        points = [[pool[(p * d + i) % len(pool)].format(i=i + 1, j=(i + 1) % d + 1) for i in range(d)]
                  for p in range(m)]
        multi = ExpressionMultiMap(points, dimension=d)
        rows = multi._kernel.rows
        N = 2 * rows + 3
        X, Y = (rng.normal(size=(N, d)) * 10.0 ** rng.integers(-310, 3, size=(N, d)) for _ in "xy")
        X[rng.random((N, d)) < 0.05] = 0.0
        check = sorted({*range(3), *range(rows - 3, rows + 3), *range(2 * rows - 3, N),
                        *rng.integers(0, N, 200).tolist()})
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = np.array([_row_values(multi._kernel, X[i].tolist() + Y[i].tolist()) for i in check])
            full = multi.eval_batch(X, Y)
            assert full.shape == (N, m, d) and _same_bits(full.reshape(N, m * d)[check], want), (m, d)
            for n in (1, rows - 1, rows, rows + 1):
                assert _same_bits(multi.eval_batch(X[:n], Y[:n]), full[:n]), (m, d, n)
        seen.update(kind for kind, test in (("inf", np.isinf), ("nan", np.isnan)) if test(want).any())
    assert seen == {"inf", "nan"}


def test_fused_point_function_is_bitwise_each_component():
    # on_floats is one function of every component; it gives each
    # component's own value bit for bit (a NaN's sign aside), and raises
    # ZeroDivisionError exactly where some component does.  __call__ then
    # gives numpy's inf or NaN.
    rng = np.random.default_rng(604)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                1e308, -1.0, 2.5]
    raised = returned = 0
    for _ in range(150):
        m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        names = [f"{v}{i}" for v in "xy" for i in range(1, d + 1)]
        # mixed forms, repeated sources and constant-only components
        pool = [_random_form(rng, names) for _ in range(3)] + ["{}", "{} / {}", "x1 / {}"]
        sources = [f.format(*(_number(rng) for _ in range(f.count("{}")))) for f in pool]
        points = [[str(rng.choice(sources)) for _ in range(d)] for _ in range(m)]
        multi = ExpressionMultiMap(points, dimension=d)
        components = [c for point in multi.points for c in point]
        for _ in range(8):
            args = [float(v) for v in rng.choice(specials, size=2 * d)] if rng.random() < 0.5 else \
                [float(v) for v in rng.normal(scale=10.0 ** rng.integers(-300, 300), size=2 * d)]
            try:
                want = [c.fn(*args, *c.floats) for c in components]
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    multi._kernel.on_floats(args)
                x, y = np.array(args[:d]), np.array(args[d:])
                with np.errstate(over="ignore"):
                    batch = multi.eval_batch(x[None], y[None])[0]
                    assert _same_bits(np.array(multi(x, y)), batch), (points, args)
                raised += 1
                continue
            got = multi._kernel.on_floats(args)
            assert type(got) is list and all(type(v) is float for v in got)
            # any NaN matches any NaN: once CPython specializes a float
            # product, it may take the other operand's NaN, sign and all
            assert _same_bits(got, want), (points, args)
            returned += 1
    assert raised > 50 and returned > 500


@pytest.mark.parametrize("source, body", [
    ("x + y + 1", "x1 + y1 + c0"),
    ("x + (y + 1)", "x1 + (y1 + c0)"),
    ("x - (y - 1)", "x1 - (y1 - c0)"),
    ("x / (y / 2)", "x1 / (y1 / c0)"),
    ("2 * 3 / x", "c0 * c1 / x1"),
    ("(x + y) * 2", "(x1 + y1) * c0"),
    ("x + y * 2", "x1 + y1 * c0"),
    ("((x)) * -(y - 1)", "x1 * -(y1 - c0)"),
    ("--x", "--x1"),
    ("-(-(x))", "--x1"),
])
def test_generated_text_keeps_the_operations_in_order(source, body):
    compiled = compile_expression(source)
    params = ", ".join(["x1", "y1", *(f"c{i}" for i in range(len(compiled.numbers)))])
    assert compiled.form == f"lambda {params}: {body}"


def test_forms_share_one_compiled_function():
    a, b = (ExpressionCoupledMap([src]).components[0] for src in ("2 * x + 1", "0.5 * x1 + 7e3"))
    assert a.form == b.form == "lambda x1, y1, c0, c1: c0 * x1 + c1"
    assert a.fn is b.fn
    assert a.floats == (2.0, 1.0) and b.floats == (0.5, 7000.0)
    assert all(type(v) is float for v in a.floats)
    c = compile_expression("x1 * x2", dimension=2)
    assert c.form == "lambda x1, x2, y1, y2: x1 * x2" and c.fn is not a.fn


def test_compile_expression_is_once_per_source_and_dimension():
    a = compile_expression("0.5 * x + 1.25")
    assert compile_expression("0.5 * x + 1.25", np.int64(1)) is a
    assert compile_expression("0.5 * x1 + 1.25") is not a  # another source
    assert compile_expression("x1 + y2", 2) is not compile_expression("x1 + y2", 3)
    # errors are never cached: each call raises again, at the same position
    for source, position in ((42, None), ("x ^ 2", 2), ("2 +", 3), ("z + 1", 0)):
        seen = []
        for _ in range(3):
            with pytest.raises(ExpressionError) as err:
                compile_expression(source)
            seen.append((str(err.value), err.value.position))
        assert seen == [seen[0]] * 3 and seen[0][1] == position, source


@pytest.mark.parametrize("source", ["__import__", "__import__('os')", "x1.real", "(lambda: 0)",
                                    "x if y else 1", "x ** 2", "x; y"])
def test_only_grammar_names_reach_the_generator(source):
    with pytest.raises(ExpressionError):
        compile_expression(source)


def test_compiled_expression_on_a_numpy_env():
    # only the variables used, numpy values in and out, no warning
    out = compile_expression("x / y")({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 0.0])})
    assert isinstance(out, np.ndarray) and np.isinf(out[0]) and np.isnan(out[1])
    value = compile_expression("x2 * 2 - y1", dimension=2)({"x2": np.float64(3.0), "y1": np.float64(1.0)})
    assert type(value) is np.float64 and value == 5.0
    assert compile_expression("x1 - y")({"x1": np.float64(1.0), "y": np.float64(0.5)}) == 0.5


def test_nesting_limit():
    # 100 levels (each operator and each pair of parentheses is one) evaluate
    # as the plain left-to-right arithmetic; one more level is an
    # ExpressionError at the operator or parenthesis whose level passes it.
    x, y = np.float64(0.7), np.float64(-1.3)
    chain = " + ".join(f"x / {k}" for k in range(2, 102))
    want_chain = x / np.float64(2)
    for k in range(3, 102):
        want_chain = want_chain + x / np.float64(k)
    nested, want_nested = "y", y
    for level in range(50):
        nested = f"x - ({nested})" if level % 2 else f"y / ({nested})"
        want_nested = x - want_nested if level % 2 else y / want_nested
    cases = [(chain, want_chain), (nested, want_nested), ("(" * 99 + "x + y" + ")" * 99, x + y),
             ("-" * 100 + "x", x), ("-" * 99 + "x", -x)]
    X, Y = np.full((12, 1), x), np.full((12, 1), y)
    for source, want in cases:
        fn = ExpressionCoupledMap([source])
        assert fn(x, y).tobytes() == np.array([want]).tobytes(), source[:40]
        assert fn.eval_batch(X, Y).tobytes() == np.full((12, 1), want).tobytes(), source[:40]
    too_deep = [(chain + " + x", len(chain) + 1), ("(" * 100 + "x + y" + ")" * 100, 0), ("(" * 101 + "x" + ")" * 101, 100),
                ("-" * 101 + "x", 100), ("x - (" + nested + ")", 4)]
    for source, position in too_deep:
        with pytest.raises(ExpressionError, match="nests more than 100 levels deep") as err:
            compile_expression(source)
        assert err.value.position == position, source[:40]
