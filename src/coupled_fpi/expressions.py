"""Arithmetic expressions for map definitions in spec files.

Grammar (plain infix arithmetic, nothing else):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | VARIABLE | '(' expr ')'

Variables name the coupled map's arguments componentwise: ``x`` and
``y`` in dimension 1 (``x1``/``y1`` work too), ``x1..xd`` and ``y1..yd``
in dimension d.  Numbers are decimal literals with optional exponent.
An expression nests at most ``_MAX_DEPTH`` levels deep; each operator
and each pair of parentheses is one level.

Each expression becomes the text of one Python lambda over the arguments
``x1..xd, y1..yd`` and one parameter ``c<i>`` per number, with the same
operations in the same order.  That text is compiled once per process and
shared by every expression of the same form (equal up to its numbers).
The one function runs on Python floats (a point, or a few rows), on numpy
columns (a batch), and with ``(g, 1)`` number columns on g components of
one form at once.
"""

from __future__ import annotations

import functools
import re
from typing import Callable

import numpy as np

from .errors import ExpressionError
from .spaces import as_point

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad_at = len(text) - len(rest)
            raise ExpressionError(f"unexpected character {rest[0]!r}", bad_at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# Deepest nesting an expression may have.  A deeper one would overflow the
# parser's recursion, or Python's compiler on the generated text.
_MAX_DEPTH = 100


def _above(height: int, pos: int) -> int:
    """The height of a node over a subtree of *height*, at most ``_MAX_DEPTH``."""
    if height >= _MAX_DEPTH:
        raise ExpressionError(f"expression nests more than {_MAX_DEPTH} levels deep", pos)
    return height + 1


class _Parser:
    """Recursive descent; each rule returns its tree and the tree's height."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.depth = 0  # parentheses and unary minus open at the current token

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        kind, _, pos = self.peek()
        if kind == "eof":
            raise ExpressionError("expression is empty", pos)
        node, _ = self.chain()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ExpressionError(f"unexpected {value!r} after expression", pos)
        return node

    def chain(self, ops: str = "+-"):
        """expr (*ops* "+-") or term (*ops* "*/"): operands joined left to right."""
        node, height = self.chain("*/") if ops == "+-" else self.factor()
        while True:
            kind, value, pos = self.peek()
            if not (kind == "op" and value in ops):
                return node, height
            self.take()
            right, right_height = self.chain("*/") if ops == "+-" else self.factor()
            node, height = (value, node, right), _above(max(height, right_height), pos)

    def nested(self, parse, pos: int):
        """*parse* one level down; too deep raises before the recursion does."""
        self.depth = _above(self.depth, pos)
        node, height = parse()
        self.depth -= 1
        return node, _above(height, pos)

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            node, height = self.nested(self.factor, pos)
            return ("neg", node), height
        return self.atom()

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return ("num", np.float64(value)), 0
        if kind == "ident":
            if value not in self.variables:
                raise ExpressionError(
                    f"unknown variable {value!r}; expected one of {', '.join(self.variables)}",
                    pos,
                )
            return ("var", value), 0
        if kind == "op" and value == "(":
            inner = self.nested(self.chain, pos)
            kind, value, pos = self.take()
            if not (kind == "op" and value == ")"):
                raise ExpressionError("expected ')'", pos)
            return inner
        if kind == "eof":
            raise ExpressionError("unexpected end of expression", pos)
        raise ExpressionError(f"unexpected {value!r}", pos)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _source(node, numbers: list) -> str:
    """Python text of the tree *node*: the same operations in the same order,
    parenthesized only where precedence or left association needs it.  Each
    number is appended to *numbers* and named ``c<i>`` by its index there;
    ``x`` and ``y`` become ``x1`` and ``y1``."""
    op = node[0]
    if op == "num":
        numbers.append(node[1])
        return f"c{len(numbers) - 1}"
    if op == "var":
        return {"x": "x1", "y": "y1"}.get(node[1], node[1])
    if op == "neg":
        inner = _source(node[1], numbers)
        return f"-({inner})" if node[1][0] in _PRECEDENCE else f"-{inner}"
    left, right = _source(node[1], numbers), _source(node[2], numbers)
    if _PRECEDENCE.get(node[1][0], 3) < _PRECEDENCE[op]:
        left = f"({left})"
    if _PRECEDENCE.get(node[2][0], 3) <= _PRECEDENCE[op]:
        right = f"({right})"
    return f"{left} {op} {right}"


@functools.lru_cache(maxsize=1024)
def _compiled(text: str) -> Callable:
    """The function the lambda *text* defines, compiled once per text."""
    return eval(compile(text, "<expression>", "eval"), {"__builtins__": {}})


def _arguments(dimension: int) -> tuple[str, ...]:
    """The point arguments of every compiled function, in order."""
    return tuple(f"{v}{i}" for v in "xy" for i in range(1, dimension + 1))


def _variable_names(dimension: int) -> tuple[str, ...]:
    return _arguments(dimension) + (("x", "y") if dimension == 1 else ())


class CompiledExpression:
    """One parsed expression: a function of ``x1..xd, y1..yd`` and of its
    numbers ``c0, c1, ...``, shared by every expression of its form."""

    def __init__(self, source: str, dimension: int):
        self.source = source
        self.dimension = dimension
        numbers: list = []
        body = _source(_Parser(source, _variable_names(dimension)).parse(), numbers)
        params = [*_arguments(dimension), *(f"c{i}" for i in range(len(numbers)))]
        self.form = f"lambda {', '.join(params)}: {body}"
        self.fn = _compiled(self.form)
        self.numbers = tuple(numbers)  # np.float64, for numpy arguments
        self.floats = tuple(map(float, numbers))  # the same values, for Python floats

    def __call__(self, env: dict) -> np.float64:
        """The value on *env*, numpy values by variable name; it needs only
        the variables used, and in dimension 1 ``x``/``y`` stand for ``x1``/``y1``."""
        if self.dimension == 1:
            env = {"x1": env.get("x"), "y1": env.get("y"), **env}
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.fn(*map(env.get, _arguments(self.dimension)), *self.numbers)

    def __repr__(self) -> str:
        return f"CompiledExpression({self.source!r})"


def compile_expression(source: str, dimension: int = 1) -> CompiledExpression:
    """Parse and compile *source* for maps of the given dimension.

    Raises:
        ExpressionError: on any lexical, syntactic or unknown-variable
            problem, or nesting past ``_MAX_DEPTH``, with the character
            position.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expression must be a string, got {type(source).__name__}")
    return CompiledExpression(source, dimension)


# Values per (g, rows) temporary: past glibc's 128 KiB mmap threshold every call faults them in.
_BLOCK_VALUES = 12288

# Up to this many rows, and values in all, go row by row on Python floats.
# There they beat numpy's fixed cost per call; measured at n = 1..16 rows for
# m * d = 1..16, the crossover lies at 8 rows when m * d <= 5, at 2-3 rows
# when m * d = 16.
_POINT_ROWS, _POINT_VALUES = 8, 32


class _PointKernel:
    """(n, m, d) values of m point maps, given by their compiled components,
    on (n, d) rows.  A few rows (``_POINT_ROWS``, ``_POINT_VALUES``) run on
    Python floats, and a division by zero hands them to numpy, which gives
    its inf or NaN.  On numpy, components of one form run as one (g, rows)
    expression with (g, 1) number columns and go out in one indexed write;
    a component alone in its form writes its own column.  Both paths do the
    same IEEE operations in the same order, so each value has the same bits
    (a NaN's sign and payload aside, which numpy itself varies by array
    position).
    """

    def __init__(self, points, dimension: int):
        self.shape = (len(points), dimension)
        self.point = [(c.fn, c.floats) for components in points for c in components]
        forms: dict = {}
        for j, components in enumerate(points):
            for i, c in enumerate(components):
                forms.setdefault(c.form, []).append((j, i, c))
        self.single, self.stacked, flat = [], [], []
        for members in forms.values():
            js, cs, compiled = zip(*members)
            fn = compiled[0].fn
            if len(members) == 1:
                self.single.append((js[0], cs[0], fn, compiled[0].numbers))
            else:
                columns = [np.array([[c.numbers[k]] for c in compiled])
                           for k in range(len(compiled[0].numbers))]
                self.stacked.append((len(flat), len(flat) + len(members), fn, columns))
                flat += [j * dimension + i for j, i in zip(js, cs)]
        self.flat = np.array(flat, dtype=np.intp)
        self.rows = _BLOCK_VALUES // max(map(len, forms.values()))

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        (m, d), n = self.shape, len(X)
        X = np.asarray(X, dtype=np.float64).reshape(n, d)
        Y = np.asarray(Y, dtype=np.float64).reshape(len(Y), d)
        if n <= _POINT_ROWS and n * m * d <= _POINT_VALUES:
            try:
                rows = [self.on_floats(x + y) for x, y in zip(X.tolist(), Y.tolist())]
                return np.array(rows).reshape(n, m, d)
            except ZeroDivisionError:
                pass
        return self.on_arrays(X, Y)

    def on_floats(self, args: list) -> list:
        """The m * d values, row-major, at one row's Python floats
        ``x1..xd, y1..yd``.  Raises ZeroDivisionError on a zero divisor."""
        return [fn(*args, *numbers) for fn, numbers in self.point]

    def on_arrays(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The (n, m, d) values on numpy columns of (n, d) float64 rows."""
        (m, d), n = self.shape, len(X)
        out = np.empty((n, m, d))
        with np.errstate(divide="ignore", invalid="ignore"):
            for r in range(0, n, self.rows):
                block = slice(r, r + self.rows)
                args = [*X[block].T, *Y[block].T]
                for j, i, fn, numbers in self.single:
                    out[block, j, i] = fn(*args, *numbers)  # a constant broadcasts
                if self.stacked:
                    buf = np.empty((len(self.flat), min(self.rows, n - r)))
                    for a, b, fn, columns in self.stacked:
                        buf[a:b] = fn(*args, *columns)
                    out.reshape(n, -1)[block, self.flat] = buf.T
        return out


def _components(expressions, dimension: int) -> tuple:
    """The d compiled components of one point map."""
    if isinstance(expressions, str):
        expressions = [expressions]
    if len(expressions) != dimension:
        raise ExpressionError(f"need {dimension} component expression(s), got {len(expressions)}")
    return tuple(compile_expression(src, dimension) for src in expressions)


class ExpressionCoupledMap:
    """Single-valued coupled map from componentwise expressions.

    One expression per output component.  A point runs on Python floats
    and a batch on numpy columns, through the same compiled functions, so
    both give the same floats.
    """

    def __init__(self, expressions, dimension: int = 1):
        self.components = _components(expressions, dimension)
        self.dimension = dimension
        self._kernel = _PointKernel((self.components,), dimension)

    def __call__(self, x, y) -> np.ndarray:
        x = as_point(x, self.dimension)
        y = as_point(y, self.dimension)
        try:
            return np.array(self._kernel.on_floats(x.tolist() + y.tolist()))
        except ZeroDivisionError:
            return self._kernel.on_arrays(x[None], y[None])[0, 0]

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._kernel(X, Y)[:, 0]

    def __repr__(self) -> str:
        inner = ", ".join(c.source for c in self.components)
        return f"ExpressionCoupledMap([{inner}])"


class ExpressionMultiMap:
    """Multivalued coupled map: a list of expression-defined image points.

    ``eval_batch`` fills an (n, m, d) image array with one kernel for all
    m points, and ``__call__`` reads row 0 of it; both are bitwise equal to
    each point's ``ExpressionCoupledMap`` called on one point.
    """

    def __init__(self, point_expressions, dimension: int = 1):
        if not point_expressions:
            raise ExpressionError("a multivalued map needs at least one image expression")
        self.points = tuple(_components(src, dimension) for src in point_expressions)
        self.dimension = dimension
        self._kernel = _PointKernel(self.points, dimension)

    def __call__(self, x, y):
        x = as_point(x, self.dimension)
        y = as_point(y, self.dimension)
        return list(self._kernel(x[None], y[None])[0])

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._kernel(X, Y)

    def __repr__(self) -> str:
        return f"ExpressionMultiMap({len(self.points)} points)"
