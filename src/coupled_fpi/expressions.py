"""Arithmetic expressions for map definitions in spec files.

Grammar (plain infix arithmetic, nothing else):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | VARIABLE | '(' expr ')'

Variables name the coupled map's arguments componentwise: ``x`` and
``y`` in dimension 1 (``x1``/``y1`` work too), ``x1..xd`` and ``y1..yd``
in dimension d.  Numbers are decimal literals with optional exponent.

Expressions compile to closures over an environment of numpy values, so
one compiled form serves scalar evaluation and batch (column-array)
evaluation identically.
"""

from __future__ import annotations

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


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables

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
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ExpressionError(f"unexpected {value!r} after expression", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = (value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = (value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return ("num", np.float64(value))
        if kind == "ident":
            if value not in self.variables:
                raise ExpressionError(
                    f"unknown variable {value!r}; expected one of {', '.join(self.variables)}",
                    pos,
                )
            return ("var", value)
        if kind == "op" and value == "(":
            node = self.expr()
            kind, value, pos = self.take()
            if not (kind == "op" and value == ")"):
                raise ExpressionError("expected ')'", pos)
            return node
        if kind == "eof":
            raise ExpressionError("unexpected end of expression", pos)
        raise ExpressionError(f"unexpected {value!r}", pos)


def _build(nodes) -> Callable:
    """One closure for trees equal up to their numbers: with g > 1 trees each
    number is the (g, 1) column of theirs, and the g values come at once."""
    op = nodes[0][0]
    if op == "num":
        c = nodes[0][1] if len(nodes) == 1 else np.array([[node[1]] for node in nodes])
        return lambda env: c
    if op == "var":
        name = nodes[0][1]
        return lambda env: env[name]
    if op == "neg":
        f = _build([node[1] for node in nodes])
        return lambda env: -f(env)
    left = _build([node[1] for node in nodes])
    right = _build([node[2] for node in nodes])
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    return lambda env: left(env) / right(env)


def _variable_names(dimension: int) -> tuple[str, ...]:
    names = []
    for i in range(1, dimension + 1):
        names.append(f"x{i}")
        names.append(f"y{i}")
    if dimension == 1:
        names.extend(["x", "y"])
    return tuple(names)


class CompiledExpression:
    """One parsed expression, callable on an environment of numpy values."""

    def __init__(self, source: str, dimension: int):
        self.source = source
        self.dimension = dimension
        self.tree = _Parser(source, _variable_names(dimension)).parse()
        self._fn = _build([self.tree])

    def __call__(self, env: dict) -> np.float64:
        return self._fn(env)

    def __repr__(self) -> str:
        return f"CompiledExpression({self.source!r})"


def compile_expression(source: str, dimension: int = 1) -> CompiledExpression:
    """Parse and compile *source* for maps of the given dimension.

    Raises:
        ExpressionError: on any lexical, syntactic or unknown-variable
            problem, with the character position.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expression must be a string, got {type(source).__name__}")
    return CompiledExpression(source, dimension)


def _env(xs, ys, dimension: int) -> dict:
    """Variables bound to the coordinates of two points, or of two row arrays as X.T, Y.T."""
    env = {}
    for i, (xi, yi) in enumerate(zip(xs, ys), 1):
        env[f"x{i}"], env[f"y{i}"] = xi, yi
    if dimension == 1:
        env["x"], env["y"] = env["x1"], env["y1"]
    return env


def _blank(node):
    """*node* with its numbers blanked out: equal for trees equal up to their numbers."""
    if node[0] == "num":
        return ("num",)
    if node[0] == "var":
        return node
    return (node[0], *map(_blank, node[1:]))


# Values per (g, rows) temporary: past glibc's 128 KiB mmap threshold every call faults them in.
_BLOCK_VALUES = 12288


class _PointKernel:
    """(n, m, d) values of m point maps, given by their compiled components,
    on (n, d) rows.  Components equal up to their numbers (same tree, same
    variables) run as one (g, rows) expression with (g, 1) number columns
    and go out in one indexed write; a component alone in its form writes
    its own column.  Each row is bitwise the per-point arithmetic's value.
    """

    def __init__(self, points, dimension: int):
        self.shape = (len(points), dimension)
        forms: dict = {}
        for j, components in enumerate(points):
            for i, c in enumerate(components):
                forms.setdefault(_blank(c.tree), []).append((j, i, c))
        self.single, self.stacked, flat = [], [], []
        for members in forms.values():
            js, cs, compiled = zip(*members)
            if len(members) == 1:
                self.single.append((js[0], cs[0], compiled[0]._fn))
            else:
                f = _build([c.tree for c in compiled])
                self.stacked.append((len(flat), len(flat) + len(members), f))
                flat += [j * dimension + i for j, i in zip(js, cs)]
        self.flat = np.array(flat, dtype=np.intp)
        self.rows = _BLOCK_VALUES // max(map(len, forms.values()))

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        (m, d), n = self.shape, len(X)
        X = np.asarray(X, dtype=np.float64).reshape(n, d)
        Y = np.asarray(Y, dtype=np.float64).reshape(len(Y), d)
        out = np.empty((n, m, d))
        with np.errstate(divide="ignore", invalid="ignore"):
            for r in range(0, n, self.rows):
                block = slice(r, r + self.rows)
                env = _env(X[block].T, Y[block].T, d)
                for j, i, f in self.single:
                    out[block, j, i] = f(env)  # a constant broadcasts
                if self.stacked:
                    buf = np.empty((len(self.flat), min(self.rows, n - r)))
                    for a, b, f in self.stacked:
                        buf[a:b] = f(env)
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

    One expression per output component.  Batch evaluation reuses the
    same compiled closures on column arrays, so scalar and batch paths
    produce identical floats.
    """

    def __init__(self, expressions, dimension: int = 1):
        self.components = _components(expressions, dimension)
        self.dimension = dimension
        self._kernel = _PointKernel((self.components,), dimension)

    def __call__(self, x, y) -> np.ndarray:
        x = as_point(x, self.dimension)
        y = as_point(y, self.dimension)
        env = _env(x, y, self.dimension)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.array([c(env) for c in self.components], dtype=np.float64)

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
