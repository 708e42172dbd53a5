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


def _build(node) -> Callable:
    op = node[0]
    if op == "num":
        c = node[1]
        return lambda env: c
    if op == "var":
        name = node[1]
        return lambda env: env[name]
    if op == "neg":
        f = _build(node[1])
        return lambda env: -f(env)
    left = _build(node[1])
    right = _build(node[2])
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
        self._fn = _build(_Parser(source, _variable_names(dimension)).parse())

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


def _env_from_points(x: np.ndarray, y: np.ndarray, dimension: int) -> dict:
    env = {}
    for i in range(dimension):
        env[f"x{i+1}"] = x[i]
        env[f"y{i+1}"] = y[i]
    if dimension == 1:
        env["x"] = x[0]
        env["y"] = y[0]
    return env


def _env_from_columns(X: np.ndarray, Y: np.ndarray, dimension: int) -> dict:
    env = {}
    for i in range(dimension):
        env[f"x{i+1}"] = X[:, i]
        env[f"y{i+1}"] = Y[:, i]
    if dimension == 1:
        env["x"] = X[:, 0]
        env["y"] = Y[:, 0]
    return env


class ExpressionCoupledMap:
    """Single-valued coupled map from componentwise expressions.

    One expression per output component.  Batch evaluation reuses the
    same compiled closures on column arrays, so scalar and batch paths
    produce identical floats.
    """

    def __init__(self, expressions, dimension: int = 1):
        if isinstance(expressions, str):
            expressions = [expressions]
        if len(expressions) != dimension:
            raise ExpressionError(
                f"need {dimension} component expression(s), got {len(expressions)}"
            )
        self.components = tuple(
            compile_expression(src, dimension) for src in expressions
        )
        self.dimension = dimension

    def __call__(self, x, y) -> np.ndarray:
        x = as_point(x, self.dimension)
        y = as_point(y, self.dimension)
        env = _env_from_points(x, y, self.dimension)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.array([c(env) for c in self.components], dtype=np.float64)

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64).reshape(len(X), self.dimension)
        Y = np.asarray(Y, dtype=np.float64).reshape(len(Y), self.dimension)
        env = _env_from_columns(X, Y, self.dimension)
        with np.errstate(divide="ignore", invalid="ignore"):
            cols = [np.broadcast_to(c(env), (len(X),)) for c in self.components]
        return np.column_stack(cols)

    def __repr__(self) -> str:
        inner = ", ".join(c.source for c in self.components)
        return f"ExpressionCoupledMap([{inner}])"


class ExpressionMultiMap:
    """Multivalued coupled map: a list of expression-defined image points.

    ``eval_batch`` stacks the point maps' batch values into an (n, m, d)
    image array, bitwise equal to calling the map row by row.
    """

    def __init__(self, point_expressions, dimension: int = 1):
        if not point_expressions:
            raise ExpressionError("a multivalued map needs at least one image expression")
        self.points = tuple(
            ExpressionCoupledMap(src, dimension) for src in point_expressions
        )
        self.dimension = dimension

    def __call__(self, x, y):
        return [p(x, y) for p in self.points]

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.stack([p.eval_batch(X, Y) for p in self.points], axis=1)

    def __repr__(self) -> str:
        return f"ExpressionMultiMap({len(self.points)} points)"
