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
operations in the same order.  Each source is parsed once per process
and dimension, and that text is compiled once per process and shared by
every expression of the same form (equal up to its numbers); it serves
``CompiledExpression.__call__``.  A map runs through one lambda that
lists the texts of all its components, their numbers renumbered after
each other: a point on Python floats, and a batch, the probe's too, on
float64 columns.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .errors import ExpressionError
from .spaces import _as_rows, _check_int, _compiled, as_point

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
    """Parse and compile *source* for maps of the given dimension, once per
    process: every call with the same source and dimension gives the same
    ``CompiledExpression``.

    Raises:
        ExpressionError: on any lexical, syntactic or unknown-variable
            problem, or nesting past ``_MAX_DEPTH``, with the character
            position.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expression must be a string, got {type(source).__name__}")
    return _compile(source, _check_int(dimension, "dimension", 1))


_compile = functools.lru_cache(maxsize=1024)(CompiledExpression)


# Rows per kernel block, the values of each numpy temporary: past glibc's 128 KiB mmap
# threshold every call faults them in.
_BLOCK_VALUES = 12288


class _PointKernel:
    """(n, m, d) values of m point maps, given by their compiled components,
    on (n, d) rows, through one function of every component's text in a
    list.  A single point (``at_point``) runs it on Python floats; rows,
    and a point that meets a zero divisor, run it on blocks of float64
    columns with its numbers as 0-d float64 arrays, where a zero divisor
    gives numpy's inf or NaN.  Both do the same IEEE operations in the same
    order, so each value has the same bits (a NaN's sign and payload aside,
    which numpy itself varies by array position).
    """

    def __init__(self, points, dimension: int):
        self.shape = (len(points), dimension)
        bodies, numbers = [], []
        for c in (c for components in points for c in components):
            body = c.form.partition(": ")[2]
            bodies.append(re.sub(r"c(\d+)", lambda n, k=len(numbers): f"c{int(n[1]) + k}", body))
            numbers += c.numbers
        params = [*_arguments(dimension), *(f"c{i}" for i in range(len(numbers)))]
        self.fused = _compiled(f"lambda {', '.join(params)}: [{', '.join(bodies)}]")
        self.numbers = tuple(map(np.array, numbers))  # 0-d float64 arrays, for numpy columns
        self.floats = tuple(map(float, numbers))  # the same values, for Python floats
        self.rows = _BLOCK_VALUES  # rows per block

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The (n, m, d) values on numpy columns of (n, d) rows.

        Raises:
            InvalidInputError: X or Y is not rows of d values, or they differ in length.
        """
        m, d = self.shape
        X, Y = _as_rows(X, Y, d)
        out = np.empty((m * d, len(X)))  # written by rows, returned transposed
        with np.errstate(divide="ignore", invalid="ignore"):
            for r in range(0, len(X), self.rows):
                block = slice(r, r + self.rows)
                for k, values in enumerate(self.fused(*X[block].T, *Y[block].T, *self.numbers)):
                    out[k, block] = values  # a constant broadcasts
        return out.T.reshape(len(X), m, d)

    def at_point(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The m * d values, row-major, at one pair of float64 points."""
        try:
            return np.array(self.on_floats(x.tolist() + y.tolist()))
        except ZeroDivisionError:
            return self(x[None], y[None]).reshape(-1)

    def on_floats(self, args: list) -> list:
        """The m * d values, row-major, at ``x1..xd, y1..yd``: Python floats for one
        pair, or float64 columns for the probe's batch, where a constant component
        stays a float.  Raises ZeroDivisionError on a zero divisor of floats."""
        return self.fused(*args, *self.floats)


def _components(expressions, dimension: int) -> tuple:
    """The d compiled components of one point map."""
    if isinstance(expressions, str):
        expressions = [expressions]
    if len(expressions) != _check_int(dimension, "dimension", 1):
        raise ExpressionError(f"need {dimension} component expression(s), got {len(expressions)}")
    return tuple(compile_expression(src, dimension) for src in expressions)


class ExpressionCoupledMap:
    """Single-valued coupled map from componentwise expressions.

    One expression per output component.  A point runs on Python floats
    and a batch on numpy columns, through the same compiled function, so
    both give the same floats.  ``canonical`` (the sources) labels the map.
    """

    def __init__(self, expressions, dimension: int = 1):
        self.components = _components(expressions, dimension)
        self.dimension = self.components[0].dimension  # the checked int
        self.canonical = repr([c.source for c in self.components])
        self._kernel = _PointKernel((self.components,), self.dimension)
        self.on_floats = self._kernel.on_floats  # one pair's floats, or the probe's columns

    def __call__(self, x, y) -> np.ndarray:
        x = as_point(x, self.dimension, copy=False)
        y = as_point(y, self.dimension, copy=False)
        return self._kernel.at_point(x, y)

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._kernel(X, Y)[:, 0]

    def __repr__(self) -> str:
        inner = ", ".join(c.source for c in self.components)
        return f"ExpressionCoupledMap([{inner}])"


class ExpressionMultiMap:
    """Multivalued coupled map: a list of expression-defined image points.

    ``eval_batch`` fills an (n, m, d) image array with one kernel for all
    m points, and ``__call__`` gives the m images of one point through the
    same point entry as ``ExpressionCoupledMap``; both are bitwise equal to
    each point's ``ExpressionCoupledMap`` called on one point.  ``on_floats``
    is the kernel's, for the solver's steps on Python floats.  ``canonical``
    (the sources) labels the map.
    """

    def __init__(self, point_expressions, dimension: int = 1):
        if not point_expressions:
            raise ExpressionError("a multivalued map needs at least one image expression")
        self.points = tuple(_components(src, dimension) for src in point_expressions)
        self.dimension = self.points[0][0].dimension  # the checked int
        self.canonical = repr([[c.source for c in point] for point in self.points])
        self._kernel = _PointKernel(self.points, self.dimension)
        self.on_floats = self._kernel.on_floats  # one pair's m * d floats

    def __call__(self, x, y):
        x = as_point(x, self.dimension, copy=False)
        y = as_point(y, self.dimension, copy=False)
        return list(self._kernel.at_point(x, y).reshape(self._kernel.shape))

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return self._kernel(X, Y)

    def __repr__(self) -> str:
        return f"ExpressionMultiMap({len(self.points)} points)"
