"""Coupled map wrappers.

A single-valued coupled map is any callable ``f(x, y) -> point``; a
multivalued one returns a finite point set.  Plain lambdas work
everywhere.  The wrappers here add a vectorized ``eval_batch`` (used by
the sampled checkers when present) and the singleton adapter that runs
a single-valued map through the multivalued machinery.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .finite_sets import FiniteSet
from .spaces import PointLike, _check_number


class LinearCoupledMap:
    """f(x, y) = a*x + b*y componentwise, scalar coefficients."""

    def __init__(self, a: float, b: float):
        self.a = _check_number(a, "a")
        self.b = _check_number(b, "b")
        self.canonical = f"a={self.a!r} b={self.b!r}"

    def __call__(self, x: PointLike, y: PointLike):
        return self.a * np.asarray(x, dtype=np.float64) + self.b * np.asarray(
            y, dtype=np.float64
        )

    def eval_batch(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)
        if X.shape != Y.shape:
            raise InvalidInputError(f"expected X and Y of one shape, got {X.shape} and {Y.shape}")
        return self.a * X + self.b * Y

    def on_floats(self, args: list) -> list:
        """``__call__`` at x1..xd, y1..yd: Python floats for one pair, or float64 columns for the probe."""
        d = len(args) // 2
        return [self.a * x + self.b * y for x, y in zip(args[:d], args[d:])]

    def __repr__(self) -> str:
        return f"LinearCoupledMap(a={self.a!r}, b={self.b!r})"


class SingletonMultiMap:
    """Wrap a single-valued coupled map as a one-point multivalued map."""

    def __init__(self, fn: Callable):
        if not callable(fn):
            raise InvalidInputError("wrapped map must be callable")
        self.fn = fn

    def __call__(self, x: PointLike, y: PointLike) -> FiniteSet:
        return FiniteSet([self.fn(x, y)])

    def __repr__(self) -> str:
        return f"SingletonMultiMap({self.fn!r})"
