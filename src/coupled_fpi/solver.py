"""Coupled Picard iteration with geometric error control.

A coupled fixed point of a map F of two variables is a pair (x, y) with
F(x, y) = x and F(y, x) = y (membership instead of equality in the
multivalued case).  The iteration

    x_{n+1} = F(x_n, y_n),    y_{n+1} = F(y_n, x_n)

starts from a seed pair whose first transition is a product-graph edge
(the theorems' seed condition).  Under the two-sided contraction bound
with constant k < 1 the summed step sizes decay geometrically,

    step_x(n) + step_y(n) <= k^n * D0,    D0 = d(x0,x1) + d(y0,y1),

which yields both the a priori tail estimate (:func:`tail_bound`) and
the a posteriori stopping rule used here:

    (k / (1 - k)) * (step_x + step_y) <= tol

guarantees the *next* pair lies within tol of the limit pair (summed
distance), by the triangle inequality over the geometric tail.  The
solver trusts the declared k; certifying it is the job of the checkers
(:mod:`coupled_fpi.checks`) and the preflight orchestration
(:mod:`coupled_fpi.certifier`).

:func:`uniqueness_probe` runs this iteration from many seeds at once, in
lockstep over an (s, d) batch, with the bound check and stopping rule of
the per-pair kernel.  It advances by blocks of ``_STEP_BLOCK`` steps and
checks a block's steps at once, so it makes up to ``_STEP_BLOCK - 1`` map
calls past the last seed's stop.  It records a missing seed edge itself and
hands every other failing seed to :func:`solve_coupled`, so each seed gets
the outcome :func:`solve_coupled` gives it; a raise inside a block hands
every seed of the block, also one that would have stopped before it.
A map with ``on_floats`` steps the batch through it on float64 columns,
unchecked, every other map through the validated ``checks._images``, the
reference; both give the same bits.
A NaN or infinite step size stops every solver with ``NonFiniteValueError``.

Where the map has ``on_floats`` and the metric and the graph a
``_row_rule``, each iterate is also held as its Python floats.  A step
whose four iterates are all finite takes its step sizes, ``diag`` and
edge flags from those float rules, and a single-valued step is
``on_floats`` on both sides (on a zero divisor, the map's ``__call__``).
Every other step (a non-finite iterate, a plain callable,
``CallbackSpace``, ``PredicateGraph``, ``FiniteGraph``, Euclidean from 8
coordinates, Chebyshev from 9) keeps the numpy bookkeeping, ``_dist`` and ``edge_mask``;
both give the same bits.

Multivalued maps iterate by edge-filtered nearest-point selection: the
next iterate is the image point nearest the current one among
edge-compatible candidates, ties resolved by image index.  A step runs
on Python floats (:func:`_float_step`) where the map has ``on_floats``
(an ``ExpressionMultiMap``) and the metric and the graph a ``_row_rule``;
each side then picks in one function compiled from their rule texts
(:func:`_picks`).  Any other step, and one that meets a zero divisor, a
non-finite image value or a side without a candidate, evaluates both
images as one (2, m, d) array, with a single ``eval_batch`` call when
the map has one and no finite set either way, and selects on that raw
array for both sides with one masked argmin, which raises the step's
error; both give the same bits.  Wrapping a single-valued map as a
one-point multivalued map reproduces the single-valued trace bitwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .checks import SLACK, Certificate, _finalize, _images, validate_k
from .errors import (
    HypothesisViolationError,
    InapplicableCheckError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    NonFiniteValueError,
    SeedEdgeError,
    SelectionFailureError,
)
from .expressions import ExpressionMultiMap
from .finite_sets import _point_rows, dist_to_set
# as_finite_set is not used here; perfbench/tracer.py patches it under this name.
from .finite_sets import as_finite_set  # noqa: F401
from .graphs import Digraph, product_edge, product_edge_mask
from .spaces import (MetricSpace, PointLike, _check_flag, _check_int, _check_number, _compiled,
                     _rename, as_point)


@dataclass(frozen=True)
class SolveConfig:
    """Iteration parameters.

    ``k`` is the declared contraction constant and enters the stopping
    rule, so a wrong k voids the tolerance guarantee; ``tol`` is the
    target summed distance to the limit pair.  ``check_bounds`` turns the
    geometric step bound into a runtime assertion; ``record_edges``
    records per-step edge flags (x_n -> x_{n+1} forward, y_{n+1} -> y_n
    reversed) without raising.
    """

    k: float
    tol: float = 1e-10
    max_iter: int = 1000
    check_bounds: bool = False
    record_edges: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", validate_k(self.k))
        object.__setattr__(self, "tol", _check_number(self.tol, "tol", positive=True))
        object.__setattr__(self, "max_iter", _check_int(self.max_iter, "max_iter", 1))
        for name in ("check_bounds", "record_edges"):
            object.__setattr__(self, name, _check_flag(getattr(self, name), name))


class TraceStep(NamedTuple):
    """One recorded transition (x_n, y_n) -> (x_{n+1}, y_{n+1}).

    ``bound`` is the theoretical value (k^n / 2) * D0; the proved
    inequality is on the sum: step_x + step_y <= 2 * bound.  ``diag`` is
    d(x_n, y_n).  Edge flags are None unless the solve recorded them.
    """

    n: int
    x: np.ndarray
    y: np.ndarray
    step_x: float
    step_y: float
    bound: float
    diag: float
    edge_ok_x: bool | None = None
    edge_ok_y: bool | None = None


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[TraceStep, ...]
    D0: float
    converged: bool
    residual: float


@dataclass(frozen=True)
class CoupledFixedPoint:
    x: np.ndarray
    y: np.ndarray
    is_diagonal: bool


def _check_bound_args(k: float, D0: float, n: int) -> None:
    validate_k(k)
    if not _check_number(D0, "D0") >= 0.0:
        raise InvalidParameterError(f"D0 must be nonnegative, got {D0!r}")
    _check_int(n, "n", 0)


def step_bound(k: float, D0: float, n: int) -> float:
    """Theoretical per-step bound (k^n / 2) * D0.

    Raises:
        InvalidParameterError: k outside (0,1), negative D0 or n.
    """
    _check_bound_args(k, D0, n)
    return (k ** n) * D0 / 2.0


def tail_bound(k: float, D0: float, n: int) -> float:
    """Geometric tail sum k^n * D0 / (2 (1 - k)).

    Bounds d(x_n, x*) and d(y_n, y*) individually, hence also the a
    priori iteration count needed for a given tolerance.
    """
    _check_bound_args(k, D0, n)
    return (k ** n) * D0 / (2.0 * (1.0 - k))


def _step_rule(cfg: SolveConfig, kn, total, D0):
    """Bound check and stopping rule of step n, shared by both kernels.

    *kn* is the Python float ``k ** n`` (a column of them for a block of
    steps), *total* step_x + step_y and *D0* the first summed step, as floats
    for one pair or as arrays for a batch of rows.  Returns the bound
    (k^n / 2) * D0, whether the step may stand (finite, and with
    ``check_bounds`` within 2 * bound + SLACK) and whether the stopping
    rule fires.
    """
    bound = kn * D0 / 2.0
    ok = abs(total) < math.inf
    if cfg.check_bounds:
        ok = ok & (total <= 2.0 * bound + SLACK)
    return bound, ok, cfg.k / (1.0 - cfg.k) * total <= cfg.tol


def _run_iteration(
    space: MetricSpace,
    graph: Digraph,
    cfg: SolveConfig,
    first: tuple,
    seed_edge: str,
    advance: Callable,
    residual: Callable,
    known=None,
    rules=None,
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """The Picard body both solvers share, from :func:`_first_pair`'s
    (x0, y0, x1, y1) *first*: ``SeedEdgeError(seed_edge)`` without their
    product edge, then *advance* maps each pair to the next and *residual*
    measures the last.  Everything recorded (steps, bounds, flags, stopping)
    is computed here, on iterates valid when made; *known*, the iterates
    ``(xs, ys)`` of an earlier run that gave *first*, stands in for
    *advance* as far as it reaches.  With :func:`_float_rules`' *rules*, a
    step whose four iterates have finite floats takes sizes, ``diag`` and edge
    flags from the float rules; ``advance(n, x, y, fx, fy)`` gets those floats
    (or None) and returns arrays or, from a float rule, lists.
    """
    def held(p):  # the iterate p, an array or a list of floats, as an array and its finite floats
        v = p if isinstance(p, list) else rules and p.tolist()
        return (np.array(p) if v is p else p), (v if v and abs(sum(v)) < math.inf else None)

    if not product_edge(graph, first[:2], first[2:]):
        raise SeedEdgeError(seed_edge)
    (xn, fx), (yn, fy), (xn1, fx1), (yn1, fy1) = map(held, first)
    xs, ys = known or ((), ())
    dist, (_, rule, edge) = space._dist, rules or (None,) * 3
    steps: list[TraceStep] = []
    for n in range(cfg.max_iter):  # max_iter >= 1, so step 0 sets D0
        if fx is None or fy is None or fx1 is None or fy1 is None:
            sx, sy, diag = dist(xn, xn1), dist(yn, yn1), dist(xn, yn)
            ex, ey = graph.edge_mask(np.array([xn, yn1]), np.array([xn1, yn])).tolist() \
                if cfg.record_edges else (None, None)
        else:
            sx, sy, diag = rule(fx, fx1), rule(fy, fy1), rule(fx, fy)
            ex, ey = (edge(fx, fx1), edge(fy1, fy)) if cfg.record_edges else (None, None)
        if n == 0:
            D0 = sx + sy
        bound, ok, done = _step_rule(cfg, cfg.k ** n, sx + sy, D0)
        step = TraceStep(n, xn, yn, sx, sy, bound, diag, ex, ey)
        steps.append(step)
        if not ok:
            if not abs(sx + sy) < math.inf:
                raise NonFiniteValueError(
                    f"step {n}: non-finite step size (step_x = {float(sx)!r}, step_y = {float(sy)!r})"
                )
            raise HypothesisViolationError(
                f"step {n}: step_x + step_y = {float(sx + sy)!r} "
                f"exceeds k^n * D0 = {float(2.0 * bound)!r}",
                step=step,
            )
        xn, yn, fx, fy = xn1, yn1, fx1, fy1
        if done:
            break
        if n + 1 < cfg.max_iter:
            pair = (xs[n + 2], ys[n + 2]) if n + 2 < len(xs) else advance(n + 1, xn, yn, fx, fy)
            (xn1, fx1), (yn1, fy1) = map(held, pair)
    r = residual(xn, yn)
    fp = CoupledFixedPoint(x=xn, y=yn, is_diagonal=bool(space.distance(xn, yn) <= cfg.tol))
    return fp, IterationTrace(tuple(steps), D0, bool(done), r)  # done: the last step stopped


def _float_rules(fn: Callable, space: MetricSpace, graph: Digraph):
    """The map's ``on_floats``, the metric's and the graph's ``_row_rule``, or None if one is."""
    rules = getattr(fn, "on_floats", None), space._row_rule, graph._row_rule
    return None if None in rules else rules


_SEED_EDGE = "seed condition fails: ((x0,y0),(F(x0,y0),F(y0,x0))) is not a product edge"


def _first_pair(fn: Callable, space: MetricSpace, x0: PointLike, y0: PointLike,
                x1: PointLike | None = None, y1: PointLike | None = None, known=None):
    """The seed (x0, y0) and the first pair (x1, y1) as points, for the seed
    condition: with no x1 the computed (F(x0, y0), F(y0, x0)), otherwise the
    declared x1 and y1, each a point of its image, x1 first.  A point of an
    image is within SLACK of it, or bitwise one of its points (an infinite
    point has NaN distance to itself); a NaN distance to an image without
    it is no membership.  *known*, the iterates ``(xs, ys)`` of an earlier
    call, stands in where its x_0, y_0 (and x_1, y_1) are bitwise these.

    Raises:
        InvalidSeedError: a declared iterate is not a point of its image.
        InvalidInputError: *known* starts from another seed or first pair.
    """
    d = space.dimension
    x0, y0 = as_point(x0, d), as_point(y0, d)
    if known:
        (a0, a1), (b0, b1) = ([as_point(p, d, copy=False) for p in side[:2]] for side in known)
        given = (x0, y0) if x1 is None else (x0, y0, as_point(x1, d), as_point(y1, d))
        if any(p.tobytes() != q.tobytes() for p, q in zip(given, (a0, b0, a1, b1))):
            raise InvalidInputError("known iterates do not start from this seed and first pair")
        return a0, b0, a1, b1
    if x1 is None:
        return x0, y0, as_point(fn(x0, y0), d), as_point(fn(y0, x0), d)
    x1, y1 = as_point(x1, d), as_point(y1, d)
    for p, a, b, message in ((x1, x0, y0, "x1 is not a point of F(x0, y0)"),
                             (y1, y0, x0, "y1 is not a point of F(y0, x0)")):
        rows = _point_rows(fn(a, b), d)
        if not (dist_to_set(space, p, rows) <= SLACK
                or any(r.tobytes() == p.tobytes() for r in rows)):
            raise InvalidSeedError(message)
    return x0, y0, x1, y1


def solve_coupled(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    x0: PointLike,
    y0: PointLike,
    cfg: SolveConfig,
    *,
    known=None,
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """Iterate a single-valued coupled map to its coupled fixed point.

    The seed condition requires the product edge from (x0, y0) to the
    first computed pair (F(x0,y0), F(y0,x0)).  *known* holds the iterates
    ``(xs, ys)`` of an earlier run from this seed, x_1 too, which are taken
    instead of computed; every check and record is made as without them.

    Returns the final pair and the full trace.  Non-convergence at
    max_iter is reported through ``trace.converged``, not an exception.

    Raises:
        SeedEdgeError: seed condition fails.
        NonFiniteValueError: some step size is NaN or infinite.
        InvalidInputError: *known* does not start from (x0, y0).
        HypothesisViolationError: with ``check_bounds``, a step exceeded
            the geometric bound (evidence the contraction constant is
            wrong for this instance).
    """
    d = space.dimension
    rules = _float_rules(fn, space, graph)

    def advance(n, xn, yn, fx, fy):
        if fx is not None and fy is not None:  # finite floats, and the map has on_floats
            try:
                return rules[0](fx + fy), rules[0](fy + fx)
            except ZeroDivisionError:  # fn gives numpy's inf or NaN
                pass
        return as_point(fn(xn, yn), d), as_point(fn(yn, xn), d)

    def residual(x, y):
        return (space.distance(as_point(fn(x, y), d), x)
                + space.distance(as_point(fn(y, x), d), y))

    return _run_iteration(space, graph, cfg, _first_pair(fn, space, x0, y0, known=known),
                          _SEED_EDGE, advance, residual, known, rules)


def _select_step(space, graph, images: np.ndarray, Z: np.ndarray, n: int):
    """Nearest edge-compatible point of each side's image, x side then y side.

    *images* is the (2, m, d) array [F(x_n, y_n); F(y_n, x_n)] and *Z*
    the pair [x_n; y_n].  The x-candidates b need the edge x_n -> b, the
    y-candidates b -> y_n.  NaN and inf distances are inadmissible; ties
    go to the lowest index, so a repeated point never wins over its first
    occurrence.
    """
    _, m, d = images.shape
    anchors = np.repeat(Z, m, axis=0)
    points = images.reshape(2 * m, d)
    ok = np.concatenate([graph.edge_mask(anchors[:m], points[:m]),
                         graph.edge_mask(points[m:], anchors[m:])])
    dist = space.distance_batch(anchors, points)
    dist = np.where(ok & (dist < np.inf), dist, np.inf).reshape(2, m)
    best = dist.argmin(axis=1)
    for side, name in enumerate("xy"):
        if not dist[side, best[side]] < np.inf:
            if not np.isfinite(images[side]).all(axis=1).any():
                raise NonFiniteValueError(f"step {n}: every point of the {name}-image is non-finite")
            raise SelectionFailureError(
                f"step {n}: no edge-compatible candidate in the {name}-image "
                "(evidence the multivalued monotonicity hypothesis fails here)"
            )
    return images[0, best[0]].copy(), images[1, best[1]].copy()


@functools.lru_cache(maxsize=256)
def _picks(gap: str, edge: str, m: int, d: int) -> tuple[Callable, Callable]:
    """The x and y sides' picks, compiled from the metric's and the graph's rule
    texts: on an anchor's d floats and m * d image values, the offset of the
    nearest point with the edge (anchor -> b on the x side, b -> anchor on the
    y side), the first of equals, or None if no point has the edge and a finite gap."""
    anchor = "a{}".format
    params = ", ".join([*map(anchor, range(d)), *(f"v{i}" for i in range(m * d))])

    def pick(forward: bool) -> Callable:
        gaps = []
        for j in range(0, m * d, d):
            point = (lambda i, j=j: f"v{j + i}")
            test = _rename(edge, anchor, point) if forward else _rename(edge, point, anchor)
            gaps.append(f"({_rename(gap, anchor, point)}) if ({test}) else inf")
        return _compiled(f"lambda {params}: "
                         f"g.index(b) * {d} if (b := min(g := [{', '.join(gaps)}])) < inf else None")

    return pick(True), pick(False)


def _float_step(image: Callable, space: MetricSpace, graph: Digraph):
    """:func:`_select_step` on the pair's two lists of finite Python floats, by
    the map's ``on_floats`` *image* and :func:`_picks`, as two lists.  The step
    gives None for :func:`_select_step` to take over on a zero divisor, a
    non-finite image value or a side without a candidate."""
    d, texts, picks = space.dimension, (space._row_text(), graph._row_text()), None

    def step(x, y):
        nonlocal picks
        try:
            vx, vy = image(x + y), image(y + x)
        except ZeroDivisionError:
            return None
        if not abs(sum(vx) + sum(vy)) < math.inf:  # a non-finite value, or a sum that overflowed
            return None
        pick_x, pick_y = picks or (picks := _picks(*texts, len(vx) // d, d))
        jx, jy = pick_x(*x, *vx), pick_y(*y, *vy)
        return None if jx is None or jy is None else (vx[jx:jx + d], vy[jy:jy + d])

    return step


def solve_coupled_multi(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    x0: PointLike,
    y0: PointLike,
    x1: PointLike,
    y1: PointLike,
    cfg: SolveConfig,
    *,
    known=None,
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """Iterate a multivalued coupled map by nearest-admissible selection.

    The caller supplies the first iterates x1 in F(x0,y0), y1 in
    F(y0,x0) (the theorems' existential seed); a point is a member within
    ``SLACK``, or bitwise one of the image's points.  Each later step
    picks, among image points b with the required edge (x_n -> b for the
    x-sequence, b -> y_n for the y-sequence), the one nearest the current
    iterate, breaking ties by image index.  A map with ``eval_batch`` is
    evaluated once per step for both sides.  *known* is as for
    :func:`solve_coupled`, from x1, y1.

    Raises:
        InvalidSeedError: x1/y1 not in the seed images.
        SeedEdgeError: the seed product edge fails.
        SelectionFailureError: some step has no admissible candidate.
        NonFiniteValueError: some step size is NaN or infinite, or every
            point of a step's image is.
        InvalidInputError: ``eval_batch`` returned a wrongly shaped array, or
            *known* does not start from the declared seed and first pair.
    """
    d = space.dimension
    rules = _float_rules(fn, space, graph)
    float_step = rules and _float_step(rules[0], space, graph)

    def advance(n, xn, yn, fx, fy):
        pair = None if fx is None or fy is None else float_step(fx, fy)
        if pair is None:
            Z = np.array([xn, yn])
            pair = _select_step(space, graph, _images(fn, Z, Z[::-1], d, multi=True), Z, n)
        return pair

    def residual(x, y):
        return dist_to_set(space, x, fn(x, y)) + dist_to_set(space, y, fn(y, x))

    return _run_iteration(space, graph, cfg, _first_pair(fn, space, x0, y0, x1, y1, known),
                          "seed condition fails: ((x0,y0),(x1,y1)) is not a product edge",
                          advance, residual, known, rules)


def diagonal_decay_check(trace: IterationTrace, graph: Digraph, k: float) -> Certificate:
    """Check the diagonal collapse d(x_n, y_n) <= k^n * d(x0, y0), every d(x_n, y_n) finite.

    Applies when the seed pair itself is an edge of the base graph (the
    collapse argument contracts the diagonal gap along that edge).

    Raises:
        InapplicableCheckError: the base edge (x0, y0) is absent.
        InvalidInputError: empty trace.
    """
    validate_k(k)
    if not trace.steps:
        raise InvalidInputError("trace has no steps")
    first = trace.steps[0]
    if not graph.has_edge(first.x, first.y):
        raise InapplicableCheckError(
            "diagonal decay needs the seed edge (x0, y0) in the base graph"
        )
    d0 = first.diag
    bad = [step for step in trace.steps  # a NaN or infinite diag, or a NaN bound, offends
           if not (math.isfinite(step.diag) and step.diag <= (k ** step.n) * d0 + SLACK)]
    violations = [{"n": step.n, "diag": float(step.diag), "bound": float((k ** step.n) * d0)}
                  for step in bad]
    return _finalize("diagonal_decay", len(trace.steps), violations, len(bad), None, f"k={k!r}")


@dataclass(frozen=True)
class SeedOutcome:
    """Result of one probe seed: a fixed point, or the error that stopped it."""

    index: int
    x0: np.ndarray
    y0: np.ndarray
    point: CoupledFixedPoint | None
    converged: bool
    error: str | None


@dataclass(frozen=True)
class UniquenessReport:
    """Clustering of fixed points reached from several seeds.

    ``clusters`` holds seed indices grouped by pair-distance <= 2*tol;
    ``diameters`` the max within-cluster pair distance, NaN if any is.
    A pair of distinct results joined by a product edge contradicts the
    local uniqueness argument and lands in ``edge_violations``, in
    row-major seed order.  The probe never asserts global uniqueness.
    """

    outcomes: tuple[SeedOutcome, ...]
    clusters: tuple[tuple[int, ...], ...]
    diameters: tuple[float, ...]
    edge_violations: tuple[dict, ...]


def _solve_rows(fn, space, graph, starts: np.ndarray, cfg: SolveConfig) -> list[SeedOutcome]:
    """:func:`solve_coupled` from every seed of the (s, 2, d) *starts* at once.

    The live pairs are held stacked, Z = [X; Y], and advance in lockstep
    through batched map, graph and metric calls on unvalidated arrays.  A
    map with ``on_floats`` fills a block's (K + 1, d, 2a) columns by one
    call per step on the d + d float64 columns of Z and [Y; X] (a constant
    broadcasts), under one ``np.errstate``, every other map through the
    shape-checked :func:`checks._images`; both give the same bits.  A
    block of ``_STEP_BLOCK`` steps measures its step sizes in one call and
    applies :func:`_step_rule` once, and each row ends at its first event
    there, so a probe makes up to ``_STEP_BLOCK - 1`` map calls past its
    last stop.  A row freezes when it converges or reaches ``max_iter``,
    and a seed without its seed edge records ``SeedEdgeError``.
    Any other failure hands the seed to :func:`solve_coupled`, which gives
    its outcome: a non-finite seed (the errstate would quieten the warnings
    ``solve_coupled`` gives on it), a multivalued map, a step
    :func:`_step_rule` rejects, or a raise in a batched call (every seed
    still in that block; a result of other than d columns raises) or at
    the final pair, where ``solve_coupled`` measures its residual and
    d(x, y) for ``is_diagonal``.  ``record_edges`` is ignored.
    """
    s, d = len(starts), space.dimension
    columns = getattr(fn, "on_floats", None)

    def iterates(P, K):
        """The stacked pairs P, (j, 2a, d), each the images [F(X, Y); F(Y, X)]
        of the one before, extended to K + 1 pairs, (K + 1, 2a, d)."""
        j, a = len(P), P.shape[1] // 2
        if columns is None:
            P = list(P)
            while len(P) <= K:
                P.append(_images(fn, P[-1], np.concatenate([P[-1][a:], P[-1][:a]]), d, multi=False)[:, 0])
            return np.stack(P)
        B = np.empty((K + 1, d, 2 * a))
        B[:j] = P.transpose(0, 2, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(j - 1, K):
                out = columns([*B[t], *np.concatenate([B[t, :, a:], B[t, :, :a]], axis=1)])
                if len(out) != d:
                    raise InvalidInputError(f"on_floats gave {len(out)} values, not a point")
                for i, column in enumerate(out):
                    B[t + 1, i] = column
        return np.ascontiguousarray(B.transpose(0, 2, 1))

    results: dict[int, tuple] = {}
    XF, YF = np.empty((s, d)), np.empty((s, d))
    converged = np.zeros(s, dtype=bool)
    ended = np.zeros(s, dtype=bool)
    Z = starts.swapaxes(0, 1).reshape(2 * s, d)
    finite = np.isfinite(Z).all(axis=1).reshape(2, s).all(axis=0) & (not isinstance(fn, ExpressionMultiMap))
    handed = np.flatnonzero(~finite).tolist()  # seeds solve_coupled solves, or refuses as multivalued
    live, n = np.flatnonzero(finite), 0  # seed index of each live pair, steps made
    try:
        Z, Zn = iterates(Z[None, np.concatenate([finite, finite])], 1)
        edge = product_edge_mask(graph, *Z.reshape(2, -1, d), *Zn.reshape(2, -1, d))
        for i in live[~edge].tolist():
            results[i] = None, False, f"SeedEdgeError: {_SEED_EDGE}"
        both = np.concatenate([edge, edge])
        live, P = live[edge], np.stack([Z[both], Zn[both]])
        while len(live):
            a, K = len(live), min(_STEP_BLOCK, cfg.max_iter - n)
            P = iterates(P, K)
            step = space.distance_batch(P[:-1].reshape(-1, d), P[1:].reshape(-1, d)).reshape(K, 2 * a)
            total = step[:, :a] + step[:, a:]
            if n == 0:
                D0 = total[0]
            _, ok, done = _step_rule(cfg, np.array([[cfg.k ** j] for j in range(n, n + K)]), total, D0)
            event = ~ok | done
            n += K
            event[-1] |= n == cfg.max_iter
            if event.any():
                t, cols = event.argmax(axis=0), np.arange(a)  # each row's first event, if any
                hit, ok = event[t, cols], ok[t, cols]
                handed += live[hit & ~ok].tolist()
                stop, rows = hit & ok, live[hit & ok]
                XF[rows], YF[rows] = P[t[stop] + 1, cols[stop]], P[t[stop] + 1, a + cols[stop]]
                converged[rows], ended[rows] = done[t, cols][stop], True
                live, D0, P = live[~hit], D0[~hit], P[-1:, np.concatenate([~hit, ~hit])]
            P = P[-1:]
    except Exception:
        handed += live.tolist()

    rows = np.flatnonzero(ended)
    is_diagonal = np.zeros(s, dtype=bool)
    if len(rows):
        P = np.concatenate([XF[rows], YF[rows]])
        try:
            space.distance_batch(iterates(P[None], 1)[1], P)
            is_diagonal[rows] = space.distance_batch(XF[rows], YF[rows]) <= cfg.tol
        except Exception:
            handed += rows.tolist()
            ended[rows] = False

    for i in np.flatnonzero(ended).tolist():
        fp = CoupledFixedPoint(x=XF[i].copy(), y=YF[i].copy(), is_diagonal=bool(is_diagonal[i]))
        results[i] = fp, bool(converged[i]), None if converged[i] else "non-convergence at max_iter"
    per_seed = handed and replace(cfg, record_edges=False)
    for i in sorted(handed):
        try:
            fp, trace = solve_coupled(fn, space, graph, *starts[i], per_seed)
        except Exception as exc:
            results[i] = None, False, f"{type(exc).__name__}: {exc}"
        else:
            results[i] = fp, trace.converged, None if trace.converged else "non-convergence at max_iter"
    return [SeedOutcome(i, x0, y0, *results[i]) for i, x0, y0 in zip(range(s), starts[:, 0], starts[:, 1])]


# Pairs per block of the clustering passes: the most rows of their batch calls.
_PAIR_BLOCK = 2048
_STEP_BLOCK = 8  # lockstep steps per block of the probe's batch, checked at once


def _pair_blocks(n: int):
    """The pairs (a, b), a < b, of n rows in row-major order, as index
    arrays of at most ``_PAIR_BLOCK`` pairs (a block may split a row)."""
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])  # first pair of row a
    total = n * (n - 1) // 2
    for k0 in range(0, total, _PAIR_BLOCK):
        k = np.arange(k0, min(k0 + _PAIR_BLOCK, total))
        a = np.searchsorted(starts, k, side="right") - 1
        yield a, k - starts[a] + a + 1


def _cluster(space: MetricSpace, graph: Digraph, good: list[SeedOutcome], tol: float):
    """Clusters, diameters and edge violations of the converged outcomes.

    One pass over the pairs a < b in row-major blocks, with no (s, s)
    array: one metric call per side, a's point first; the close pairs
    (<= 2 * tol) join by union-find, hooking the larger root onto the
    smaller one and pointer jumping, so each round lowers a root and a
    root ends as its component's lowest row; the far pairs get one
    product-edge test, either way.  Diameters are NaN-propagating maxima,
    from a second blocked pass unless all rows form one cluster.
    """
    n = len(good)
    P = np.array([o.point.x for o in good]).reshape(n, space.dimension)
    Q = np.array([o.point.y for o in good]).reshape(n, space.dimension)

    def pair_dist(a, b):
        return space.distance_batch(P[a], P[b]) + space.distance_batch(Q[a], Q[b])

    root = np.arange(n)  # root[r] <= r, and root[root] == root between rounds
    top = -np.inf  # the largest pair distance, NaN once one is NaN
    edge_violations = []
    for a, b in _pair_blocks(n):
        dist = pair_dist(a, b)
        top = np.maximum(top, dist.max())
        close = dist <= 2.0 * tol
        ca, cb = a[close], b[close]
        ra, rb = root[ca], root[cb]
        while (ra != rb).any():
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while ((up := root[root]) != root).any():
                root = up
            ra, rb = root[ca], root[cb]
        far = ~close
        fa, fb = a[far], b[far]
        if len(fa) == 0:
            continue
        Pa, Qa, Pb, Qb = P[fa], Q[fa], P[fb], Q[fb]
        edge = (product_edge_mask(graph, Pa, Qa, Pb, Qb)
                | product_edge_mask(graph, Pb, Qb, Pa, Qa))
        for i, j, gap in zip(fa[edge].tolist(), fb[edge].tolist(), dist[far][edge].tolist()):
            edge_violations.append({"seeds": (good[i].index, good[j].index), "distance": gap})
    # A root is its component's lowest row, so the groups come out sorted.
    groups: dict[int, list[int]] = {}
    for row, r in enumerate(root.tolist()):
        groups.setdefault(r, []).append(row)
    diam = np.full(n, top if len(groups) == 1 else -np.inf)  # one cluster: the largest distance
    if 1 < len(groups) < n:
        for a, b in _pair_blocks(n):
            same = root[a] == root[b]
            if same.any():
                dist = pair_dist(a[same], b[same])
                with np.errstate(invalid="ignore"):  # a NaN distance is kept, not warned of
                    np.maximum.at(diam, root[a[same]], dist)
    clusters = tuple(tuple(good[r].index for r in g) for g in groups.values())
    diameters = tuple(float(diam[g[0]]) if len(g) > 1 else 0.0 for g in groups.values())
    return clusters, diameters, tuple(edge_violations)


def uniqueness_probe(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    seeds: Sequence[tuple[PointLike, PointLike]],
    cfg: SolveConfig,
) -> UniquenessReport:
    """Solve from each seed and cluster the resulting fixed points.

    Every seed is iterated as :func:`solve_coupled` would, all of them in
    lockstep as one batch (maps with ``on_floats`` or ``eval_batch`` are
    evaluated once per step for all seeds, others row by row); a seed that
    fails there is solved again by :func:`solve_coupled` alone.  Per-seed
    solver errors are recorded in the outcome and the probe continues.  Pair
    distance is d(p,p') + d(q,q').  Seeds that form one (s, 2, d) array,
    (s, 2) at d = 1, are read in one conversion, others point by point.
    """
    if len(seeds) == 0:
        raise InvalidInputError("at least one seed is required")
    d = space.dimension
    try:
        starts = np.array(seeds, dtype=np.float64)
    except (TypeError, ValueError, ArithmeticError):  # as_point below raises the seed's own error
        starts = None
    if starts is None or starts.shape[1:] not in ((2, d), (2,) if d == 1 else (2, d)):
        starts = np.array([(as_point(sx, d), as_point(sy, d)) for sx, sy in seeds])
    outcomes = _solve_rows(fn, space, graph, starts.reshape(-1, 2, d), cfg)
    good = [o for o in outcomes if o.point is not None and o.converged]
    clusters, diameters, edge_violations = _cluster(space, graph, good, cfg.tol)
    return UniquenessReport(tuple(outcomes), clusters, diameters, edge_violations)
