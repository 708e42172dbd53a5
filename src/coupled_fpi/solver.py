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
lockstep over an (s, d) batch; it shares the bound check, the stopping
rule and their error messages with the per-pair kernel, so each seed
gets the outcome :func:`solve_coupled` gives it.  A NaN or infinite
step size stops every solver with ``NonFiniteValueError``.

Multivalued maps iterate by edge-filtered nearest-point selection: the
next iterate is the image point nearest the current one among
edge-compatible candidates, ties resolved by image index.  Each step
evaluates both images as one (2, m, d) array, with a single
``eval_batch`` call when the map has one and no finite set either way,
and selects on that raw array for both sides with one masked argmin.
Wrapping a single-valued map as a one-point multivalued map reproduces
the single-valued trace bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import SLACK, Certificate, _finalize, validate_k, _images as _image_array
from .errors import (
    CoupledFpiError,
    HypothesisViolationError,
    InapplicableCheckError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    NonFiniteValueError,
    SeedEdgeError,
    SelectionFailureError,
)
from .finite_sets import FiniteSetLike, _point_rows, dist_to_set
# as_finite_set is not used here; perfbench/tracer.py patches it under this name.
from .finite_sets import as_finite_set  # noqa: F401
from .graphs import Digraph, product_edge
from .spaces import MetricSpace, PointLike, as_point


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
        validate_k(self.k)
        if not self.tol > 0.0:
            raise InvalidParameterError(f"tol must be positive, got {self.tol!r}")
        if not isinstance(self.max_iter, int) or isinstance(self.max_iter, bool) or self.max_iter < 1:
            raise InvalidParameterError(
                f"max_iter must be a positive integer, got {self.max_iter!r}"
            )


@dataclass(frozen=True)
class TraceStep:
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


def step_bound(k: float, D0: float, n: int) -> float:
    """Theoretical per-step bound (k^n / 2) * D0.

    Raises:
        InvalidParameterError: k outside (0,1), negative D0 or n.
    """
    validate_k(k)
    if not D0 >= 0.0:
        raise InvalidParameterError(f"D0 must be nonnegative, got {D0!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"n must be a nonnegative integer, got {n!r}")
    return (k ** n) * D0 / 2.0


def tail_bound(k: float, D0: float, n: int) -> float:
    """Geometric tail sum k^n * D0 / (2 (1 - k)).

    Bounds d(x_n, x*) and d(y_n, y*) individually, hence also the a
    priori iteration count needed for a given tolerance.
    """
    validate_k(k)
    if not D0 >= 0.0:
        raise InvalidParameterError(f"D0 must be nonnegative, got {D0!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"n must be a nonnegative integer, got {n!r}")
    return (k ** n) * D0 / (2.0 * (1.0 - k))


def safe_k(estimate: float, margin: float = 1.05) -> float:
    """Declared k from a sampled estimate: margin * estimate, capped into (0,1).

    The sampled estimate is a lower bound on the true minimal constant,
    so the margin buys slack; the cap keeps the result admissible.  The
    floor guards the degenerate estimate 0 (constant maps).
    """
    if not estimate >= 0.0:
        raise InvalidParameterError(f"estimate must be nonnegative, got {estimate!r}")
    return min(max(margin * estimate, 1e-12), 1.0 - 1e-12)


def _step_rule(cfg: SolveConfig, n: int, total, D0):
    """Bound check and stopping rule of step n, shared by both kernels.

    *total* is step_x + step_y and *D0* the first summed step, as floats
    for one pair or as arrays for a batch of rows.  Returns the bound
    (k^n / 2) * D0, whether the step may stand (finite, and with
    ``check_bounds`` within 2 * bound + SLACK) and whether the stopping
    rule fires.  A step that may not stand is reported by
    :func:`_step_error`.
    """
    bound = (cfg.k ** n) * D0 / 2.0
    ok = abs(total) < math.inf
    if cfg.check_bounds:
        ok = ok & (total <= 2.0 * bound + SLACK)
    return bound, ok, cfg.k / (1.0 - cfg.k) * total <= cfg.tol


def _step_error(n: int, sx, sy, bound, step=None) -> CoupledFpiError:
    """The error for step n after :func:`_step_rule` rejected it."""
    if not abs(sx + sy) < math.inf:
        return NonFiniteValueError(
            f"step {n}: non-finite step size (step_x = {float(sx)!r}, step_y = {float(sy)!r})"
        )
    return HypothesisViolationError(
        f"step {n}: step_x + step_y = {sx + sy!r} exceeds k^n * D0 = {2.0 * bound!r}",
        step=step,
    )


def _run_iteration(
    space: MetricSpace,
    graph: Digraph,
    cfg: SolveConfig,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    advance: Callable,
):
    """Shared bookkeeping for both solvers.

    *advance* maps the current pair to the next one; everything recorded
    (steps, bounds, flags, stopping) is computed here so the two solvers
    agree bitwise on identical transition sequences.
    """
    D0 = space.distance(x0, x1) + space.distance(y0, y1)
    steps: list[TraceStep] = []
    xn, yn = x0, y0
    xn1, yn1 = x1, y1
    converged = False
    for n in range(cfg.max_iter):
        sx = space.distance(xn, xn1)
        sy = space.distance(yn, yn1)
        bound, ok, done = _step_rule(cfg, n, sx + sy, D0)
        diag = space.distance(xn, yn)
        ex = graph.has_edge(xn, xn1) if cfg.record_edges else None
        ey = graph.has_edge(yn1, yn) if cfg.record_edges else None
        step = TraceStep(n, xn, yn, sx, sy, bound, diag, ex, ey)
        steps.append(step)
        if not ok:
            raise _step_error(n, sx, sy, bound, step)
        xn, yn = xn1, yn1
        if done:
            converged = True
            break
        if n + 1 < cfg.max_iter:
            xn1, yn1 = advance(n + 1, xn, yn)
    return xn, yn, steps, D0, converged


_SEED_EDGE = "seed condition fails: ((x0,y0),(F(x0,y0),F(y0,x0))) is not a product edge"


def solve_coupled(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    x0: PointLike,
    y0: PointLike,
    cfg: SolveConfig,
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """Iterate a single-valued coupled map to its coupled fixed point.

    The seed condition requires the product edge from (x0, y0) to the
    first computed pair (F(x0,y0), F(y0,x0)).

    Returns the final pair and the full trace.  Non-convergence at
    max_iter is reported through ``trace.converged``, not an exception.

    Raises:
        SeedEdgeError: seed condition fails.
        NonFiniteValueError: some step size is NaN or infinite.
        HypothesisViolationError: with ``check_bounds``, a step exceeded
            the geometric bound (evidence the contraction constant is
            wrong for this instance).
    """
    d = space.dimension
    x0 = as_point(x0, d)
    y0 = as_point(y0, d)
    x1 = as_point(fn(x0, y0), d)
    y1 = as_point(fn(y0, x0), d)
    if not product_edge(graph, (x0, y0), (x1, y1)):
        raise SeedEdgeError(_SEED_EDGE)

    def advance(n, xn, yn):
        return as_point(fn(xn, yn), d), as_point(fn(yn, xn), d)

    x, y, steps, D0, converged = _run_iteration(space, graph, cfg, x0, y0, x1, y1, advance)
    residual = space.distance(as_point(fn(x, y), d), x) + space.distance(
        as_point(fn(y, x), d), y
    )
    fp = CoupledFixedPoint(x=x, y=y, is_diagonal=bool(space.distance(x, y) <= cfg.tol))
    return fp, IterationTrace(tuple(steps), D0, converged, residual)


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


def _seed_member(space: MetricSpace, p: np.ndarray, image: FiniteSetLike) -> bool:
    """p is a point of the image: within SLACK of it, or bitwise one of its
    points (an infinite point has NaN distance to itself).  A NaN distance
    to an image without p is no membership."""
    rows = _point_rows(image, space.dimension)
    return dist_to_set(space, p, rows) <= SLACK or any(r.tobytes() == p.tobytes() for r in rows)


def solve_coupled_multi(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    x0: PointLike,
    y0: PointLike,
    x1: PointLike,
    y1: PointLike,
    cfg: SolveConfig,
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """Iterate a multivalued coupled map by nearest-admissible selection.

    The caller supplies the first iterates x1 in F(x0,y0), y1 in
    F(y0,x0) (the theorems' existential seed); membership is checked to
    1e-12.  Each later step picks, among image points b with the
    required edge (x_n -> b for the x-sequence, b -> y_n for the
    y-sequence), the one nearest the current iterate, breaking ties by
    image index.  A map with ``eval_batch`` is evaluated once per step
    for both sides.

    Raises:
        InvalidSeedError: x1/y1 not in the seed images.
        SeedEdgeError: the seed product edge fails.
        SelectionFailureError: some step has no admissible candidate.
        NonFiniteValueError: some step size is NaN or infinite, or every
            point of a step's image is.
        InvalidInputError: ``eval_batch`` returned a wrongly shaped array.
    """
    d = space.dimension
    x0 = as_point(x0, d)
    y0 = as_point(y0, d)
    x1 = as_point(x1, d)
    y1 = as_point(y1, d)
    if not _seed_member(space, x1, fn(x0, y0)):
        raise InvalidSeedError("x1 is not a point of F(x0, y0)")
    if not _seed_member(space, y1, fn(y0, x0)):
        raise InvalidSeedError("y1 is not a point of F(y0, x0)")
    if not product_edge(graph, (x0, y0), (x1, y1)):
        raise SeedEdgeError("seed condition fails: ((x0,y0),(x1,y1)) is not a product edge")

    def advance(n, xn, yn):
        Z = np.array([xn, yn])
        return _select_step(space, graph, _image_array(fn, Z, Z[::-1], d, multi=True), Z, n)

    x, y, steps, D0, converged = _run_iteration(space, graph, cfg, x0, y0, x1, y1, advance)
    residual = dist_to_set(space, x, fn(x, y)) + dist_to_set(space, y, fn(y, x))
    fp = CoupledFixedPoint(x=x, y=y, is_diagonal=bool(space.distance(x, y) <= cfg.tol))
    return fp, IterationTrace(tuple(steps), D0, converged, residual)


def diagonal_decay_check(trace: IterationTrace, graph: Digraph, k: float) -> Certificate:
    """Check the diagonal collapse d(x_n, y_n) <= k^n * d(x0, y0).

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
    bad = [step for step in trace.steps if step.diag > (k ** step.n) * d0 + SLACK]
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
    ``diameters`` the max within-cluster pair distance.  A pair of
    distinct results joined by a product edge contradicts the local
    uniqueness argument and lands in ``edge_violations``.  The probe
    never asserts global uniqueness.
    """

    outcomes: tuple[SeedOutcome, ...]
    clusters: tuple[tuple[int, ...], ...]
    diameters: tuple[float, ...]
    edge_violations: tuple[dict, ...]


def _by_rows(batch: Callable, row: Callable, n: int, fill):
    """``batch()`` when it succeeds, else ``row(i)`` for each of n rows.

    Returns the results as an array and ``{row: exception}`` for the rows
    whose own call raised (their entries hold *fill*).  Redoing a failed
    batch row by row keeps an error of the map, graph or metric on the
    seed that caused it, as the per-pair solver raises it.
    """
    try:
        return batch(), {}
    except Exception:
        pass
    out, errors = [], {}
    for i in range(n):
        try:
            out.append(row(i))
        except Exception as exc:
            errors[i] = exc
            out.append(fill)
    return np.array(out), errors


def _by_seed(errors: dict, s: int) -> dict:
    """Errors of stacked rows (x side, then y side) keyed by seed.

    Taken in descending row order, so the x-side error, which the
    per-pair solver meets first, wins.
    """
    return {i % s: errors[i] for i in sorted(errors, reverse=True)}


def _images(fn: Callable, Z: np.ndarray, d: int):
    """Stacked images [F(X, Y); F(Y, X)] of the pairs Z = [X; Y], batched, errors by seed."""
    s = len(Z) // 2
    W = np.concatenate([Z[s:], Z[:s]])
    F, errors = _by_rows(lambda: _image_array(fn, Z, W, d, multi=False)[:, 0],
                         lambda i: as_point(fn(Z[i], W[i]), d), len(Z), np.full(d, np.nan))
    return F, _by_seed(errors, s)


def _distances(space: MetricSpace, P: np.ndarray, Q: np.ndarray):
    return _by_rows(lambda: space.distance_batch(P, Q),
                    lambda i: space.distance(P[i], Q[i]), len(P), np.nan)


def _solve_rows(fn, space, graph, starts, cfg: SolveConfig) -> list[SeedOutcome]:
    """:func:`solve_coupled` from every seed at once.

    The live pairs are held stacked, Z = [X; Y], and advance in lockstep
    through batched map, graph and metric calls on unvalidated arrays;
    a row freezes when it converges, reaches ``max_iter`` or fails.  A
    failed row records the error string ``solve_coupled`` raises for
    that seed.  Nothing is traced, so no edge flags are computed
    (``record_edges`` is ignored).
    """
    s, d = len(starts), space.dimension
    Z0 = np.array([x for x, _ in starts] + [y for _, y in starts]).reshape(2 * s, d)
    errors: dict[int, str] = {}
    live = np.arange(s)  # seed index of each live pair

    def retire(failed: dict):
        """Record the failed live pairs; the mask of the others (None: all)."""
        if not failed:
            return None
        keep = np.ones(len(live), dtype=bool)
        for r, exc in failed.items():
            errors[int(live[r])] = f"{type(exc).__name__}: {exc}"
            keep[r] = False
        return keep

    def take(keep, *arrays):
        """The kept pairs of per-pair (a,) and stacked (2a, d) arrays."""
        if keep is None:
            return arrays
        both = np.concatenate([keep, keep])
        return tuple(v[keep] if len(v) == len(keep) else v[both] for v in arrays)

    Z1, failed = _images(fn, Z0, d)
    live, Z, Zn = take(retire(failed), live, Z0, Z1)
    a = len(live)
    edge, failed = _by_rows(
        lambda: graph.edge_mask(Z[:a], Zn[:a]) & graph.edge_mask(Zn[a:], Z[a:]),
        lambda i: product_edge(graph, (Z[i], Z[a + i]), (Zn[i], Zn[a + i])), a, False)
    for r in np.flatnonzero(~edge):
        failed.setdefault(int(r), SeedEdgeError(_SEED_EDGE))
    live, Z, Zn = take(retire(failed), live, Z, Zn)

    XF, YF = np.empty((s, d)), np.empty((s, d))
    converged = np.zeros(s, dtype=bool)
    ended = np.zeros(s, dtype=bool)
    for n in range(cfg.max_iter):
        a = len(live)
        if a == 0:
            break
        step, failed = _distances(space, Z, Zn)
        failed = _by_seed(failed, a)
        sx, sy = step[:a], step[a:]
        if n == 0:
            D0 = sx + sy
        _, ok, done = _step_rule(cfg, n, sx + sy, D0)
        for r in np.flatnonzero(~ok):
            if r not in failed:
                # Re-measure with the pair metric: the message then carries
                # the very scalars solve_coupled reports.
                j = live[r]
                rx = space.distance(Z[r], Zn[r])
                ry = space.distance(Z[a + r], Zn[a + r])
                r0 = space.distance(Z0[j], Z1[j]) + space.distance(Z0[s + j], Z1[s + j])
                failed[int(r)] = _step_error(n, rx, ry, _step_rule(cfg, n, rx + ry, r0)[0])
        keep = retire(failed)
        stop = done | (n + 1 == cfg.max_iter)
        if keep is not None:
            stop &= keep
        if stop.any():
            rows = live[stop]
            XF[rows], YF[rows] = Zn[:a][stop], Zn[a:][stop]
            converged[rows], ended[rows] = done[stop], True
            keep = ~stop if keep is None else keep & ~stop
        live, Z, D0 = take(keep, live, Zn, D0)
        if len(live) and n + 1 < cfg.max_iter:
            Zn, failed = _images(fn, Z, d)
            live, Z, Zn, D0 = take(retire(failed), live, Z, Zn, D0)

    # solve_coupled then evaluates F at the final pair for its residual and
    # measures d(x, y) for is_diagonal; a raise there fails the seed too.
    live = np.flatnonzero(ended)
    is_diagonal = np.zeros(s, dtype=bool)
    if len(live):
        _, failed = _images(fn, np.concatenate([XF[live], YF[live]]), d)
        diag, failed_diag = _distances(space, XF[live], YF[live])
        retire({**failed_diag, **failed})
        is_diagonal[live] = diag <= cfg.tol

    outcomes = []
    for i, (x0, y0) in enumerate(starts):
        if i in errors:
            outcomes.append(SeedOutcome(i, x0, y0, None, False, errors[i]))
            continue
        fp = CoupledFixedPoint(x=XF[i].copy(), y=YF[i].copy(), is_diagonal=bool(is_diagonal[i]))
        err = None if converged[i] else "non-convergence at max_iter"
        outcomes.append(SeedOutcome(i, x0, y0, fp, bool(converged[i]), err))
    return outcomes


def _row_distances(space: MetricSpace, P: np.ndarray, Q: np.ndarray, a: int, rest):
    """Pair distances d(p_a, p_b) + d(q_a, q_b) for the rows b in *rest*."""
    Pb, Qb = P[rest], Q[rest]
    return (space.distance_batch(P[a:a + 1].repeat(len(Pb), axis=0), Pb)
            + space.distance_batch(Q[a:a + 1].repeat(len(Qb), axis=0), Qb))


def _either_product_edge(graph: Digraph, P: np.ndarray, Q: np.ndarray, a: int, far: np.ndarray):
    """Product edge (p_a, q_a) -> (p_b, q_b) or back, for each row b in *far*."""
    Pb, Qb = P[far], Q[far]
    Pa, Qa = P[a:a + 1].repeat(len(far), axis=0), Q[a:a + 1].repeat(len(far), axis=0)
    try:
        return ((graph.edge_mask(Pa, Pb) & graph.edge_mask(Qb, Qa))
                | (graph.edge_mask(Pb, Pa) & graph.edge_mask(Qa, Qb)))
    except Exception:
        # Pair by pair, in the pairwise order, so a graph error is the one
        # that pair's own short-circuited test raises.
        pa = (P[a], Q[a])
        return np.array([product_edge(graph, pa, (P[b], Q[b]))
                         or product_edge(graph, (P[b], Q[b]), pa) for b in far], dtype=bool)


def _cluster(space: MetricSpace, graph: Digraph, good: list[SeedOutcome], tol: float):
    """Clusters, diameters and edge violations of the converged outcomes.

    One row at a time, with no (s, s) matrix: row a measures its pair
    distances to every later row, joins the close ones (<= 2 * tol) into
    its component and tests product edges on the far ones.  Diameters
    are a second pass over the same rows once the components are known.
    """
    n = len(good)
    P = np.array([o.point.x for o in good]).reshape(n, space.dimension)
    Q = np.array([o.point.y for o in good]).reshape(n, space.dimension)
    label = np.arange(n)
    edge_violations = []
    for a in range(n - 1):
        dist = _row_distances(space, P, Q, a, slice(a + 1, n))
        close = dist <= 2.0 * tol
        joined = label[a + 1:][close]
        if (joined != label[a]).any():
            label[np.isin(label, joined)] = label[a]
        far = np.flatnonzero(~close) + a + 1
        if len(far):
            for b in far[_either_product_edge(graph, P, Q, a, far)]:
                edge_violations.append({
                    "seeds": (good[a].index, good[b].index),
                    "distance": float(dist[b - a - 1]),
                })
    groups: dict[int, list[int]] = {}
    for row, lab in enumerate(label.tolist()):
        groups.setdefault(lab, []).append(row)
    members = sorted(groups.values())
    clusters = tuple(tuple(good[r].index for r in g) for g in members)
    diameters = tuple(
        max((float(_row_distances(space, P, Q, g[j], g[j + 1:]).max())
             for j in range(len(g) - 1)), default=0.0)
        for g in members
    )
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
    lockstep as one batch (maps with ``eval_batch`` are evaluated once
    per step for all seeds, others row by row).  Per-seed solver errors
    are recorded in the outcome and the probe continues.  Pair distance
    is d(p,p') + d(q,q').
    """
    if len(seeds) == 0:
        raise InvalidInputError("at least one seed is required")
    d = space.dimension
    starts = [(as_point(sx, d), as_point(sy, d)) for sx, sy in seeds]
    outcomes = _solve_rows(fn, space, graph, starts, cfg)
    good = [o for o in outcomes if o.point is not None and o.converged]
    clusters, diameters, edge_violations = _cluster(space, graph, good, cfg.tol)
    return UniquenessReport(tuple(outcomes), clusters, diameters, edge_violations)
