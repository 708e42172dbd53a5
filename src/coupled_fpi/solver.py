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

Multivalued maps iterate by edge-filtered nearest-point selection: the
next iterate is the image point nearest the current one among
edge-compatible candidates, ties resolved by image index.  Wrapping a
single-valued map as a one-point multivalued map reproduces the
single-valued trace bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checks import SLACK, Certificate, validate_k
from .errors import (
    HypothesisViolationError,
    InapplicableCheckError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    SeedEdgeError,
    SelectionFailureError,
)
from .finite_sets import as_finite_set, dist_to_set
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
    ratio = cfg.k / (1.0 - cfg.k)
    steps: list[TraceStep] = []
    xn, yn = x0, y0
    xn1, yn1 = x1, y1
    converged = False
    for n in range(cfg.max_iter):
        sx = space.distance(xn, xn1)
        sy = space.distance(yn, yn1)
        bound = (cfg.k ** n) * D0 / 2.0
        diag = space.distance(xn, yn)
        ex = graph.has_edge(xn, xn1) if cfg.record_edges else None
        ey = graph.has_edge(yn1, yn) if cfg.record_edges else None
        step = TraceStep(n, xn, yn, sx, sy, bound, diag, ex, ey)
        steps.append(step)
        if cfg.check_bounds and sx + sy > 2.0 * bound + SLACK:
            raise HypothesisViolationError(
                f"step {n}: step_x + step_y = {sx + sy!r} exceeds k^n * D0 = {2.0 * bound!r}",
                step=step,
            )
        xn, yn = xn1, yn1
        if ratio * (sx + sy) <= cfg.tol:
            converged = True
            break
        if n + 1 < cfg.max_iter:
            xn1, yn1 = advance(n + 1, xn, yn)
    return xn, yn, steps, D0, converged


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
        raise SeedEdgeError(
            "seed condition fails: ((x0,y0),(F(x0,y0),F(y0,x0))) is not a product edge"
        )

    def advance(n, xn, yn):
        return as_point(fn(xn, yn), d), as_point(fn(yn, xn), d)

    x, y, steps, D0, converged = _run_iteration(space, graph, cfg, x0, y0, x1, y1, advance)
    residual = space.distance(as_point(fn(x, y), d), x) + space.distance(
        as_point(fn(y, x), d), y
    )
    fp = CoupledFixedPoint(x=x, y=y, is_diagonal=bool(space.distance(x, y) <= cfg.tol))
    return fp, IterationTrace(tuple(steps), D0, converged, residual)


def _select_step(space, graph, image, anchor, incoming: bool, n: int) -> np.ndarray:
    points = image.points
    anchors = np.repeat(anchor[None, :], len(points), axis=0)
    ok = graph.edge_mask(points, anchors) if incoming else graph.edge_mask(anchors, points)
    dist = space.distance_batch(anchors, points)
    # NaN and inf distances are inadmissible; argmin takes the lowest index on ties.
    dist = np.where(ok & (dist < np.inf), dist, np.inf)
    best = int(np.argmin(dist))
    if not dist[best] < np.inf:
        side = "y" if incoming else "x"
        raise SelectionFailureError(
            f"step {n}: no edge-compatible candidate in the {side}-image "
            "(evidence the multivalued monotonicity hypothesis fails here)"
        )
    return points[best].copy()


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
    image index.

    Raises:
        InvalidSeedError: x1/y1 not in the seed images.
        SeedEdgeError: the seed product edge fails.
        SelectionFailureError: some step has no admissible candidate.
    """
    d = space.dimension
    x0 = as_point(x0, d)
    y0 = as_point(y0, d)
    x1 = as_point(x1, d)
    y1 = as_point(y1, d)
    if dist_to_set(space, x1, as_finite_set(fn(x0, y0), d)) > SLACK:
        raise InvalidSeedError("x1 is not a point of F(x0, y0)")
    if dist_to_set(space, y1, as_finite_set(fn(y0, x0), d)) > SLACK:
        raise InvalidSeedError("y1 is not a point of F(y0, x0)")
    if not product_edge(graph, (x0, y0), (x1, y1)):
        raise SeedEdgeError("seed condition fails: ((x0,y0),(x1,y1)) is not a product edge")

    def advance(n, xn, yn):
        x_img = as_finite_set(fn(xn, yn), d)
        y_img = as_finite_set(fn(yn, xn), d)
        x_next = _select_step(space, graph, x_img, xn, incoming=False, n=n)
        y_next = _select_step(space, graph, y_img, yn, incoming=True, n=n)
        return x_next, y_next

    x, y, steps, D0, converged = _run_iteration(space, graph, cfg, x0, y0, x1, y1, advance)
    residual = dist_to_set(space, x, as_finite_set(fn(x, y), d)) + dist_to_set(
        space, y, as_finite_set(fn(y, x), d)
    )
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
    violations = []
    count = 0
    for step in trace.steps:
        limit = (k ** step.n) * d0 + SLACK
        if step.diag > limit:
            count += 1
            if len(violations) < 25:
                violations.append({
                    "n": step.n,
                    "diag": float(step.diag),
                    "bound": float((k ** step.n) * d0),
                })
    return Certificate(
        property_name="diagonal_decay",
        samples_tested=len(trace.steps),
        passed=count == 0,
        violations=tuple(violations),
        violation_count=count,
        detail=f"k={k!r}",
    )


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


def uniqueness_probe(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    seeds: Sequence[tuple[PointLike, PointLike]],
    cfg: SolveConfig,
) -> UniquenessReport:
    """Solve from each seed and cluster the resulting fixed points.

    Per-seed solver errors are recorded in the outcome and the probe
    continues.  Pair distance is d(p,p') + d(q,q').
    """
    if len(seeds) == 0:
        raise InvalidInputError("at least one seed is required")
    outcomes: list[SeedOutcome] = []
    for i, (sx, sy) in enumerate(seeds):
        x0 = as_point(sx, space.dimension)
        y0 = as_point(sy, space.dimension)
        try:
            fp, trace = solve_coupled(fn, space, graph, x0, y0, cfg)
        except Exception as exc:  # per-seed failure is data, not a crash
            outcomes.append(SeedOutcome(i, x0, y0, None, False, f"{type(exc).__name__}: {exc}"))
            continue
        err = None if trace.converged else "non-convergence at max_iter"
        outcomes.append(SeedOutcome(i, x0, y0, fp, trace.converged, err))

    good = [o for o in outcomes if o.point is not None and o.converged]

    def pair_dist(a: SeedOutcome, b: SeedOutcome) -> float:
        return space.distance(a.point.x, b.point.x) + space.distance(a.point.y, b.point.y)

    parent = {o.index: o.index for o in good}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edge_violations = []
    for ai in range(len(good)):
        for bi in range(ai + 1, len(good)):
            a, b = good[ai], good[bi]
            dist = pair_dist(a, b)
            if dist <= 2.0 * cfg.tol:
                ra, rb = find(a.index), find(b.index)
                if ra != rb:
                    parent[ra] = rb
            else:
                pa = (a.point.x, a.point.y)
                pb = (b.point.x, b.point.y)
                if product_edge(graph, pa, pb) or product_edge(graph, pb, pa):
                    edge_violations.append({
                        "seeds": (a.index, b.index),
                        "distance": float(dist),
                    })

    groups: dict[int, list[int]] = {}
    for o in good:
        groups.setdefault(find(o.index), []).append(o.index)
    clusters = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    by_index = {o.index: o for o in good}
    diameters = tuple(
        max(
            (pair_dist(by_index[i], by_index[j]) for i in c for j in c if i < j),
            default=0.0,
        )
        for c in clusters
    )
    return UniquenessReport(tuple(outcomes), clusters, diameters, tuple(edge_violations))
