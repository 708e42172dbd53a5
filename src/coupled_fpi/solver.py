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
the per-pair kernel.  It records a missing seed edge itself and hands
every other failing seed to :func:`solve_coupled`, so each seed gets the
outcome :func:`solve_coupled` gives it.  A NaN or infinite step size
stops every solver with ``NonFiniteValueError``.

Multivalued maps iterate by edge-filtered nearest-point selection: the
next iterate is the image point nearest the current one among
edge-compatible candidates, ties resolved by image index.  A step runs
on Python floats (:func:`_float_step`) where the map has ``on_floats``
(an ``ExpressionMultiMap`` with at most 32 values in a step's two images,
past which numpy steps as fast) and the metric and the graph a
``_row_rule``.  Any other step, and one that meets a zero divisor, a
non-finite image value or a side without a candidate, evaluates both
images as one (2, m, d) array, with a single ``eval_batch`` call when
the map has one and no finite set either way, and selects on that raw
array for both sides with one masked argmin, which raises the step's
error; both give the same bits.  Wrapping a single-valued map as a
one-point multivalued map reproduces the single-valued trace bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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
from .finite_sets import _point_rows, dist_to_set
# as_finite_set is not used here; perfbench/tracer.py patches it under this name.
from .finite_sets import as_finite_set  # noqa: F401
from .graphs import Digraph, product_edge, product_edge_mask
from .spaces import MetricSpace, PointLike, _check_int, as_point


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
        _check_int(self.max_iter, "max_iter", 1)


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


def _check_bound_args(k: float, D0: float, n: int) -> None:
    validate_k(k)
    if not D0 >= 0.0:
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


def _step_rule(cfg: SolveConfig, n: int, total, D0):
    """Bound check and stopping rule of step n, shared by both kernels.

    *total* is step_x + step_y and *D0* the first summed step, as floats
    for one pair or as arrays for a batch of rows.  Returns the bound
    (k^n / 2) * D0, whether the step may stand (finite, and with
    ``check_bounds`` within 2 * bound + SLACK) and whether the stopping
    rule fires.
    """
    bound = (cfg.k ** n) * D0 / 2.0
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
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """The Picard body both solvers share, from :func:`_first_pair`'s
    (x0, y0, x1, y1) *first*: ``SeedEdgeError(seed_edge)`` without their
    product edge, then *advance* maps each pair to the next and *residual*
    measures the last.  Everything recorded (steps, bounds, flags, stopping)
    is computed here, on iterates valid when made; *known*, the iterates
    ``(xs, ys)`` of an earlier run from the same seed, stands in for
    *advance* as far as it reaches.
    """
    xn, yn, xn1, yn1 = first
    if not product_edge(graph, (xn, yn), (xn1, yn1)):
        raise SeedEdgeError(seed_edge)
    xs, ys = known or ((), ())
    dist = space._dist
    steps: list[TraceStep] = []
    for n in range(cfg.max_iter):  # max_iter >= 1, so step 0 sets D0
        sx = dist(xn, xn1)
        sy = dist(yn, yn1)
        if n == 0:
            D0 = sx + sy
        bound, ok, done = _step_rule(cfg, n, sx + sy, D0)
        diag = dist(xn, yn)
        ex, ey = graph.edge_mask(np.array([xn, yn1]), np.array([xn1, yn])).tolist() \
            if cfg.record_edges else (None, None)
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
        xn, yn = xn1, yn1
        if done:
            break
        if n + 1 < cfg.max_iter:
            xn1, yn1 = (xs[n + 2], ys[n + 2]) if n + 2 < len(xs) else advance(n + 1, xn, yn)
    r = residual(xn, yn)
    fp = CoupledFixedPoint(x=xn, y=yn, is_diagonal=bool(space.distance(xn, yn) <= cfg.tol))
    return fp, IterationTrace(tuple(steps), D0, bool(done), r)  # done: the last step stopped


_SEED_EDGE = "seed condition fails: ((x0,y0),(F(x0,y0),F(y0,x0))) is not a product edge"


def _first_pair(fn: Callable, space: MetricSpace, x0: PointLike, y0: PointLike,
                x1: PointLike | None = None, y1: PointLike | None = None):
    """The seed (x0, y0) and the first pair (x1, y1) as points, for the seed
    condition: with no x1 the computed (F(x0, y0), F(y0, x0)), otherwise the
    declared x1 and y1, each a point of its image, x1 first.  A point of an
    image is within SLACK of it, or bitwise one of its points (an infinite
    point has NaN distance to itself); a NaN distance to an image without
    it is no membership.

    Raises:
        InvalidSeedError: a declared iterate is not a point of its image.
    """
    d = space.dimension
    x0, y0 = as_point(x0, d), as_point(y0, d)
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
    ``(xs, ys)`` of an earlier run from this seed, which are taken instead
    of computed; every check and record is made as without them.

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

    def advance(n, xn, yn):
        return as_point(fn(xn, yn), d), as_point(fn(yn, xn), d)

    def residual(x, y):
        return (space.distance(as_point(fn(x, y), d), x)
                + space.distance(as_point(fn(y, x), d), y))

    return _run_iteration(space, graph, cfg, _first_pair(fn, space, x0, y0), _SEED_EDGE,
                          advance, residual, known)


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


def _float_step(fn, space, graph):
    """:func:`_select_step` on the pair's two lists of Python floats, or None
    where the map, the metric or the graph has no float rule.  The step
    gives None for :func:`_select_step` to take over on a zero divisor, a
    non-finite image value or a side without a candidate."""
    image, dist, edge = getattr(fn, "on_floats", None), space._row_rule(), graph._row_rule()
    if image is None or dist is None or edge is None:
        return None
    d = space.dimension

    def nearest(values, anchor, forward):
        best, pick = math.inf, None
        for j in range(0, len(values), d):
            b = values[j:j + d]
            if edge(anchor, b) if forward else edge(b, anchor):
                gap = dist(anchor, b)
                if gap < best:  # the first of equals, as argmin
                    best, pick = gap, b
        return pick

    def step(x, y):
        try:
            vx, vy = image(x + y), image(y + x)
        except ZeroDivisionError:
            return None
        if not abs(sum(vx) + sum(vy)) < math.inf:  # a non-finite value, or a sum that overflowed
            return None
        px, py = nearest(vx, x, True), nearest(vy, y, False)  # x and y are finite iterates
        return None if px is None or py is None else (np.array(px), np.array(py))

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
    F(y0,x0) (the theorems' existential seed); membership is checked to
    1e-12.  Each later step picks, among image points b with the
    required edge (x_n -> b for the x-sequence, b -> y_n for the
    y-sequence), the one nearest the current iterate, breaking ties by
    image index.  A map with ``eval_batch`` is evaluated once per step
    for both sides.  *known* is as for :func:`solve_coupled`.

    Raises:
        InvalidSeedError: x1/y1 not in the seed images.
        SeedEdgeError: the seed product edge fails.
        SelectionFailureError: some step has no admissible candidate.
        NonFiniteValueError: some step size is NaN or infinite, or every
            point of a step's image is.
        InvalidInputError: ``eval_batch`` returned a wrongly shaped array.
    """
    d = space.dimension
    float_step = _float_step(fn, space, graph)

    def advance(n, xn, yn):
        pair = None if float_step is None else float_step(xn.tolist(), yn.tolist())
        if pair is None:
            Z = np.array([xn, yn])
            pair = _select_step(space, graph, _images(fn, Z, Z[::-1], d, multi=True), Z, n)
        return pair

    def residual(x, y):
        return dist_to_set(space, x, fn(x, y)) + dist_to_set(space, y, fn(y, x))

    return _run_iteration(space, graph, cfg, _first_pair(fn, space, x0, y0, x1, y1),
                          "seed condition fails: ((x0,y0),(x1,y1)) is not a product edge",
                          advance, residual, known)


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
    ``diameters`` the max within-cluster pair distance, NaN if any is.
    A pair of distinct results joined by a product edge contradicts the
    local uniqueness argument and lands in ``edge_violations``, in
    row-major seed order.  The probe never asserts global uniqueness.
    """

    outcomes: tuple[SeedOutcome, ...]
    clusters: tuple[tuple[int, ...], ...]
    diameters: tuple[float, ...]
    edge_violations: tuple[dict, ...]


def _solve_rows(fn, space, graph, starts, cfg: SolveConfig) -> list[SeedOutcome]:
    """:func:`solve_coupled` from every seed at once.

    The live pairs are held stacked, Z = [X; Y], and advance in lockstep
    through batched map, graph and metric calls on unvalidated arrays;
    a row freezes when it converges or reaches ``max_iter``, and a seed
    without its seed edge records ``SeedEdgeError``.  Any other failure
    hands the seed to :func:`solve_coupled` itself, which gives its
    outcome: a step :func:`_step_rule` rejects, or a raise in a batched
    call (every seed still in that call) or at the final pair, where
    ``solve_coupled`` measures its residual d(F(x, y), x) + d(F(y, x), y)
    and d(x, y) for ``is_diagonal``.  No edge flags are computed
    (``record_edges`` is ignored).
    """
    s, d = len(starts), space.dimension

    def images(Z):
        """Stacked images [F(X, Y); F(Y, X)] of the pairs Z = [X; Y]."""
        a = len(Z) // 2
        return _images(fn, Z, np.concatenate([Z[a:], Z[:a]]), d, multi=False)[:, 0]

    results: dict[int, tuple] = {}
    handed: list[int] = []  # seeds solve_coupled solves
    XF, YF = np.empty((s, d)), np.empty((s, d))
    converged = np.zeros(s, dtype=bool)
    ended = np.zeros(s, dtype=bool)
    live = np.arange(s)  # seed index of each live pair
    Z = np.array([x for x, _ in starts] + [y for _, y in starts]).reshape(2 * s, d)
    try:
        Zn = images(Z)
        edge = product_edge_mask(graph, Z[:s], Z[s:], Zn[:s], Zn[s:])
        for i in np.flatnonzero(~edge).tolist():
            results[i] = None, False, f"SeedEdgeError: {_SEED_EDGE}"
        both = np.concatenate([edge, edge])
        live, Z, Zn = live[edge], Z[both], Zn[both]
        for n in range(cfg.max_iter):
            a = len(live)
            if a == 0:
                break
            step = space.distance_batch(Z, Zn)
            sx, sy = step[:a], step[a:]
            if n == 0:
                D0 = sx + sy
            _, ok, done = _step_rule(cfg, n, sx + sy, D0)
            stop = ok & (done | (n + 1 == cfg.max_iter))
            keep = ok & ~stop
            if not keep.all():
                handed += live[~ok].tolist()
                rows = live[stop]
                XF[rows], YF[rows] = Zn[:a][stop], Zn[a:][stop]
                converged[rows], ended[rows] = done[stop], True
                both = np.concatenate([keep, keep])
                live, Zn, D0 = live[keep], Zn[both], D0[keep]
            Z = Zn
            if len(live):
                Zn = images(Z)
    except Exception:
        handed += live.tolist()

    rows = np.flatnonzero(ended)
    is_diagonal = np.zeros(s, dtype=bool)
    if len(rows):
        P = np.concatenate([XF[rows], YF[rows]])
        try:
            space.distance_batch(images(P), P)
            is_diagonal[rows] = space.distance_batch(XF[rows], YF[rows]) <= cfg.tol
        except Exception:
            handed += rows.tolist()
            ended[rows] = False

    for i in np.flatnonzero(ended).tolist():
        fp = CoupledFixedPoint(x=XF[i].copy(), y=YF[i].copy(), is_diagonal=bool(is_diagonal[i]))
        results[i] = fp, bool(converged[i]), None if converged[i] else "non-convergence at max_iter"
    per_seed = replace(cfg, record_edges=False)
    for i in sorted(handed):
        try:
            fp, trace = solve_coupled(fn, space, graph, *starts[i], per_seed)
        except Exception as exc:
            results[i] = None, False, f"{type(exc).__name__}: {exc}"
        else:
            results[i] = fp, trace.converged, None if trace.converged else "non-convergence at max_iter"
    return [SeedOutcome(i, x0, y0, *results[i]) for i, (x0, y0) in enumerate(starts)]


# Pairs per block of the clustering passes: the most rows of their batch calls.
_PAIR_BLOCK = 2048


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
    lockstep as one batch (maps with ``eval_batch`` are evaluated once
    per step for all seeds, others row by row); a seed that fails there
    is solved again by :func:`solve_coupled` alone.  Per-seed solver
    errors are recorded in the outcome and the probe continues.  Pair distance
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
