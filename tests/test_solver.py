from __future__ import annotations

import math

import numpy as np
import pytest

from coupled_fpi import (
    CallbackSpace,
    ChebyshevSpace,
    EuclideanSpace,
    ExpressionCoupledMap,
    ExpressionMultiMap,
    FiniteGraph,
    FiniteSet,
    FullGraph,
    HypothesisViolationError,
    InapplicableCheckError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    LinearCoupledMap,
    NonFiniteValueError,
    NotAVertexError,
    OrderGraph,
    PredicateGraph,
    SampleSpec,
    SeedEdgeError,
    SelectionFailureError,
    SingletonMultiMap,
    SolveConfig,
    as_finite_set,
    check_mbl,
    diagonal_decay_check,
    dist_to_set,
    real_line,
    solve_coupled,
    solve_coupled_multi,
    step_bound,
    tail_bound,
    uniqueness_probe,
)
from coupled_fpi.checks import SLACK, VIOLATION_CAP, _images
from coupled_fpi.errors import CoupledFpiError
from coupled_fpi.graphs import product_edge
from coupled_fpi import solver
from coupled_fpi.expressions import _POINT_VALUES
from coupled_fpi.solver import _pair_blocks, _run_iteration
from coupled_fpi.spaces import as_point

LINE = real_line()


def sum_fifth(x, y):
    return (x + y) / 5.0


def multi_sum_fifth(x, y):
    v = (np.asarray(x) + np.asarray(y)) / 5.0
    return [-v, v]


def random_contraction(rng):
    """Linear map with 2(|a|+|b|) < 0.9 plus its minimal constant."""
    s = rng.uniform(0.05, 0.45)
    t = rng.uniform(0.0, 1.0)
    a = s * t * rng.choice([-1.0, 1.0])
    b = s * (1.0 - t) * rng.choice([-1.0, 1.0])
    return LinearCoupledMap(a, b), 2.0 * s


def test_config_validation():
    with pytest.raises(InvalidParameterError, match=r"k must lie in \(0,1\)"):
        SolveConfig(k=1.0)
    with pytest.raises(InvalidParameterError):
        SolveConfig(k=0.5, tol=0.0)
    with pytest.raises(InvalidParameterError):
        SolveConfig(k=0.5, max_iter=0)
    with pytest.raises(InvalidParameterError):
        SolveConfig(k=0.5, max_iter=2.5)
    cfg = SolveConfig(k=0.5)
    assert cfg.tol == 1e-10 and cfg.max_iter == 1000


def test_step_bound_values():
    assert step_bound(2.0 / 3.0, 2.0, 0) == 1.0
    assert step_bound(2.0 / 5.0, 1.0, 1) == 0.2
    assert step_bound(0.5, 4.0, 3) == 0.25
    with pytest.raises(InvalidParameterError):
        step_bound(1.0, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        step_bound(0.5, -1.0, 0)
    with pytest.raises(InvalidParameterError):
        step_bound(0.5, 1.0, -1)


def test_tail_bound_values():
    assert tail_bound(0.5, 1.0, 0) == 1.0
    assert tail_bound(0.3, 0.0, 7) == 0.0
    want = (0.4 ** 5) * 1.0 / (2.0 * 0.6)
    assert tail_bound(0.4, 1.0, 5) == want
    # tail equals the summed per-step bounds
    partial = sum(step_bound(0.4, 1.0, n) for n in range(5, 200))
    assert math.isclose(tail_bound(0.4, 1.0, 5), partial, rel_tol=1e-12)


def test_sum_map_closed_form_iterates():
    # from (0,1): x_n = y_n = (1/5)(2/5)^(n-1), limit (0,0)
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-14, max_iter=60)
    fp, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    assert trace.converged
    assert trace.D0 == 1.0
    for step in trace.steps[1:31]:
        closed = (1.0 / 5.0) * (2.0 / 5.0) ** (step.n - 1)
        assert abs(step.x[0] - closed) <= 1e-12
        assert step.x[0] == step.y[0]
    assert abs(fp.x[0]) <= 1e-12 and abs(fp.y[0]) <= 1e-12
    assert fp.is_diagonal
    assert trace.residual <= 1e-10


def test_fixed_seed_converges_immediately():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=10)
    fp, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 0.0, cfg)
    assert trace.converged and len(trace.steps) == 1
    assert fp.x[0] == 0.0 and fp.y[0] == 0.0
    assert trace.residual == 0.0


def test_halving_map_closed_form():
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=80)
    fp, trace = solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    assert trace.converged
    for step in trace.steps:
        assert step.x[0] == 8.0 / 2.0 ** step.n  # exact: halving is lossless
        assert step.y[0] == 0.0
    assert abs(fp.x[0]) <= 1e-10 and fp.y[0] == 0.0


def test_seed_edge_error():
    cfg = SolveConfig(k=2.0 / 3.0)
    with pytest.raises(SeedEdgeError):
        solve_coupled(sum_fifth, LINE, OrderGraph(1), 5.0, 5.0, cfg)


def test_symmetry_from_equal_seeds():
    rng = np.random.default_rng(501)
    for _ in range(20):
        fn, k = random_contraction(rng)
        c = rng.uniform(-10.0, 10.0)
        cfg = SolveConfig(k=k, tol=1e-10, max_iter=200)
        fp, trace = solve_coupled(fn, LINE, FullGraph(1), c, c, cfg)
        for step in trace.steps:
            assert step.x[0] == step.y[0]
        assert fp.x[0] == fp.y[0]


def test_geometric_bound_and_summability():
    rng = np.random.default_rng(502)
    for _ in range(30):
        fn, k = random_contraction(rng)
        x0, y0 = rng.uniform(-10.0, 10.0, size=2)
        cfg = SolveConfig(k=k, tol=1e-10, max_iter=500, check_bounds=True)
        fp, trace = solve_coupled(fn, LINE, FullGraph(1), x0, y0, cfg)
        assert trace.converged
        total = 0.0
        for step in trace.steps:
            s = step.step_x + step.step_y
            assert s <= (k ** step.n) * trace.D0 + 1e-12
            assert step.bound == step_bound(k, trace.D0, step.n)
            total += s
        assert total <= trace.D0 / (1.0 - k) + 1e-9
        assert trace.residual <= 10.0 * (1.0 + k) * cfg.tol


def test_tail_bound_soundness_on_trace():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-14, max_iter=60)
    fp, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    for step in trace.steps:  # limit is exactly (0, 0)
        assert abs(step.x[0]) <= tail_bound(cfg.k, trace.D0, step.n) + cfg.tol
        assert abs(step.y[0]) <= tail_bound(cfg.k, trace.D0, step.n) + cfg.tol


def test_check_bounds_raises_on_wrong_k():
    # the halving map decays at 1/2 per step; declaring k = 0.1 is falsified
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.1, tol=1e-12, max_iter=50, check_bounds=True)
    with pytest.raises(HypothesisViolationError) as err:
        solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    assert err.value.step.n >= 1
    assert err.value.step.step_x + err.value.step.step_y > 2.0 * err.value.step.bound


def test_bound_violation_message_shows_plain_floats():
    # Euclidean step sizes in dimension 1 are numpy floats; the message
    # shows them as plain float reprs, like every other space
    cfg = SolveConfig(k=0.1, check_bounds=True)
    with pytest.raises(HypothesisViolationError) as err:
        solve_coupled(lambda x, y: 0.9 * x + 1.0, EuclideanSpace(1), FullGraph(1), 0.0, 0.0, cfg)
    assert str(err.value) == "step 1: step_x + step_y = 1.7999999999999998 exceeds k^n * D0 = 0.2"


def test_callbacks_that_write_into_their_arguments_cannot_change_the_trace():
    # the solvers hand their iterates to the metric and the graph without
    # copying them first; a callback that overwrites its arguments must not
    # reach the recorded trace
    def metric(p, q):
        value = float(np.abs(p - q).sum())
        p[:], q[:] = 1e9, -1e9
        return value

    def pred(p, q):
        ok = bool((p <= q).all())
        p[:], q[:] = 1e9, -1e9
        return ok

    clean_space = CallbackSpace(2, lambda p, q: float(np.abs(p - q).sum()))
    clean_graph = PredicateGraph(2, lambda p, q: bool((p <= q).all()))
    cfg = SolveConfig(k=0.61, tol=1e-10, max_iter=200, record_edges=True)
    fn = LinearCoupledMap(0.2, -0.1)
    multi = SingletonMultiMap(fn)
    x0, y0 = np.array([-1.0, -2.0]), np.array([1.0, 3.0])
    x1, y1 = fn(x0, y0), fn(y0, x0)
    runs = []
    for space, graph in ((clean_space, clean_graph), (CallbackSpace(2, metric), PredicateGraph(2, pred))):
        runs.append((solve_coupled(fn, space, graph, x0, y0, cfg),
                     solve_coupled_multi(multi, space, graph, x0, y0, x1, y1, cfg)))
    for (fp, clean), (fp_dirty, dirty) in zip(*runs):
        assert clean.converged and len(clean.steps) > 5
        assert all(s.edge_ok_x is True and s.edge_ok_y is True for s in clean.steps)
        assert repr(dirty) == repr(clean) and repr(fp_dirty) == repr(fp)
        for a, b in zip(clean.steps, dirty.steps):
            assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_record_edges_on_monotone_instance():
    fn = LinearCoupledMap(0.2, -0.1)
    cfg = SolveConfig(k=0.61, tol=1e-10, max_iter=200, record_edges=True)
    fp, trace = solve_coupled(fn, LINE, OrderGraph(1), -1.0, 1.0, cfg)
    assert trace.converged
    for step in trace.steps:
        assert step.edge_ok_x is True
        assert step.edge_ok_y is True


def test_edge_flags_default_to_none():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=60)
    _, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    assert all(s.edge_ok_x is None and s.edge_ok_y is None for s in trace.steps)


def test_non_convergence_is_a_result():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-14, max_iter=3)
    fp, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    assert not trace.converged
    assert len(trace.steps) == 3


def test_multi_sum_closed_form():
    # from (0,1) with x1 = y1 = -1/5: x_n = (-1/5)(2/5)^(n-1)
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-14, max_iter=60)
    fp, trace = solve_coupled_multi(
        multi_sum_fifth, LINE, FullGraph(1), 0.0, 1.0, -0.2, -0.2, cfg
    )
    assert trace.converged
    for step in trace.steps[1:31]:
        closed = (-1.0 / 5.0) * (2.0 / 5.0) ** (step.n - 1)
        assert abs(step.x[0] - closed) <= 1e-12
    assert abs(fp.x[0]) <= 1e-12 and abs(fp.y[0]) <= 1e-12


def test_multi_seed_membership_checked():
    cfg = SolveConfig(k=2.0 / 3.0)
    with pytest.raises(InvalidSeedError):
        solve_coupled_multi(multi_sum_fifth, LINE, FullGraph(1), 0.0, 1.0, 0.3, -0.2, cfg)


def test_multi_nan_seed_iterate_is_not_a_member():
    # a NaN distance to the image is no membership; an infinite point is a
    # member of an image that holds it (and fails later as non-finite)
    cfg = SolveConfig(k=2.0 / 3.0)
    half = lambda x, y: [0.5]
    with pytest.raises(InvalidSeedError, match="x1"):
        solve_coupled_multi(half, LINE, FullGraph(1), 0.0, 1.0, np.nan, 0.5, cfg)
    with pytest.raises(InvalidSeedError, match="y1"):
        solve_coupled_multi(half, LINE, FullGraph(1), 0.0, 1.0, 0.5, np.nan, cfg)
    fp, _ = solve_coupled_multi(half, LINE, FullGraph(1), 0.0, 1.0, 0.5, 0.5, cfg)
    assert fp.x[0] == fp.y[0] == 0.5


def test_multi_seed_edge_checked():
    # x1 = -1/5 is in the image but 0 <= -1/5 fails on the order graph
    cfg = SolveConfig(k=2.0 / 3.0)
    with pytest.raises(SeedEdgeError):
        solve_coupled_multi(multi_sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, -0.2, -0.2, cfg)


def test_selection_failure_when_no_admissible_candidate():
    g = FiniteGraph([0.0, 1.0, 3.0], edges=[(0.0, 1.0), (1.0, 0.0)])

    def fn(x, y):
        return FiniteSet([1.0]) if float(np.asarray(x).reshape(-1)[0]) == 0.0 else FiniteSet([3.0])

    cfg = SolveConfig(k=0.5, tol=1e-10, max_iter=10)
    with pytest.raises(SelectionFailureError, match="x-image"):
        solve_coupled_multi(fn, LINE, g, 0.0, 0.0, 1.0, 1.0, cfg)


def test_constant_image_converges():
    fn = lambda x, y: [np.array([0.0])]
    cfg = SolveConfig(k=0.5, tol=1e-10, max_iter=10)
    fp, trace = solve_coupled_multi(fn, LINE, FullGraph(1), 3.0, 5.0, 0.0, 0.0, cfg)
    assert trace.converged and len(trace.steps) <= 2
    assert fp.x[0] == 0.0 and fp.y[0] == 0.0
    assert trace.residual == 0.0


def test_multi_nan_images_are_non_finite_not_selection_failures():
    # halving while x >= 0.3, then an all-NaN image; the y-sequence of the
    # second seed crosses first
    def halving(x, y):
        v = float(x[0])
        return [x / 2.0] if v >= 0.3 else [np.full(1, np.nan), np.full(1, np.nan)]

    expr = ExpressionMultiMap(["x / 2 * (x - 0.25) / (x - 0.25)"] * 2, dimension=1)  # 0/0 at 0.25
    cfg = SolveConfig(k=0.6, tol=1e-12, max_iter=50)
    for fn in (halving, expr):
        with pytest.raises(NonFiniteValueError, match=r"^step 2: every point of the x-image is non-finite$"):
            solve_coupled_multi(fn, LINE, FullGraph(1), 1.0, 1.0, 0.5, 0.5, cfg)
    with pytest.raises(NonFiniteValueError, match=r"^step 2: every point of the y-image is non-finite$"):
        solve_coupled_multi(halving, LINE, FullGraph(1), 4.0, 1.0, 2.0, 0.5, cfg)
    # a finite point without the edge still blames the selection
    near = PredicateGraph(1, lambda p, q: bool(abs(q[0]) <= 1.0))
    partly = lambda x, y: [x / 2.0] if float(x[0]) >= 0.3 else [np.full(1, np.nan), x + 5.0]
    with pytest.raises(SelectionFailureError, match=r"^step 2: no edge-compatible candidate in the x-image"):
        solve_coupled_multi(partly, LINE, near, 1.0, 1.0, 0.5, 0.5, cfg)


def multi_oracle(fn, space, graph, x0, y0, x1, y1, cfg, seen):
    """solve_coupled_multi with each step written per side: a FiniteSet per
    image and the nearest admissible point of each.  The graph and metric
    calls keep the solver's order (x edges, y edges, x distances, y
    distances), and the x side fails before the y side."""
    d = space.dimension
    x0, y0, x1, y1 = (as_point(p, d) for p in (x0, y0, x1, y1))
    for p, a, b, name in ((x1, x0, y0, "x1 is not a point of F(x0, y0)"),
                          (y1, y0, x0, "y1 is not a point of F(y0, x0)")):
        image = as_finite_set(fn(a, b), d)
        if not (dist_to_set(space, p, image) <= SLACK or image.contains(p)):
            raise InvalidSeedError(name)

    def advance(n, xn, yn):
        raw = (fn(xn, yn), fn(yn, xn))
        images = [as_finite_set(r, d) for r in raw]
        if any(len(img) < len(r) for img, r in zip(images, raw)):
            seen.add("duplicate")
        anchors = [np.repeat(a[None, :], len(img), axis=0) for a, img in zip((xn, yn), images)]
        ok = (graph.edge_mask(anchors[0], images[0].points),
              graph.edge_mask(images[1].points, anchors[1]))
        dists = [space.distance_batch(a, img.points) for a, img in zip(anchors, images)]
        dists = [np.where(o & (dd < np.inf), dd, np.inf) for o, dd in zip(ok, dists)]
        picks = []
        for side, img, dist in zip("xy", images, dists):
            if not (dist < np.inf).any():
                seen.add(f"fail {side}" if side == "y" or (dists[1] < np.inf).any() else "fail both")
                if not np.isfinite(img.points).all(axis=1).any():
                    raise NonFiniteValueError(f"step {n}: every point of the {side}-image is non-finite")
                raise SelectionFailureError(
                    f"step {n}: no edge-compatible candidate in the {side}-image "
                    "(evidence the multivalued monotonicity hypothesis fails here)"
                )
            if (dist == dist.min()).sum() > 1:
                seen.add("tie")
            picks.append(img.points[int(np.argmin(dist))].copy())
        return picks[0], picks[1]

    def residual(x, y):
        return dist_to_set(space, x, as_finite_set(fn(x, y), d)) + dist_to_set(
            space, y, as_finite_set(fn(y, x), d))

    return _run_iteration(space, graph, cfg, (x0, y0, x1, y1),
                          "seed condition fails: ((x0,y0),(x1,y1)) is not a product edge",
                          advance, residual)


def multi_outcome(solve):
    """A solve's result as bytes and float hex, or its error, for bitwise comparison."""
    try:
        fp, trace = solve()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    steps = [(s.n, s.x.tobytes(), s.y.tobytes(), s.step_x.hex(), s.step_y.hex(),
              s.bound.hex(), s.diag.hex(), s.edge_ok_x, s.edge_ok_y) for s in trace.steps]
    return (steps, trace.D0.hex(), trace.converged, float(trace.residual).hex(),
            fp.x.tobytes(), fp.y.tobytes(), fp.is_diagonal)


def assert_multi_paths_agree(emm, space, graph, seed, cfg, seen, expected=None):
    """The batched step (emm has eval_batch), the plain-callable step and the
    oracle give bitwise the same trace, or the same error."""
    plain = lambda x, y: emm(x, y)
    got = multi_outcome(lambda: solve_coupled_multi(emm, space, graph, *seed, cfg))
    assert got == multi_outcome(lambda: solve_coupled_multi(plain, space, graph, *seed, cfg))
    assert got == multi_outcome(lambda: multi_oracle(emm, space, graph, *seed, cfg, seen))
    if expected is not None:
        assert got[0] == expected[0] and got[1].startswith(expected[1])
    seen.add(got[0] if isinstance(got[0], str) else "ok")
    return got


_DYADIC = ("-0.5", "-0.25", "0", "0.25", "0.5")


def _dyadic_point(rng, d):
    """One image point with dyadic affine components, exact for many steps."""
    return [f"{rng.choice(_DYADIC)} * x{rng.integers(1, d + 1)} + {rng.choice(_DYADIC)}"
            f" * y{rng.integers(1, d + 1)} + {rng.choice(('-1', '0', '0.5', '1'))}"
            for _ in range(d)]


def _dyadic_multi_map(rng, d, m):
    """m image points drawn from a pool of about m/2, so repeats are common;
    a pair x1 +- 0.5 (rest x) sits at one exact distance from the anchor."""
    pool = [_dyadic_point(rng, d) for _ in range(max(1, m // 2))]
    points = [pool[rng.integers(len(pool))] for _ in range(m)]
    if m >= 3 and rng.random() < 0.5:
        rest = [f"x{i}" for i in range(2, d + 1)]
        points[1:3] = [["x1 + 0.5"] + rest, ["x1 - 0.5"] + rest]
    return ExpressionMultiMap(points, dimension=d)


def _seed_iterate(image, admissible):
    """The first admissible image point, else the first point."""
    good = [p for p in image if admissible(p)]
    return (good or list(image))[0]


def test_multi_batched_step_matches_plain_and_oracle():
    rng = np.random.default_rng(505)
    cfg = SolveConfig(k=0.9, tol=1e-12, max_iter=25, record_edges=True)
    seen = set()
    for d in (1, 2, 3):
        for space in (EuclideanSpace(d), ChebyshevSpace(d)):
            for graph in (FullGraph(d), OrderGraph(d)):
                for m in range(1, 9):
                    emm = _dyadic_multi_map(rng, d, m)
                    x0, y0 = rng.integers(-8, 9, size=(2, d)) / 4.0
                    x1 = _seed_iterate(as_finite_set(emm(x0, y0), d), lambda p: graph.has_edge(x0, p))
                    y1 = _seed_iterate(as_finite_set(emm(y0, x0), d), lambda p: graph.has_edge(p, y0))
                    seed = (x0, y0, x1, y1)
                    assert_multi_paths_agree(emm, space, graph, seed, cfg, seen)
                    # ragged plain images: the side with x[0] < y[0] keeps one point
                    ragged = lambda x, y: emm(x, y)[:1 if x[0] < y[0] else m]
                    assert multi_outcome(
                        lambda: solve_coupled_multi(ragged, space, graph, *seed, cfg)
                    ) == multi_outcome(lambda: multi_oracle(ragged, space, graph, *seed, cfg, seen))
    assert seen >= {"ok", "duplicate", "tie", "fail x", "fail y", "fail both",
                    "SelectionFailureError", "SeedEdgeError"}


def test_multi_step_failure_order_on_finite_graph():
    # x-sequence 8, 4, 2, ...; y-sequence 3, 1.5, 0.75, ...
    emm = ExpressionMultiMap(["x / 2"], dimension=1)
    seed = (8.0, 3.0, 4.0, 1.5)
    cfg = SolveConfig(k=0.6, tol=1e-12, max_iter=10)
    seen = set()

    def graph(vertices, edges=()):
        return FiniteGraph(vertices, [(8.0, 4.0), (1.5, 3.0), *edges])

    # both images leave the vertex set: the x side's point is named
    assert_multi_paths_agree(emm, LINE, graph([8.0, 4.0, 3.0, 1.5]), seed, cfg, seen,
                             ("NotAVertexError", "point array([2.]) is not a vertex"))
    # the x side has no edge, the y side leaves the vertex set: every edge
    # test runs before a selection fails, so the graph error wins
    assert_multi_paths_agree(emm, LINE, graph([8.0, 4.0, 3.0, 1.5, 2.0]), seed, cfg, seen,
                             ("NotAVertexError", "point array([0.75]) is not a vertex"))
    # both sides without an edge: x first; the y side alone
    verts = [8.0, 4.0, 3.0, 1.5, 2.0, 0.75]
    assert_multi_paths_agree(emm, LINE, graph(verts), seed, cfg, seen,
                             ("SelectionFailureError", "step 1: no edge-compatible candidate in the x-image"))
    assert_multi_paths_agree(emm, LINE, graph(verts, [(4.0, 2.0)]), seed, cfg, seen,
                             ("SelectionFailureError", "step 1: no edge-compatible candidate in the y-image"))
    assert seen >= {"fail both", "fail y"}


def test_multi_eval_batch_shape_is_validated():
    class WrongShape:
        def __call__(self, x, y):
            return [x / 2.0]

        def eval_batch(self, X, Y):
            return np.zeros((3, 1, 1))

    cfg = SolveConfig(k=0.6, tol=1e-12, max_iter=10)
    with pytest.raises(InvalidInputError, match=r"eval_batch returned shape \(3, 1, 1\)"):
        solve_coupled_multi(WrongShape(), LINE, FullGraph(1), 1.0, 1.0, 0.5, 0.5, cfg)
    # the checkers share the image kernel
    with pytest.raises(InvalidInputError, match=r"eval_batch returned shape \(3, 1, 1\)"):
        check_mbl(WrongShape(), LINE, FullGraph(1), 0.5, SampleSpec(count=50, seed=1, low=-1.0, high=1.0))
    # a single-valued batch, (2, d), is read as one-point images
    lin = LinearCoupledMap(0.25, -0.5)
    seed = (np.array([1.0, 2.0]), np.array([-1.0, 0.5]))
    seed += (lin(*seed), lin(seed[1], seed[0]))
    space = EuclideanSpace(2)
    assert multi_outcome(lambda: solve_coupled_multi(lin, space, FullGraph(2), *seed, cfg)) == \
        multi_outcome(lambda: solve_coupled_multi(lambda x, y: [lin(x, y)], space, FullGraph(2), *seed, cfg))


def test_singleton_wrapper_degenerates_bitwise():
    rng = np.random.default_rng(503)
    for _ in range(15):
        fn, k = random_contraction(rng)
        x0, y0 = rng.uniform(-10.0, 10.0, size=2)
        cfg = SolveConfig(k=k, tol=1e-10, max_iter=300, record_edges=True)
        fp_s, tr_s = solve_coupled(fn, LINE, FullGraph(1), x0, y0, cfg)
        x1 = fn(np.array([x0]), np.array([y0]))
        y1 = fn(np.array([y0]), np.array([x0]))
        fp_m, tr_m = solve_coupled_multi(
            SingletonMultiMap(fn), LINE, FullGraph(1), x0, y0, x1, y1, cfg
        )
        assert len(tr_s.steps) == len(tr_m.steps)
        for a, b in zip(tr_s.steps, tr_m.steps):
            assert a.n == b.n
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            assert a.step_x == b.step_x and a.step_y == b.step_y
            assert a.bound == b.bound and a.diag == b.diag
            assert a.edge_ok_x == b.edge_ok_x and a.edge_ok_y == b.edge_ok_y
        assert tr_s.D0 == tr_m.D0
        assert tr_s.converged == tr_m.converged
        assert tr_s.residual == tr_m.residual
        assert np.array_equal(fp_s.x, fp_m.x) and np.array_equal(fp_s.y, fp_m.y)


def test_diagonal_decay_passes_on_sum_trace():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-12, max_iter=100)
    _, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    cert = diagonal_decay_check(trace, OrderGraph(1), 2.0 / 3.0)
    assert cert.passed
    assert cert.property_name == "diagonal_decay"


def test_diagonal_decay_trivial_on_diagonal_seed():
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=100)
    _, trace = solve_coupled(sum_fifth, LINE, FullGraph(1), 2.0, 2.0, cfg)
    assert diagonal_decay_check(trace, FullGraph(1), 0.5).passed


def test_diagonal_decay_at_equality():
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=80)
    _, trace = solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    assert diagonal_decay_check(trace, FullGraph(1), 0.5).passed


def test_diagonal_decay_violation_recorded():
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=80)
    _, trace = solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    cert = diagonal_decay_check(trace, FullGraph(1), 0.1)
    assert not cert.passed
    assert cert.violations[0]["n"] >= 1
    assert cert.violations[0]["diag"] > cert.violations[0]["bound"]


def test_diagonal_decay_caps_its_witnesses():
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=80)
    _, trace = solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    cert = diagonal_decay_check(trace, FullGraph(1), 0.1)
    over = [s.n for s in trace.steps if s.diag > 0.1 ** s.n * 8.0 + SLACK]
    assert cert.violation_count == len(over) > VIOLATION_CAP
    assert [v["n"] for v in cert.violations] == over[:VIOLATION_CAP]
    assert cert.samples_tested == len(trace.steps) and cert.detail == "k=0.1"


def test_diagonal_decay_inapplicable_without_seed_edge():
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=80)
    _, trace = solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    with pytest.raises(InapplicableCheckError):
        diagonal_decay_check(trace, OrderGraph(1), 0.5)  # 8 <= 0 fails
    from coupled_fpi import IterationTrace
    with pytest.raises(InvalidInputError):
        diagonal_decay_check(IterationTrace((), 0.0, False, 0.0), FullGraph(1), 0.5)


def test_uniqueness_probe_single_cluster():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=300)
    report = uniqueness_probe(
        sum_fifth, LINE, FullGraph(1), [(0.0, 1.0), (-3.0, 2.0), (5.0, 5.0)], cfg
    )
    assert len(report.clusters) == 1
    assert report.clusters[0] == (0, 1, 2)
    assert report.diameters[0] <= 2.0 * cfg.tol
    assert report.edge_violations == ()
    for outcome in report.outcomes:
        assert outcome.converged
        assert abs(outcome.point.x[0]) <= 1e-9


def test_uniqueness_probe_records_per_seed_errors():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=300)
    report = uniqueness_probe(sum_fifth, LINE, OrderGraph(1), [(0.0, 1.0), (5.0, 5.0)], cfg)
    good, bad = report.outcomes
    assert good.error is None and good.converged
    assert bad.point is None and "SeedEdgeError" in bad.error
    assert report.clusters == ((0,),)


def test_uniqueness_probe_halving_map():
    cfg = SolveConfig(k=0.5, tol=1e-10, max_iter=300)
    fn = lambda x, y: x / 2.0
    report = uniqueness_probe(fn, LINE, FullGraph(1), [(1.0, 1.0), (-1.0, -1.0)], cfg)
    assert len(report.clusters) == 1
    with pytest.raises(InvalidInputError):
        uniqueness_probe(fn, LINE, FullGraph(1), [], cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_steps_raise_in_both_solvers():
    nan_map = lambda x, y: np.full(1, np.nan)
    for check_bounds in (False, True):
        cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=50, check_bounds=check_bounds)
        with pytest.raises(NonFiniteValueError, match=r"^step 0: .*step_x = nan"):
            solve_coupled(nan_map, LINE, FullGraph(1), 0.0, 1.0, cfg)
        # finite at step 0, overflows to inf at step 1
        blow_up = lambda x, y: 1e300 * np.asarray(x) + 1.0
        with pytest.raises(NonFiniteValueError, match=r"^step 1: .*step_x = inf"):
            solve_coupled(blow_up, LINE, FullGraph(1), 1.0, 1.0, cfg)
        # the multivalued seed images hold an infinite point
        inf_map = lambda x, y: [np.asarray(x) * np.inf]
        with pytest.raises(NonFiniteValueError, match="^step 0: "):
            solve_coupled_multi(inf_map, LINE, FullGraph(1), 1.0, 1.0, np.inf, np.inf, cfg)


def test_uniqueness_probe_reports_non_finite_seeds():
    # NaN beyond x = 2 only: seeds past it fail, the others converge
    fn = lambda x, y: np.full(1, np.nan) if float(np.asarray(x)[0]) > 2.0 else 0.5 * np.asarray(x)
    cfg = SolveConfig(k=0.6, tol=1e-10, max_iter=200, check_bounds=True)
    report = uniqueness_probe(fn, LINE, FullGraph(1), [(1.0, 1.0), (3.0, 1.0), (-1.0, 5.0)], cfg)
    ok, nan_x, nan_y = report.outcomes
    assert ok.converged and ok.error is None
    assert nan_x.point is None and nan_x.error.startswith("NonFiniteValueError: step 0: ")
    assert nan_y.point is None and "step_y = nan" in nan_y.error
    assert report.clusters == ((0,),)


def test_uniqueness_probe_computes_no_edge_flags():
    # The iterates leave the finite graph's vertices after the seed edge;
    # solve_coupled with record_edges fails there, the probe does not look.
    graph = FiniteGraph([1.0, 0.5, 0.25], [(1.0, 0.5), (0.5, 1.0)])
    cfg = SolveConfig(k=0.6, tol=1e-10, max_iter=200, record_edges=True)
    fn = lambda x, y: 0.5 * np.asarray(x)
    with pytest.raises(NotAVertexError):
        solve_coupled(fn, LINE, graph, 1.0, 1.0, cfg)
    report = uniqueness_probe(fn, LINE, graph, [(1.0, 1.0)], cfg)
    assert report.outcomes[0].converged


def test_uniqueness_probe_ignores_record_edges_for_a_failing_seed():
    # The NaN second iterate is no vertex: solve_coupled with record_edges
    # stops at its edge flag, the probe reports the NaN step either way.
    graph = FiniteGraph([1.0, 0.5], [(1.0, 0.5), (0.5, 1.0)])
    fn = lambda x, y: 0.5 * np.asarray(x) if float(np.asarray(x)[0]) > 0.6 else np.full(1, np.nan)
    cfg = SolveConfig(k=0.6, tol=1e-10, max_iter=200, record_edges=True)
    with pytest.raises(NotAVertexError):
        solve_coupled(fn, LINE, graph, 1.0, 1.0, cfg)
    errors = [uniqueness_probe(fn, LINE, graph, [(1.0, 1.0)], c).outcomes[0].error
              for c in (cfg, SolveConfig(k=0.6, tol=1e-10, max_iter=200))]
    assert errors[0] == errors[1] == (
        "NonFiniteValueError: step 1: non-finite step size (step_x = nan, step_y = nan)")


def test_uniqueness_probe_fails_a_seed_whose_residual_cannot_be_measured():
    # max_iter = 1 ends at the pair (0.5, 0.5); its residual measures
    # F = 0.25 against it, and the metric has no value below 0.3.
    def metric(p, q):
        if min(abs(float(p[0])), abs(float(q[0]))) < 0.3:
            raise ValueError("no distance below 0.3")
        return abs(float(p[0] - q[0]))

    space, cfg = CallbackSpace(1, metric), SolveConfig(k=0.6, tol=1e-10, max_iter=1)
    fn = lambda x, y: 0.5 * np.asarray(x)
    with pytest.raises(ValueError, match="no distance below 0.3"):
        solve_coupled(fn, space, FullGraph(1), 1.0, 1.0, cfg)
    report = uniqueness_probe(fn, space, FullGraph(1), [(1.0, 1.0), (4.0, 4.0)], cfg)
    assert [o.error for o in report.outcomes] == [
        "ValueError: no distance below 0.3", "non-convergence at max_iter"]


class _RefusesOnePoint:
    """Affine map whose eval_batch raises on any batch with x = *bad* in a
    row, and whose plain call raises at x = *bad* alone."""

    def __init__(self, bad):
        self.bad = bad

    def __call__(self, x, y):
        if np.array_equal(x, self.bad):
            raise ValueError(f"no value at {np.asarray(x).tolist()}")
        return 0.3 * np.asarray(x) - 0.2 * np.asarray(y) + 0.1

    def eval_batch(self, X, Y):
        if (X == self.bad).all(axis=1).any():
            raise ValueError("the batch holds a refused point")
        return 0.3 * X - 0.2 * Y + 0.1


def test_uniqueness_probe_solves_every_seed_of_a_raising_batch_alone():
    # The refused point is the first iterate of seed 3, so the batch of
    # step 1 raises: seed 3 then fails with solve_coupled's own error, and
    # every other seed still iterating is solved again one at a time.
    space, graph = EuclideanSpace(2), PredicateGraph(2, lambda p, q: bool(p.sum() <= q.sum() + 0.5))
    rng = np.random.default_rng(9)
    seeds = [(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)) for _ in range(12)]
    fn = _RefusesOnePoint(0.3 * seeds[3][0] - 0.2 * seeds[3][1] + 0.1)
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=300, check_bounds=True)
    report = _assert_probe_is_oracle(fn, space, graph, seeds, cfg)
    outcomes = probe_oracle(fn, space, graph, seeds, cfg)[0]
    for got, (i, fp, converged, err) in zip(report.outcomes, outcomes, strict=True):
        assert (got.index, got.converged, got.error) == (i, converged, err)
        assert (got.point is None) == (fp is None)
        if fp is not None:
            assert got.point.x.tobytes() == fp.x.tobytes()
            assert got.point.y.tobytes() == fp.y.tobytes()
            assert got.point.is_diagonal == fp.is_diagonal
    errors = [o.error for o in report.outcomes]
    assert errors[3] == "ValueError: no value at " + repr(fn.bad.tolist())
    assert None in errors and any(e and e.startswith("SeedEdgeError") for e in errors)


def test_uniqueness_probe_keeps_seed_edge_failures_in_lockstep(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[3])
        return solve_coupled(*args)

    monkeypatch.setattr(solver, "solve_coupled", counting)
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=300)
    seeds = [(0.0, 1.0), (5.0, 5.0), (-3.0, 2.0), (1.0, -4.0)]
    report = uniqueness_probe(sum_fifth, LINE, OrderGraph(1), seeds, cfg)
    assert [o.error is None for o in report.outcomes] == [True, False, True, False]
    assert all(o.error.startswith("SeedEdgeError") for o in report.outcomes if o.error)
    assert calls == []
    # a rejected step is what solve_coupled is called for
    fn = lambda x, y: np.full(1, np.nan) if float(np.asarray(x)[0]) > 2.0 else 0.5 * np.asarray(x)
    report = uniqueness_probe(fn, LINE, FullGraph(1), [(1.0, 1.0), (3.0, 1.0)], cfg)
    assert report.outcomes[1].error.startswith("NonFiniteValueError")
    assert [float(x0[0]) for x0 in calls] == [3.0]


def test_uniqueness_probe_raises_what_a_clustering_edge_test_raises():
    # The limits 0 and 40/3 are far apart, so clustering tests them for a
    # product edge, and this graph refuses to compare points more than 5 apart.
    def pred(p, q):
        if abs(float(p[0]) - float(q[0])) > 5.0:
            raise InvalidInputError("points too far apart to compare")
        return bool(p[0] <= q[0])

    fn = lambda x, y: (x + y) / 5.0 + np.where(x < 5.0, 0.0, 8.0)
    cfg = SolveConfig(k=0.5, tol=1e-10, max_iter=300)
    with pytest.raises(InvalidInputError, match="too far apart"):
        uniqueness_probe(fn, LINE, PredicateGraph(1, pred), [(0.0, 1.0), (12.0, 13.0)], cfg)


def probe_oracle(fn, space, graph, seeds, cfg):
    """The probe written seed by seed: solve_coupled per seed, then the
    pairwise clustering loop.  Returns (outcomes, clusters, diameters,
    edge violations); an outcome is (index, point, converged, error)."""
    d = space.dimension
    outcomes = []
    for i, (sx, sy) in enumerate(seeds):
        try:
            fp, trace = solve_coupled(fn, space, graph, as_point(sx, d), as_point(sy, d), cfg)
        except Exception as exc:
            outcomes.append((i, None, False, f"{type(exc).__name__}: {exc}"))
            continue
        err = None if trace.converged else "non-convergence at max_iter"
        outcomes.append((i, fp, trace.converged, err))
    good = [(i, fp) for i, fp, converged, _ in outcomes if fp is not None and converged]

    def dist(p, q):
        return space.distance(p.x, q.x) + space.distance(p.y, q.y)

    component = {i: frozenset([i]) for i, _ in good}
    violations = []
    for a, (i, p) in enumerate(good):
        for j, q in good[a + 1:]:
            gap = dist(p, q)
            if gap <= 2.0 * cfg.tol:
                merged = component[i] | component[j]
                for m in merged:
                    component[m] = merged
            elif (product_edge(graph, (p.x, p.y), (q.x, q.y))
                  or product_edge(graph, (q.x, q.y), (p.x, p.y))):
                violations.append({"seeds": (i, j), "distance": float(gap)})
    clusters = tuple(sorted(tuple(sorted(c)) for c in set(component.values())))
    points = dict(good)
    # np.max keeps a NaN pair distance wherever it sits in the cluster
    diameters = tuple(
        float(np.max([dist(points[i], points[j]) for i in c for j in c if i < j] or [0.0]))
        for c in clusters
    )
    return outcomes, clusters, diameters, tuple(violations)


def _charted_l1(p, q):
    """L1 metric that raises, naming the point, outside the box |coordinate| <= 4."""
    for point in (p, q):
        if np.abs(point).max() > 4.0:
            raise ValueError(f"outside the chart at {point.tolist()}")
    return float(np.abs(p - q).sum())


def _spaces():
    return [EuclideanSpace(1), EuclideanSpace(2), ChebyshevSpace(2), CallbackSpace(2, _charted_l1)]


def _maps(d):
    if d == 1:
        expr = ExpressionCoupledMap(["0.3*x - 0.2*y + 0.5"], 1)
    else:
        expr = ExpressionCoupledMap(["0.3*x1 - 0.2*y1 + 0.1", "0.3*x2 - 0.2*y2 - 0.4"], 2)

    def raising(x, y):
        # Wrong dimension far out (at the seed), a ValueError naming the
        # argument near the fixed point 0 (on the way there, or only at
        # the final pair when max_iter is short), from either side.
        v = float(x[0])
        if v > 2.5:
            return np.zeros(d + 1)
        if abs(v) < 0.05:
            raise ValueError(f"no value at {v!r}")
        return 0.4 * x - 0.1 * y

    return {
        "expression": expr,
        "linear": LinearCoupledMap(0.25, -0.3),
        "lambda": lambda x, y: 0.3 * np.asarray(x) - 0.2 * np.asarray(y) + 0.2,
        "projection": lambda x, y: x,
        "raising": raising,
        "expanding": LinearCoupledMap(2.5, -0.5),
    }


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: f"{type(s).__name__}{s.dimension}")
def test_uniqueness_probe_matches_per_seed_oracle(space):
    _check_probe_against_oracle(space)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("space", _spaces(), ids=lambda s: f"{type(s).__name__}{s.dimension}")
def test_uniqueness_probe_matches_oracle_across_pair_blocks(space, block, monkeypatch):
    # small blocks put chains, merges and edge violations across block boundaries
    monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
    _check_probe_against_oracle(space)


def _check_probe_against_oracle(space):
    d = space.dimension
    graphs = {
        "order": OrderGraph(d),
        "full": FullGraph(d),
        "predicate": PredicateGraph(d, lambda p, q: bool(p.sum() <= q.sum() + 0.5)),
    }
    configs = {
        "valid_k": SolveConfig(k=0.65, tol=1e-9, max_iter=300, check_bounds=True),
        "small_k": SolveConfig(k=0.2, tol=1e-9, max_iter=300, check_bounds=True),
        "short": SolveConfig(k=0.65, tol=1e-9, max_iter=4),
    }
    rng = np.random.default_rng(2024 + d)
    seen = set()
    for graph in graphs.values():
        for name, fn in _maps(d).items():
            for cfg in configs.values():
                seeds = [(rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)) for _ in range(7)]
                seeds[1] = seeds[2]  # two seeds on one limit
                # Three seeds 0, 2h, h apart in x1 with h = 1.5 tol: the
                # projection keeps them, and only h links them into one chain.
                shift = np.zeros(d)
                shift[0] = 1.5 * cfg.tol
                seeds += [(seeds[0][0] + c * shift, seeds[0][1]) for c in (4.0, 6.0, 5.0)]
                report = uniqueness_probe(fn, space, graph, seeds, cfg)
                outcomes, clusters, diameters, violations = probe_oracle(fn, space, graph, seeds, cfg)
                assert len(report.outcomes) == len(outcomes)
                for got, (i, fp, converged, err) in zip(report.outcomes, outcomes):
                    assert (got.index, got.converged, got.error) == (i, converged, err)
                    assert got.x0.tobytes() == as_point(seeds[i][0], d).tobytes()
                    if fp is None:
                        assert got.point is None
                    else:
                        assert got.point.x.tobytes() == fp.x.tobytes()
                        assert got.point.y.tobytes() == fp.y.tobytes()
                        assert got.point.is_diagonal == fp.is_diagonal
                    seen.add((err or "ok").split(":")[0])
                assert report.clusters == clusters
                assert [x.hex() for x in map(float, report.diameters)] == [
                    x.hex() for x in map(float, diameters)]
                assert report.edge_violations == violations
                if name == "projection" and len(clusters) > 1:
                    seen.add("several clusters")
                if max(map(len, clusters), default=0) >= 3:
                    seen.add("chain")
                if violations:
                    seen.add("edge violations")
    assert seen >= {"ok", "SeedEdgeError", "HypothesisViolationError", "InvalidInputError",
                    "ValueError", "non-convergence at max_iter", "several clusters",
                    "chain", "edge violations"}


def _assert_probe_is_oracle(fn, space, graph, seeds, cfg):
    report = uniqueness_probe(fn, space, graph, seeds, cfg)
    _, clusters, diameters, violations = probe_oracle(fn, space, graph, seeds, cfg)
    assert report.clusters == clusters
    assert [x.hex() for x in map(float, report.diameters)] == [
        x.hex() for x in map(float, diameters)]
    # by float.hex, so that NaN distances compare equal
    assert [(v["seeds"], float(v["distance"]).hex()) for v in report.edge_violations] == [
        (v["seeds"], float(v["distance"]).hex()) for v in violations]
    return report


@pytest.mark.parametrize("n", range(8))
def test_pair_blocks_are_the_upper_triangle_in_row_major_order(n, monkeypatch):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for block in (1, 3, 7, 4096):
        monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
        blocks = list(_pair_blocks(n))
        assert all(0 < len(a) == len(b) <= block for a, b in blocks)
        assert [(a, b) for A, B in blocks for a, b in zip(A.tolist(), B.tolist())] == pairs


@pytest.mark.parametrize("nan_pair", [(0, 2), (1, 2)])
@pytest.mark.parametrize("far_seed", [False, True], ids=["one_cluster", "two_clusters"])
def test_uniqueness_probe_nan_pair_distance_gives_nan_diameter(nan_pair, far_seed):
    # Under the projection every seed is its own limit.  Three x-values
    # 1e-11 apart chain into one cluster; one pair of them measures NaN.
    xs = [0.0, 1e-11, 2e-11]
    bad = {xs[nan_pair[0]], xs[nan_pair[1]]}

    def metric(p, q):
        return math.nan if {float(p[0]), float(q[0])} == bad else abs(float(p[0] - q[0]))

    seeds = [(x, 1.0) for x in xs] + ([(5.0, 1.0)] if far_seed else [])
    cfg = SolveConfig(k=0.5, tol=1e-10, max_iter=10)
    report = _assert_probe_is_oracle(lambda x, y: x, CallbackSpace(1, metric), OrderGraph(1),
                                     seeds, cfg)
    assert report.clusters[0] == (0, 1, 2)
    assert math.isnan(report.diameters[0])
    if far_seed:
        assert report.clusters[1:] == ((3,),) and report.diameters[1:] == (0.0,)


@pytest.mark.parametrize("block", [None, 7])
def test_uniqueness_probe_many_clusters_and_edge_violation_order(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(60)
    seeds = [(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)) for _ in range(60)]
    cfg = SolveConfig(k=0.5, tol=1e-10, max_iter=10)
    report = _assert_probe_is_oracle(lambda x, y: x, EuclideanSpace(2), OrderGraph(2), seeds, cfg)
    assert report.clusters == tuple((i,) for i in range(60))
    assert report.diameters == (0.0,) * 60
    order = [v["seeds"] for v in report.edge_violations]
    assert len(order) > 60 and order == sorted(order)


class _Recording:
    """Wraps a space or graph and records the rows of every batch call."""

    def __init__(self, inner, rows):
        self._inner, self.rows = inner, rows

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def distance_batch(self, P, Q):
        self.rows.append(("distance_batch", len(P)))
        return self._inner.distance_batch(P, Q)

    def edge_mask(self, P, Q):
        self.rows.append(("edge_mask", len(P)))
        return self._inner.edge_mask(P, Q)


@pytest.mark.parametrize("fn", [sum_fifth, lambda x, y: x], ids=["one_limit", "distinct_limits"])
def test_cluster_batch_calls_stay_within_a_pair_block(fn):
    rng = np.random.default_rng(400)
    # (x, -x) with x <= 0: sum_fifth meets its seed edge, and under the
    # projection every two of the distinct limits are joined by an edge
    seeds = [(x, -x) for x in rng.uniform(-3, 0, 400)]
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=300)
    report = uniqueness_probe(fn, LINE, OrderGraph(1), seeds, cfg)
    good = [o for o in report.outcomes if o.converged]
    assert len(good) == 400
    rows = []
    got = solver._cluster(_Recording(LINE, rows), _Recording(OrderGraph(1), rows), good, cfg.tol)
    assert got == (report.clusters, report.diameters, report.edge_violations)
    pairs = 400 * 399 // 2
    assert max(n for _, n in rows) <= solver._PAIR_BLOCK
    assert sum(n for call, n in rows if call == "distance_batch") == 2 * pairs
    if fn is sum_fifth:
        assert len(report.clusters) == 1 and not any(call == "edge_mask" for call, _ in rows)
    else:
        assert len(report.clusters) == 400 and len(report.edge_violations) == pairs


def _numpy_step(emm, space, graph, Z, n):
    """The numpy multivalued step on the pair Z = [x_n; y_n], as bytes or its error."""
    try:
        x, y = solver._select_step(space, graph, _images(emm, Z, Z[::-1], space.dimension, True), Z, n)
    except CoupledFpiError as exc:
        return type(exc).__name__, str(exc)
    return x.tobytes(), y.tobytes()


# Components for the float step test: dyadic affine maps, exact ties around
# x1, signed zeros, values whose squares or differences overflow, an
# infinite and a NaN value, and a zero divisor.
_FLOAT_STEP_COMPONENTS = (
    "0.5 * x1 - 0.25 * y1", "x1 + 0.5", "x1 - 0.5", "y1 - 0.25", "0", "-0.0", "0 * -1",
    "1e308", "-1e308", "0.5 * x1 + 1e200", "1e308 * 10", "-1e308 * 10",
    "1e308 * 10 - 1e308 * 10", "1 / (x1 - x1)",
)
_FLOAT_STEP_ANCHORS = (0.0, -0.0, 0.25, -0.5, 1.0, 1e308, -1e308, 1e200)


def test_float_step_matches_numpy_step():
    # The float step gives the numpy step's two rows bit for bit, or hands
    # the step back; the numpy step then gives the rows or the error.
    rng = np.random.default_rng(909)
    seen = set()
    for d in (1, 2, 3):
        for space in (EuclideanSpace(d), ChebyshevSpace(d)):
            for graph in (FullGraph(d), OrderGraph(d)):
                for m in range(1, 9):
                    for _ in range(6):
                        pool = rng.choice(len(_FLOAT_STEP_COMPONENTS), size=3)
                        points = [[_FLOAT_STEP_COMPONENTS[rng.choice(pool)] for _ in range(d)]
                                  for _ in range(m)]
                        emm = ExpressionMultiMap(points, dimension=d)
                        Z = rng.choice(_FLOAT_STEP_ANCHORS, size=(2, d))
                        step = solver._float_step(emm, space, graph)
                        if step is None:  # past the float step's size
                            assert 2 * m * d > _POINT_VALUES
                            continue
                        with np.errstate(over="ignore"):
                            want = _numpy_step(emm, space, graph, Z, 7)
                            images = _images(emm, Z, Z[::-1], d, True).reshape(2 * m, d)
                            gaps = space.distance_batch(np.repeat(Z, m, axis=0), images)
                        got = step(Z[0].tolist(), Z[1].tolist())
                        if got is None:
                            seen.add(want[0] if isinstance(want[0], str) else "handed back, rows")
                            continue
                        assert (got[0].tobytes(), got[1].tobytes()) == want, (points, Z)
                        seen.add("rows")
                        if np.isinf(gaps).any():
                            seen.add("overflow")
                        if any(v == 0.0 and math.copysign(1.0, v) < 0 for v in (*got[0], *got[1])):
                            seen.add("signed zero")
    assert seen == {"rows", "overflow", "signed zero", "handed back, rows",
                    "NonFiniteValueError", "SelectionFailureError"}


def test_float_step_ties_go_to_the_lowest_index():
    # x1 + 0.5 and x1 - 0.5, and 0 and -0.0, are equally near; the first wins
    for points, want in (([["x1 + 0.5"], ["x1 - 0.5"]], 1.5), ([["x1 - 0.5"], ["x1 + 0.5"]], 0.5),
                         ([["-0.0"], ["0"]], -0.0), ([["0"], ["-0.0"]], 0.0)):
        emm = ExpressionMultiMap(points)
        for space in (LINE, ChebyshevSpace(1)):
            x, y = solver._float_step(emm, space, FullGraph(1))([1.0 if want else 0.0], [0.0])
            Z = np.array([[1.0 if want else 0.0], [0.0]])
            assert (x.tobytes(), y.tobytes()) == _numpy_step(emm, space, FullGraph(1), Z, 1)
            assert x.tobytes() == np.array([want]).tobytes()


def test_float_step_only_where_map_metric_and_graph_have_a_float_rule():
    emm = ExpressionMultiMap([["x1", "x2"]], dimension=2)
    assert solver._float_step(emm, EuclideanSpace(2), OrderGraph(2)) is not None
    others = [
        (lambda x, y: emm(x, y), EuclideanSpace(2), OrderGraph(2)),
        (emm, CallbackSpace(2, lambda p, q: 0.0), OrderGraph(2)),
        (emm, EuclideanSpace(2), PredicateGraph(2, lambda p, q: True)),
        (emm, EuclideanSpace(2), FiniteGraph([[0.0, 0.0]])),
    ]
    assert all(solver._float_step(*args) is None for args in others)
    # from 8 coordinates numpy sums the squares pairwise
    wide = ExpressionMultiMap([[f"x{i}" for i in range(1, 9)]], dimension=8)
    assert solver._float_step(wide, EuclideanSpace(8), FullGraph(8)) is None
    assert solver._float_step(wide, ChebyshevSpace(8), FullGraph(8)) is not None
    # past _POINT_VALUES values in a step's two images numpy steps as fast
    for m, d, floats in ((16, 1, True), (17, 1, False), (8, 2, True), (3, 6, False)):
        emm = ExpressionMultiMap([["x1"] * d] * m, dimension=d)
        assert (solver._float_step(emm, ChebyshevSpace(d), FullGraph(d)) is not None) == floats
