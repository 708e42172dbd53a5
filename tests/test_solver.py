from __future__ import annotations

import math

import numpy as np
import pytest

from coupled_fpi import (
    CallbackSpace,
    ChebyshevSpace,
    CoupledFixedPoint,
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
    TraceStep,
    as_finite_set,
    check_bl,
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
from coupled_fpi.expressions import _BLOCK_VALUES
from coupled_fpi.errors import CoupledFpiError
from coupled_fpi.graphs import product_edge
from coupled_fpi import solver
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
    with pytest.raises(InvalidParameterError, match="^k must be a number, got '0.5'$"):
        SolveConfig(k="0.5")
    for tol in ("1e-3", None, True, -1e-3):
        with pytest.raises(InvalidParameterError, match="^tol must be a positive number, got "):
            SolveConfig(k=0.5, tol=tol)
    with pytest.raises(InvalidParameterError, match="^tol must be finite, got inf$"):
        SolveConfig(k=0.5, tol=math.inf)
    for flag, bad in (("check_bounds", "no"), ("record_edges", 1), ("record_edges", None)):
        with pytest.raises(InvalidParameterError, match=f"^{flag} must be a boolean, got {bad!r}$"):
            SolveConfig(k=0.5, **{flag: bad})
    cfg = SolveConfig(k=0.5)
    assert cfg.tol == 1e-10 and cfg.max_iter == 1000
    # numpy's numbers and flags are taken and kept as Python types
    cfg = SolveConfig(k=np.float64(0.5), tol=np.float32(1e-3), check_bounds=np.True_)
    assert type(cfg.k) is float and type(cfg.tol) is float and cfg.tol == float(np.float32(1e-3))
    assert cfg.check_bounds is True and cfg.record_edges is False


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
    for bound in (step_bound, tail_bound):
        for D0, want in (("1", "a number, got '1'"), (None, "a number, got None"),
                         (math.inf, "finite, got inf")):
            with pytest.raises(InvalidParameterError, match=f"^D0 must be {want}$"):
                bound(0.5, D0, 0)


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


def test_trace_step_is_an_immutable_record():
    x, y = np.array([0.0]), np.array([1.0])
    step = TraceStep(n=3, x=x, y=y, step_x=0.5, step_y=0.25, bound=0.5, diag=1.0)
    assert TraceStep._fields == ("n", "x", "y", "step_x", "step_y", "bound", "diag",
                                 "edge_ok_x", "edge_ok_y")
    assert (step.edge_ok_x, step.edge_ok_y) == (None, None)
    assert step.n == 3 and step.x is x and step.y is y and step.diag == 1.0
    assert TraceStep(3, x, y, 0.5, 0.25, 0.5, 1.0, True, False).edge_ok_y is False
    for name in TraceStep._fields:
        with pytest.raises(AttributeError):
            setattr(step, name, None)


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

    def advance(n, xn, yn, fx, fy):  # without float rules, fx and fy are None
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


@pytest.mark.parametrize("diags, offending", [
    ((math.nan, 0.5, 0.25), [0, 1, 2]),  # a NaN d0 makes every bound NaN
    ((1.0, math.nan, 0.25), [1]),
    ((math.inf, 0.5, 0.25), [0]),  # an infinite d0 bounds the later steps by inf
    ((1.0, math.inf, 0.25), [1]),
], ids=["nan_d0", "nan_diag", "inf_d0", "inf_diag"])
def test_diagonal_decay_offends_at_a_non_finite_diag(diags, offending):
    # diag > bound is False for a NaN on either side and for inf > inf,
    # so testing that alone passed all four traces with no violation.
    from coupled_fpi import IterationTrace
    steps = tuple(TraceStep(n, np.zeros(1), np.zeros(1), 0.0, 0.0, 0.0, diag)
                  for n, diag in enumerate(diags))
    cert = diagonal_decay_check(IterationTrace(steps, 0.0, True, 0.0), FullGraph(1), 0.5)
    assert not cert.passed
    assert [v["n"] for v in cert.violations] == offending and cert.violation_count == len(offending)
    assert cert.samples_tested == len(diags)


def test_diagonal_decay_certificate_of_a_finite_trace_is_unchanged():
    fn = lambda x, y: x / 2.0
    cfg = SolveConfig(k=0.5, tol=1e-12, max_iter=80)
    _, trace = solve_coupled(fn, LINE, FullGraph(1), 8.0, 0.0, cfg)
    d0 = trace.steps[0].diag
    for k in (0.5, 0.45, 0.1):
        cert = diagonal_decay_check(trace, FullGraph(1), k)
        over = [s for s in trace.steps if s.diag > (k ** s.n) * d0 + SLACK]  # the finite rule
        assert cert.passed == (not over) and cert.violation_count == len(over)
        assert list(cert.violations) == [
            {"n": s.n, "diag": float(s.diag), "bound": float((k ** s.n) * d0)} for s in over
        ][:VIOLATION_CAP]
        assert (cert.samples_tested, cert.detail) == (len(trace.steps), f"k={k!r}")


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
        # inf - inf in the second coordinate only: the Chebyshev float rule,
        # Python's max, would drop that NaN, so a non-finite iterate takes
        # its step sizes from numpy, which keeps it
        nan_second = ExpressionCoupledMap(["(x1 + y1) / 5", "x2 * 1e308 * 10 - y2 * 1e308 * 10"], 2)
        with pytest.raises(NonFiniteValueError,
                           match=r"^step 0: non-finite step size \(step_x = nan, step_y = nan\)$"):
            solve_coupled(nan_second, ChebyshevSpace(2), FullGraph(2), [0.0, 0.5], [1.0, 0.25], cfg)
        # the same after a finite step, from iterates the float rules produced
        nan_later = ExpressionCoupledMap(["(x1 + y1) / 5", "x2 * x2 * 1e300 - y2 * y2 * 1e300"], 2)
        with pytest.raises(NonFiniteValueError,
                           match=r"^step 1: non-finite step size \(step_x = nan, step_y = nan\)$"):
            solve_coupled(nan_later, ChebyshevSpace(2), FullGraph(2), [0.0, 1.0], [1.0, 0.0], cfg)


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


@pytest.mark.parametrize("graph", [OrderGraph(1), FullGraph(1)], ids=["order", "full"])
def test_uniqueness_probe_quietens_the_row_hook(graph, monkeypatch):
    # The column call runs under the probe's errstate: 0/0 at the seed x = 2
    # gives a NaN image there, and no RuntimeWarning (an error in this
    # suite) hands every seed to solve_coupled.  Only the seed whose step is
    # NaN goes there.
    calls = []
    solve = solver.solve_coupled
    monkeypatch.setattr(solver, "solve_coupled",
                        lambda *args, **kwargs: calls.append(args[3]) or solve(*args, **kwargs))
    fn = ExpressionCoupledMap(["0.3*x - 0.2*y + 0.5 + 0/(x - 2)"], 1)
    seeds = [(2.0, 1.0), (0.0, 1.0), (-1.0, 3.0)]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=300)
    report = _assert_probe_is_oracle(fn, LINE, graph, seeds, cfg)
    errors = [(o.error or "ok").split(":")[0] for o in report.outcomes]
    if isinstance(graph, OrderGraph):
        assert errors == ["SeedEdgeError", "ok", "ok"] and calls == []
    else:
        assert errors == ["NonFiniteValueError", "ok", "ok"]
        assert [float(x0[0]) for x0 in calls] == [2.0]


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


class _NarrowBatch:
    """An affine map whose eval_batch returns only the first coordinate, as
    (n, 1) rows: the right shape at d = 1, and one that broadcasts at d = 2."""

    def __init__(self, d):
        self.d = d

    def __call__(self, x, y):
        return 0.3 * np.asarray(x) - 0.2 * np.asarray(y) + 0.1

    def eval_batch(self, X, Y):
        return (0.3 * X - 0.2 * Y + 0.1)[:, :1]


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
        "narrow_batch": _NarrowBatch(d),
        "linear": LinearCoupledMap(0.25, -0.3),
        "lambda": lambda x, y: 0.3 * np.asarray(x) - 0.2 * np.asarray(y) + 0.2,
        "projection": lambda x, y: x,
        "raising": raising,
        "expanding": LinearCoupledMap(2.5, -0.5),
        # nonlinear: the ratio of successive step totals drifts as the iterates approach 0
        "drifting": ExpressionCoupledMap(
            [f"x{j} / (5 + x{j} * x{j}) - y{j} / 7" if d > 1 else "x / (5 + x * x) - y / 7"
             for j in range(1, d + 1)], d),
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


@pytest.mark.parametrize("block", [1, 2, 3, 8])
@pytest.mark.parametrize("space", _spaces(), ids=lambda s: f"{type(s).__name__}{s.dimension}")
def test_uniqueness_probe_matches_oracle_across_step_blocks(space, block, monkeypatch):
    # small blocks put stops, bound failures, raises and max_iter in the
    # middle of the lockstep blocks and on their edges
    monkeypatch.setattr(solver, "_STEP_BLOCK", block)
    _check_probe_against_oracle(space)


def test_next_block_extends_each_rows_ratio_to_the_stopping_rule():
    # k = 1/2, so a row stops at a step total <= tol = 1e-6: from 0.5 at
    # ratio 1/2 that is 19 steps on (0.5 ** 20 < 1e-6 < 0.5 ** 19)
    cfg = SolveConfig(k=0.5, tol=1e-6)

    def block(before, last, d=1):
        return solver._next_block(cfg, np.array(before), np.array(last), d)

    assert block([1.0], [0.5]) == 19
    assert block([1.0, 1.0], [0.5, 0.25]) == 19  # the slowest row
    assert block([1.0], [1e-6]) == 1  # at the threshold, one step
    assert block([1.0], [1e-30]) == 1  # below it (a row about to stop), one step
    # no step before the first, a ratio of 1 or more: no prediction
    assert block([math.nan], [0.5]) == solver._STEP_BLOCK
    assert block([1.0, 0.5], [0.5, 0.5]) == solver._STEP_BLOCK
    assert block([1.0, 0.25], [0.5, 0.5]) == solver._STEP_BLOCK
    # a slow ratio runs into the value cap, never below _STEP_BLOCK steps
    assert block([1.0], [0.999]) == _BLOCK_VALUES // 2
    assert block([1.0] * 3, [0.999] * 3, d=2) == _BLOCK_VALUES // 12
    assert block([1.0] * 1000, [0.999] * 1000) == solver._STEP_BLOCK


def _block_shapes(monkeypatch) -> list:
    """The (K, a) step totals of every lockstep block the probe checks from now on."""
    shapes = []
    rule = solver._step_rule
    monkeypatch.setattr(solver, "_step_rule", lambda cfg, kn, total, D0: (
        np.ndim(total) == 2 and shapes.append(total.shape)) or rule(cfg, kn, total, D0))
    return shapes


@pytest.mark.parametrize("d", [1, 2])
def test_uniqueness_probe_blocks_run_to_the_predicted_stop_within_the_value_cap(d, monkeypatch):
    # After a first block of _STEP_BLOCK steps each block runs to the slowest
    # row's predicted stop, so the probe makes at most one step past the
    # stepwise count, and no block's (K + 1, d, 2a) iterates pass
    # _BLOCK_VALUES unless it has at most _STEP_BLOCK steps.
    shapes = _block_shapes(monkeypatch)
    fn, space, graph = LinearCoupledMap(0.3, -0.25), EuclideanSpace(d), FullGraph(d)
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=300, check_bounds=True)
    rng = np.random.default_rng(370 + d)
    seen = set()
    for count in (25, 400):
        seeds = [(rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)) for _ in range(count)]
        del shapes[:]
        report = uniqueness_probe(fn, space, graph, seeds, cfg)
        blocks = list(shapes)
        assert all(o.converged for o in report.outcomes)
        stepwise = max(len(solve_coupled(fn, space, graph, *seed, cfg)[1].steps) for seed in seeds)
        assert stepwise <= sum(K for K, _ in blocks) <= stepwise + 1
        assert blocks[0][0] == solver._STEP_BLOCK
        for K, a in blocks:
            cap = max(solver._STEP_BLOCK, _BLOCK_VALUES // (2 * a * d))
            assert 1 <= K <= cap
            seen.add("capped" if K == cap > solver._STEP_BLOCK else
                     "predicted" if K > solver._STEP_BLOCK else "short")
    assert seen >= ({"predicted", "capped"} if d == 1 else {"predicted"})


@pytest.mark.parametrize("fn", [ExpressionCoupledMap(["x + 1"], 1), LinearCoupledMap(2.5, -0.5)],
                         ids=["ratio_one", "expanding"])
def test_uniqueness_probe_without_decay_keeps_step_blocks(fn, monkeypatch):
    # Step totals that stay level or grow in the first block predict no
    # stop, so every later block has _STEP_BLOCK steps, bar what max_iter leaves.
    shapes = _block_shapes(monkeypatch)
    seeds = [(0.5, 1.0), (-1.0, 2.0), (3.0, -2.0)]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=30)
    report = uniqueness_probe(fn, LINE, FullGraph(1), seeds, cfg)
    assert [K for K, _ in shapes] == [8, 8, 8, 6]
    assert [o.error for o in report.outcomes] == ["non-convergence at max_iter"] * 3
    for got, (_, fp, _, _) in zip(report.outcomes, probe_oracle(fn, LINE, FullGraph(1), seeds, cfg)[0]):
        assert (got.point.x.tobytes(), got.point.y.tobytes()) == (fp.x.tobytes(), fp.y.tobytes())


def test_uniqueness_probe_max_iter_cuts_a_predicted_block(monkeypatch):
    # The oracle check's "inside_prediction" max_iter of 20 ends the second
    # block after 12 steps, where the prediction asks for more.
    shapes = _block_shapes(monkeypatch)
    fn, seeds = _maps(1)["linear"], [(2.0, -1.0), (0.5, 3.0)]
    for max_iter, error in ((300, None), (20, "non-convergence at max_iter")):
        del shapes[:]
        cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=max_iter, check_bounds=True)
        report = uniqueness_probe(fn, LINE, FullGraph(1), seeds, cfg)
        assert [o.error for o in report.outcomes] == [error] * 2
        lengths = [K for K, _ in shapes]
        if error is None:
            assert lengths[0] == solver._STEP_BLOCK and lengths[1] > 12
        else:
            assert lengths == [solver._STEP_BLOCK, 12]


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
        "one_block": SolveConfig(k=0.65, tol=1e-9, max_iter=8, check_bounds=True),
        "two_blocks": SolveConfig(k=0.65, tol=1e-9, max_iter=16),
        # past the first block the prediction asks for more steps than max_iter leaves
        "inside_prediction": SolveConfig(k=0.65, tol=1e-9, max_iter=20, check_bounds=True),
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
                # infinite seeds: solve_coupled measures a non-finite step or fails
                inf = np.full(d, np.inf)
                seeds += [(inf, seeds[3][1]), (seeds[4][0], -inf), (inf, inf)]
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


def _assert_same_report(got, want):
    """Two probe reports agree bit for bit: outcomes, clusters, diameters
    and edge violations, floats compared by float.hex and points by bytes."""
    assert len(got.outcomes) == len(want.outcomes)
    for a, b in zip(got.outcomes, want.outcomes):
        assert (a.index, a.converged, a.error) == (b.index, b.converged, b.error)
        assert (a.x0.tobytes(), a.y0.tobytes()) == (b.x0.tobytes(), b.y0.tobytes())
        assert (a.point is None) == (b.point is None)
        if a.point is not None:
            assert (a.point.x.tobytes(), a.point.y.tobytes(), a.point.is_diagonal) == (
                b.point.x.tobytes(), b.point.y.tobytes(), b.point.is_diagonal)
    assert got.clusters == want.clusters
    assert [float(x).hex() for x in got.diameters] == [float(x).hex() for x in want.diameters]
    assert [(v["seeds"], float(v["distance"]).hex()) for v in got.edge_violations] == [
        (v["seeds"], float(v["distance"]).hex()) for v in want.edge_violations]


@pytest.mark.parametrize("count", [25, 100])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("metric", [EuclideanSpace, ChebyshevSpace])
def test_uniqueness_probe_row_hook_matches_the_validated_path(count, d, metric, monkeypatch):
    _check_row_hook_against_validated_path(count, d, metric, monkeypatch)


@pytest.mark.parametrize("block", [1, 2, 3, 8])
@pytest.mark.parametrize("d", [1, 2])
def test_uniqueness_probe_row_hook_matches_across_step_blocks(d, block, monkeypatch):
    monkeypatch.setattr(solver, "_STEP_BLOCK", block)
    _check_row_hook_against_validated_path(25, d, EuclideanSpace, monkeypatch)


def _check_row_hook_against_validated_path(count, d, metric, monkeypatch):
    # Expression and linear maps step the lockstep batch through on_floats on
    # float64 columns; a plain callable around the same map has no on_floats
    # and is evaluated through _images, row by row.  Both give the same
    # report, and neither hands a seed to solve_coupled: the batch ends every
    # row itself.
    space, graph = metric(d), OrderGraph(d)
    calls, handed = [], []
    checked = _images
    monkeypatch.setattr(solver, "_images",
                        lambda *args, **kwargs: calls.append(args) or checked(*args, **kwargs))
    monkeypatch.setattr(solver, "solve_coupled", lambda *args, **kwargs: handed.append(args))
    if d == 1:
        maps = [ExpressionCoupledMap(["0.3*x - 0.2*y + 0.5"], 1), ExpressionCoupledMap(["x"], 1)]
    else:
        maps = [ExpressionCoupledMap(["0.3*x1 - 0.2*y1 + 0.1", "0.3*x2 - 0.2*y2 - 0.4"], 2),
                ExpressionCoupledMap(["x1", "x2"], 2)]
    maps.append(LinearCoupledMap(0.3, -0.2))
    rng = np.random.default_rng(100 * count + d)
    # Seeds from 1e-6 to 100 away from the limit: with max_iter = 12 the
    # far ones stop unconverged, and on the order graph some fail the seed edge.
    seeds = [tuple(10.0 ** rng.uniform(-6, 2) * rng.uniform(-1, 1, d) for _ in "xy")
             for _ in range(count)]
    seen = set()
    for max_iter in (8, 12, 16, 300):
        cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=max_iter, check_bounds=True)
        for fn in maps:
            del calls[:]
            hooked = uniqueness_probe(fn, space, graph, seeds, cfg)
            assert calls == []
            plain = uniqueness_probe(lambda x, y: fn(x, y), space, graph, seeds, cfg)
            assert calls
            _assert_same_report(hooked, plain)
            seen.update((o.error or "ok").split(":")[0] for o in hooked.outcomes)
            if hooked.edge_violations:
                seen.add("edge violations")
    assert seen == {"ok", "SeedEdgeError", "non-convergence at max_iter", "edge violations"}
    assert handed == []


@pytest.mark.parametrize("d", [1, 2])
def test_uniqueness_probe_fails_every_seed_of_a_multivalued_map(d):
    # A multivalued map's two-point images are no points, so every seed
    # fails as solve_coupled fails on it.
    emm = ExpressionMultiMap([["0.3*x1 - 0.2*y1"] * d, ["x1"] * d], d)
    rng = np.random.default_rng(7)
    seeds = [(rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)) for _ in range(6)]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=50)
    report = uniqueness_probe(emm, EuclideanSpace(d), FullGraph(d), seeds, cfg)
    want = f"InvalidInputError: a point must be a flat vector, got shape (2, {d})"
    assert [o.error for o in report.outcomes] == [want] * len(seeds)
    with pytest.raises(InvalidInputError):
        solve_coupled(emm, EuclideanSpace(d), FullGraph(d), *seeds[0], cfg)
    assert report.clusters == ()


def _columns_against_plain(fn, space, graph, seeds, cfg, monkeypatch):
    """The probe of *fn*, stepped through its ``on_floats`` on float64 columns,
    and of a plain callable around it, stepped through ``_images``, agree bit
    for bit.  Returns the first report and the x0 of each seed it handed to
    solve_coupled."""
    handed = []
    solve = solver.solve_coupled
    monkeypatch.setattr(solver, "solve_coupled",
                        lambda *args, **kwargs: handed.append(float(args[3][0])) or solve(*args, **kwargs))
    columns = uniqueness_probe(fn, space, graph, seeds, cfg)
    by_columns = list(handed)
    _assert_same_report(columns, uniqueness_probe(lambda x, y: fn(x, y), space, graph, seeds, cfg))
    return columns, by_columns


@pytest.mark.parametrize("graph", [OrderGraph(2), FullGraph(2)], ids=["order", "full"])
def test_probe_columns_broadcast_a_constant_component(graph, monkeypatch):
    # The fused function gives the Python float 0.5 for the first component.
    fn = ExpressionCoupledMap(["0.5", "0.3*x2 - 0.2*y2"], 2)
    rng = np.random.default_rng(11)
    seeds = [(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)) for _ in range(6)]
    seeds += [(np.array([0.5 - t, -t]), np.array([0.5 + t, t])) for t in rng.uniform(0, 3, 6)]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=300, check_bounds=True)
    report, handed = _columns_against_plain(fn, EuclideanSpace(2), graph, seeds, cfg, monkeypatch)
    assert handed == []
    good = [o.point for o in report.outcomes if o.error is None]
    assert len(good) >= 6 and all(p.x[0] == p.y[0] == 0.5 and abs(p.x[1]) < 1e-9 for p in good)


@pytest.mark.parametrize("graph", [OrderGraph(1), FullGraph(1)], ids=["order", "full"])
def test_probe_columns_hand_every_seed_at_a_constant_zero_divisor(graph, monkeypatch):
    # 1/(2 - 2) divides Python floats even on columns, so the column call
    # raises ZeroDivisionError and hands every seed to solve_coupled, where
    # the map's __call__ gives numpy's inf.
    fn = ExpressionCoupledMap(["0.3*x - 0.2*y + 1/(2 - 2)"], 1)
    seeds = [(0.0, 1.0), (2.0, -1.0), (-3.0, 3.0)]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=300)
    report, handed = _columns_against_plain(fn, LINE, graph, seeds, cfg, monkeypatch)
    assert handed == [0.0, 2.0, -3.0]
    for outcome, seed in zip(report.outcomes, seeds):
        with pytest.raises((SeedEdgeError, NonFiniteValueError)) as info:
            solve_coupled(fn, LINE, graph, *seed, cfg)
        assert outcome.error == f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_probe_columns_hand_every_seed_of_a_multivalued_map(m, d, monkeypatch):
    # A one-point map's on_floats gives d values too; its images are point
    # lists all the same, which solve_coupled refuses, and so does the probe.
    emm = ExpressionMultiMap([["0.3*x1 - 0.2*y1"] * d] * m, d)
    rng = np.random.default_rng(5)
    seeds = [(rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)) for _ in range(4)]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=50)
    report, handed = _columns_against_plain(emm, EuclideanSpace(d), FullGraph(d), seeds, cfg, monkeypatch)
    want = f"InvalidInputError: a point must be a flat vector, got shape ({m}, {d})"
    assert [o.error for o in report.outcomes] == [want] * len(seeds)
    assert len(handed) == len(seeds)


@pytest.mark.parametrize("width", [1, 4])
def test_probe_columns_hand_every_seed_of_a_map_without_d_values(width, monkeypatch):
    # A map of two variables at d = 2 whose on_floats and __call__ give
    # *width* values: no point, so every seed fails as in solve_coupled.
    class Widened:
        def on_floats(self, args):
            return [0.3 * args[0] - 0.2 * args[2]] * width

        def __call__(self, x, y):
            return np.array(self.on_floats([*as_point(x), *as_point(y)]))

    seeds = [(np.array([0.0, 1.0]), np.array([2.0, 3.0])), (np.array([-1.0, 1.0]), np.array([1.0, -1.0]))]
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=50)
    report, handed = _columns_against_plain(Widened(), EuclideanSpace(2), FullGraph(2), seeds, cfg,
                                            monkeypatch)
    want = f"InvalidInputError: dimension mismatch: expected 2, got {width}"
    assert [o.error for o in report.outcomes] == [want] * 2 and handed == [0.0, -1.0]


_BAD_SEEDS = [
    (2, [([0.0, 1.0], [0.0]), ([0.0, 1.0], [1.0, 2.0])], "dimension mismatch: expected 2, got 1"),
    (2, [([0.0, 1.0], [1.0, 2.0]), ([0.0, 1.0, 3.0], [1.0, 2.0])], "dimension mismatch: expected 2, got 3"),
    (2, [(0.0, 1.0), (2.0, 3.0)], "dimension mismatch: expected 2, got 1"),
    (1, [([0.0, 1.0], [1.0, 2.0])], "dimension mismatch: expected 1, got 2"),
    (1, [([[0.0]], [[1.0]])], "a point must be a flat vector, got shape (1, 1)"),
    (1, [(0.0, 1.0), ("a", 1.0)], "not a point: 'a'"),
    # a seed that is no pair names its index
    (1, [(0.0, 1.0), (0.0,)], "seed 1 is not a pair (x0, y0)"),
    (1, [(0.0, 1.0), (2.0, 3.0), (0.0, 1.0, 2.0)], "seed 2 is not a pair (x0, y0)"),
    (2, [([0.0, 1.0],)], "seed 0 is not a pair (x0, y0)"),
    (2, [([0.0, 1.0], [1.0, 2.0]), ([0.0, 1.0], [1.0, 2.0], [2.0, 3.0])], "seed 1 is not a pair (x0, y0)"),
    (1, [(0.0, 1.0), 0.5], "seed 1 is not a pair (x0, y0)"),
    (2, [None], "seed 0 is not a pair (x0, y0)"),
]


@pytest.mark.parametrize("d, seeds, message", _BAD_SEEDS,
                         ids=["ragged", "ragged_long", "scalars_at_d2", "pairs_at_d1", "nested", "text",
                              "one_point_at_d1", "three_points_at_d1", "one_point_at_d2",
                              "three_points_at_d2", "scalar_seed", "none_seed"])
def test_uniqueness_probe_seed_errors_keep_their_text(d, seeds, message):
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=50)
    with pytest.raises(InvalidInputError) as info:
        uniqueness_probe(LinearCoupledMap(0.3, -0.2), EuclideanSpace(d), OrderGraph(d), seeds, cfg)
    assert str(info.value) == message


@pytest.mark.parametrize("seeds, kind", [(None, "NoneType"), (5, "int"), (2.5, "float"),
                                         (object(), "object")], ids=["none", "int", "float", "object"])
def test_uniqueness_probe_rejects_seeds_that_are_not_iterable(seeds, kind):
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=50)
    with pytest.raises(InvalidInputError) as info:
        uniqueness_probe(LinearCoupledMap(0.3, -0.2), LINE, OrderGraph(1), seeds, cfg)
    assert str(info.value) == f"seeds must be an iterable of (x0, y0) pairs, got {kind}"


@pytest.mark.parametrize("d", [1, 2])
def test_uniqueness_probe_reads_an_iterable_of_seeds_once(d):
    # An iterator or a generator of seeds gives the list's report; an
    # empty one is no seed at all.
    fn, cfg = LinearCoupledMap(0.3, -0.2), SolveConfig(k=0.65, tol=1e-9, max_iter=300)
    space, graph = EuclideanSpace(d), FullGraph(d)
    rng = np.random.default_rng(12 + d)
    seeds = [(rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)) for _ in range(6)]
    want = uniqueness_probe(fn, space, graph, seeds, cfg)
    for once in (iter(seeds), (seed for seed in seeds), map(tuple, seeds)):
        _assert_same_report(uniqueness_probe(fn, space, graph, once, cfg), want)
    with pytest.raises(InvalidInputError, match="at least one seed is required"):
        uniqueness_probe(fn, space, graph, iter([]), cfg)


@pytest.mark.parametrize("d", [1, 2])
def test_uniqueness_probe_copies_its_seeds_into_float64_points(d):
    fn, cfg = LinearCoupledMap(0.3, -0.2), SolveConfig(k=0.65, tol=1e-9, max_iter=300)
    space, graph = EuclideanSpace(d), FullGraph(d)
    rng = np.random.default_rng(3)
    arrays = [(rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)) for _ in range(5)]
    values = [(x.tolist(), y.tolist()) for x, y in arrays]
    block = np.array(arrays)
    # arrays, lists, one block, ints, float32 beside lists; at d = 1 also
    # scalars, and a scalar beside a list, which form no one array
    inputs = [arrays, values, block, [([1] * d, [2] * d)] * 2,
              [(x, y.tolist()) for x, y in arrays[:2]] + [(x.astype(np.float32), y) for x, y in arrays[2:]]]
    if d == 1:
        inputs += [[(x[0], y[0]) for x, y in values], [(values[0][0][0], values[0][1])] + values[1:]]
    for seeds in inputs:
        want = [(as_point(x, d), as_point(y, d)) for x, y in seeds]
        report = uniqueness_probe(fn, space, graph, seeds, cfg)
        for x, y in arrays:
            x += 1.0  # the caller's arrays change after the probe
            y -= 1.0
        block += 1.0
        for outcome, (x0, y0) in zip(report.outcomes, want):
            for got, point in ((outcome.x0, x0), (outcome.y0, y0)):
                assert got.dtype == np.float64 and got.shape == (d,)
                assert got.tobytes() == point.tobytes()
        assert all(o.converged for o in report.outcomes)


@pytest.mark.parametrize("fn", [
    ExpressionCoupledMap(["0.3*x1 - 0.2*y1 + 0.9", "0.3*x2 - 0.2*y2 - 1.8"], 2),
    lambda x, y: 0.3 * x - 0.2 * y + np.array([0.9, -1.8]),
], ids=["on_floats", "plain"])
def test_uniqueness_probe_outcomes_are_named_tuples_of_their_own_rows(fn):
    # the fixed point is (1, -2); every third seed is swapped and fails its edge
    rng = np.random.default_rng(5)
    u = rng.uniform(1.0, 4.0, (12, 2))
    block = np.stack([np.array([1.0, -2.0]) - u, np.array([1.0, -2.0]) + u], axis=1)
    block[::3] = block[::3, ::-1].copy()
    cfg = SolveConfig(k=0.65, tol=1e-9, max_iter=300)
    outcomes = uniqueness_probe(fn, EuclideanSpace(2), OrderGraph(2), block, cfg).outcomes
    assert solver.SeedOutcome._fields == ("index", "x0", "y0", "point", "converged", "error")
    assert CoupledFixedPoint._fields == ("x", "y", "is_diagonal")
    assert [type(o) for o in outcomes] == [solver.SeedOutcome] * 12
    assert [o.index for o in outcomes] == list(range(12))
    assert [o.point is None for o in outcomes] == [i % 3 == 0 for i in range(12)]
    arrays = []
    for o in outcomes:
        assert type(o.converged) is bool and o.converged == (o.point is not None)
        arrays += [o.x0, o.y0]
        if o.point is not None:
            x, y, is_diagonal = o.point
            assert type(o.point) is CoupledFixedPoint and type(is_diagonal) is bool
            assert all(v.dtype == np.float64 and v.shape == (2,) for v in (x, y))
            arrays += [x, y]
    for i, a in enumerate(arrays):
        assert not np.shares_memory(a, block)
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    before = [a.tobytes() for a in arrays]
    block[...] = np.nan  # the caller's block changes after the probe
    assert [a.tobytes() for a in arrays] == before


def _exact_solution(A, B, c):
    """The solution of (I - A - B) x = c, by Gauss-Jordan elimination in Fractions."""
    d = len(c)
    M = [[int(i == j) - A[i][j] - B[i][j] for j in range(d)] + [c[i]] for i in range(d)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(d):
            if r != col:
                f = M[r][col] / M[col][col]
                M[r] = [u - f * v for u, v in zip(M[r], M[col])]
    return [M[i][d] / M[i][i] for i in range(d)]


@pytest.mark.parametrize("metric", [EuclideanSpace, ChebyshevSpace])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_probe_meets_the_theorem_3_1_oracle(d, metric):
    # F(x, y) = A x + B y + c with A >= 0 and B <= 0 is mixed monotone on the
    # order graph.  Every row and column of |A| (and of |B|) sums to at most
    # 0.45, which bounds both operator norms, so F meets Theorem 3.1's
    # contraction with k = 2 max(|A|, |B|) < 1 (norm sum below 1).  Its
    # unique coupled fixed point is (x*, x*), (I - A - B) x* = c.  Every
    # seed with the seed edge must reach it: one cluster, each limit within
    # tail_bound of x*, measured exactly in Fractions, and the pair within
    # tol of (x*, x*) summed, as the stopping rule guarantees.
    from fractions import Fraction
    rng = np.random.default_rng(31 + 10 * d)
    space, graph = metric(d), OrderGraph(d)
    for _ in range(3):
        A = [[Fraction(int(rng.integers(0, 450 // d + 1)), 1000) for _ in range(d)] for _ in range(d)]
        B = [[-Fraction(int(rng.integers(0, 450 // d + 1)), 1000) for _ in range(d)] for _ in range(d)]
        c = [Fraction(int(rng.integers(-300, 301)), 100) for _ in range(d)]
        norm = max(max(sum(abs(v) for v in row) for row in M) for M in (A, B, [*zip(*A)], [*zip(*B)]))
        k = min(0.95, float(2 * norm) + 0.01)
        text = [" + ".join(f"{float(A[i][j]):.3f}*x{j + 1}" for j in range(d))
                + "".join(f" - {float(-B[i][j]):.3f}*y{j + 1}" for j in range(d))
                + f" + ({float(c[i]):.2f})" for i in range(d)]
        fn = ExpressionCoupledMap(text, d)
        star = _exact_solution(A, B, c)
        centre = np.array([float(v) for v in star])
        # x* -/+ t on every coordinate meets the seed edge; random seeds may not
        seeds = [(centre - t, centre + t) for t in (0.1, 1.0, 7.0)]
        seeds += [(rng.uniform(-5, 5, d), rng.uniform(-5, 5, d)) for _ in range(5)]
        cfg = SolveConfig(k=k, tol=1e-10, max_iter=2000, check_bounds=True)
        report = uniqueness_probe(fn, space, graph, seeds, cfg)
        converged = [o.index for o in report.outcomes if o.converged]
        assert converged[:3] == [0, 1, 2]
        assert all(o.error.startswith("SeedEdgeError") for o in report.outcomes if not o.converged)
        assert report.clusters == (tuple(converged),) and report.edge_violations == ()
        for i in converged:
            _, trace = solve_coupled(fn, space, graph, *seeds[i], cfg)
            bound = Fraction(tail_bound(k, trace.D0, len(trace.steps)))
            point, summed = report.outcomes[i].point, 0.0
            for limit in (point.x, point.y):
                gaps = [Fraction(float(v)) - s for v, s in zip(limit, star)]
                if metric is ChebyshevSpace:
                    assert max(map(abs, gaps)) <= bound
                    summed += float(max(map(abs, gaps)))
                else:
                    assert sum(g * g for g in gaps) <= bound * bound
                    summed += math.sqrt(sum(g * g for g in gaps))
            assert summed <= cfg.tol


def _trace_bits(fp, trace):
    """A solve's fixed point and trace, each float by its bits."""
    steps = [(s.n, s.x.tobytes(), s.y.tobytes(), *(float(v).hex() for v in s[3:7]), *s[7:])
             for s in trace.steps]
    return (steps, float(trace.D0).hex(), trace.converged, float(trace.residual).hex(),
            fp.x.tobytes(), fp.y.tobytes(), fp.is_diagonal)


def test_copies_of_one_point_meet_the_theorem_4_1_oracle():
    # A multivalued map whose m image points are copies of one affine point
    # (A >= 0, B <= 0, norm sum below 1, as in the Theorem 3.1 oracle) is
    # the single-valued map: solve_coupled_multi from (x1, y1) = (F(x0, y0),
    # F(y0, x0)) gives solve_coupled's iterates, step sizes, bounds, diag,
    # D0 and residual bit for bit, past 48 image points too, and check_mbl
    # counts check_bl's violations on one seeded sample at a k too small.
    rng = np.random.default_rng(4101)
    for d in (1, 2, 3):
        A = rng.integers(0, 450 // d + 1, size=(d, d)) / 1000
        B = -rng.integers(0, 450 // d + 1, size=(d, d)) / 1000
        c = rng.uniform(-3.0, 3.0, d)
        text = [" + ".join(f"{float(A[i, j])!r}*x{j + 1}" for j in range(d))
                + "".join(f" - {float(-B[i, j])!r}*y{j + 1}" for j in range(d))
                + f" + ({float(c[i])!r})" for i in range(d)]
        single = ExpressionCoupledMap(text, d)
        k = min(0.95, 2 * max(np.abs(M).sum(axis=a).max() for M in (A, B) for a in (0, 1)) + 0.01)
        cfg = SolveConfig(k=k, tol=1e-10, max_iter=2000, check_bounds=True, record_edges=True)
        star = np.linalg.solve(np.eye(d) - A - B, c)  # x* -/+ 1 meets the order graph's seed edge
        x0, y0 = star - 1.0, star + 1.0
        x1, y1 = single(x0, y0), single(y0, x0)
        for m in (1, 2, 8, 49, 64):
            multi = ExpressionMultiMap([text] * m, d)
            for space in (EuclideanSpace(d), ChebyshevSpace(d)):
                for graph in (OrderGraph(d), FullGraph(d)):
                    want = solve_coupled(single, space, graph, x0, y0, cfg)
                    assert want[1].converged and len(want[1].steps) > 5
                    got = solve_coupled_multi(multi, space, graph, x0, y0, x1, y1, cfg)
                    assert _trace_bits(*got) == _trace_bits(*want), (d, m, space, graph)
                    sample = SampleSpec(count=40, seed=m, low=-5.0, high=5.0)
                    bl = check_bl(single, space, graph, k / 4, sample)
                    mbl = check_mbl(multi, space, graph, k / 4, sample)
                    assert mbl.violation_count == bl.violation_count > 0, (d, m, space, graph)


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


@pytest.mark.parametrize("n", [*range(8), 64, 65, 66, 91, 92, 321])
def test_pair_blocks_are_the_upper_triangle_in_row_major_order(n, monkeypatch):
    # small n at odd block sizes; from n = 65 on, blocks of the default
    # 2048 pairs end inside a row (n = 91 has 4095 pairs, 92 has 4186)
    pairs = list(zip(*(side.tolist() for side in np.triu_indices(n, 1))))
    for block in (1, 3, 7, 4096, solver._PAIR_BLOCK) if n < 8 else (solver._PAIR_BLOCK,):
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
    # the step back; the numpy step then gives the rows or the error.  Every
    # dimension with a metric rule, every m up to 48, and 49 and 64.
    rng = np.random.default_rng(909)
    seen = set()
    spaces = [EuclideanSpace(d) for d in range(1, 8)] + [ChebyshevSpace(d) for d in range(1, 9)]
    for space in spaces:
        d = space.dimension
        for graph in (FullGraph(d), OrderGraph(d)):
            for m in (*range(1, 49), 49, 64):
                for _ in range(6 if m <= 8 else 1):
                    pool = rng.choice(len(_FLOAT_STEP_COMPONENTS), size=3)
                    points = np.array(_FLOAT_STEP_COMPONENTS)[rng.choice(pool, size=(m, d))].tolist()
                    emm = ExpressionMultiMap(points, dimension=d)
                    Z = rng.choice(_FLOAT_STEP_ANCHORS, size=(2, d))
                    rules = solver._float_rules(emm, space, graph)
                    assert rules is not None
                    step = solver._float_step(rules[0], space, graph)
                    with np.errstate(over="ignore"):
                        want = _numpy_step(emm, space, graph, Z, 7)
                        images = _images(emm, Z, Z[::-1], d, True).reshape(2 * m, d)
                        gaps = space.distance_batch(np.repeat(Z, m, axis=0), images)
                    got = step(Z[0].tolist(), Z[1].tolist())
                    if got is None:
                        seen.add(want[0] if isinstance(want[0], str) else "handed back, rows")
                        continue
                    assert (np.array(got[0]).tobytes(), np.array(got[1]).tobytes()) == want, (points, Z)
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
            step = solver._float_step(emm.on_floats, space, FullGraph(1))
            x, y = map(np.array, step([1.0 if want else 0.0], [0.0]))
            Z = np.array([[1.0 if want else 0.0], [0.0]])
            assert (x.tobytes(), y.tobytes()) == _numpy_step(emm, space, FullGraph(1), Z, 1)
            assert x.tobytes() == np.array([want]).tobytes()


def test_float_step_only_where_map_metric_and_graph_have_a_float_rule():
    emm = ExpressionMultiMap([["x1", "x2"]], dimension=2)
    assert solver._float_rules(emm, EuclideanSpace(2), OrderGraph(2)) is not None
    others = [
        (lambda x, y: emm(x, y), EuclideanSpace(2), OrderGraph(2)),
        (emm, CallbackSpace(2, lambda p, q: 0.0), OrderGraph(2)),
        (emm, EuclideanSpace(2), PredicateGraph(2, lambda p, q: True)),
        (emm, EuclideanSpace(2), FiniteGraph([[0.0, 0.0]])),
    ]
    assert all(solver._float_rules(*args) is None for args in others)
    # from 8 coordinates numpy sums the squares pairwise
    wide = ExpressionMultiMap([[f"x{i}" for i in range(1, 9)]], dimension=8)
    assert solver._float_rules(wide, EuclideanSpace(8), FullGraph(8)) is None
    assert solver._float_rules(wide, ChebyshevSpace(8), FullGraph(8)) is not None
    # from 9 coordinates numpy reduces the maxima too, and a wide space still builds
    wider = ExpressionMultiMap([[f"x{i}" for i in range(1, 10)]], dimension=9)
    assert solver._float_rules(wider, ChebyshevSpace(9), FullGraph(9)) is None
    assert ChebyshevSpace(500)._row_rule is None and OrderGraph(500)._row_rule is not None
    # an expression map has a float step at every number of image points
    for m, d in ((48, 1), (49, 1), (48, 8), (49, 2), (64, 2), (1, 8)):
        emm = ExpressionMultiMap([["x1"] * d] * m, dimension=d)
        assert solver._float_rules(emm, ChebyshevSpace(d), FullGraph(d)) is not None


def _pick_cut_shapes():
    """(m, d) at _PICK_VALUES image values and just past them, at d = 1 and 2."""
    cut = solver._PICK_VALUES
    return [(cut, 1), (cut + 1, 1), (cut // 2, 2), (cut // 2 + 1, 2)]


def test_float_step_past_the_pick_cut_selects_with_numpy(monkeypatch):
    # Up to _PICK_VALUES image values the float step picks in a compiled
    # function; past them it hands its float images to _select_step and
    # compiles nothing.  Either way it gives the numpy step's rows bit for
    # bit, or hands the step back.
    compiled = []
    picks = solver._picks
    monkeypatch.setattr(solver, "_picks", lambda *args: compiled.append(args[2:]) or picks(*args))
    rng = np.random.default_rng(911)
    seen = set()
    for m, d in _pick_cut_shapes():
        for space in (EuclideanSpace(d), ChebyshevSpace(d)):
            for graph in (FullGraph(d), OrderGraph(d)):
                for _ in range(8):
                    pool = rng.choice(len(_FLOAT_STEP_COMPONENTS), size=3)
                    points = np.array(_FLOAT_STEP_COMPONENTS)[rng.choice(pool, size=(m, d))].tolist()
                    emm = ExpressionMultiMap(points, dimension=d)
                    Z = rng.choice(_FLOAT_STEP_ANCHORS, size=(2, d))
                    step = solver._float_step(emm.on_floats, space, graph)
                    del compiled[:]
                    with np.errstate(over="ignore"):
                        want = _numpy_step(emm, space, graph, Z, 7)
                    got = step(Z[0].tolist(), Z[1].tolist())
                    past = m * d > solver._PICK_VALUES
                    assert not (past and compiled)
                    if got is None:
                        seen.add((past, want[0] if isinstance(want[0], str) else "handed back, rows"))
                        continue
                    assert (np.array(got[0]).tobytes(), np.array(got[1]).tobytes()) == want, (points, Z)
                    assert past or compiled == [(m, d)]
                    seen.add((past, "rows"))
    assert {(past, "rows") for past in (False, True)} <= seen
    assert {(True, "SelectionFailureError"), (True, "NonFiniteValueError")} <= seen


def test_multi_solves_on_both_sides_of_the_pick_cut_match_plain_and_oracle():
    rng = np.random.default_rng(912)
    cfg = SolveConfig(k=0.9, tol=1e-12, max_iter=25, record_edges=True)
    seen = set()
    for m, d in _pick_cut_shapes():
        for space in (EuclideanSpace(d), ChebyshevSpace(d)):
            for graph in (FullGraph(d), OrderGraph(d)):
                emm = _dyadic_multi_map(rng, d, m)
                x0, y0 = rng.integers(-8, 9, size=(2, d)) / 4.0
                x1 = _seed_iterate(as_finite_set(emm(x0, y0), d), lambda p: graph.has_edge(x0, p))
                y1 = _seed_iterate(as_finite_set(emm(y0, x0), d), lambda p: graph.has_edge(p, y0))
                assert_multi_paths_agree(emm, space, graph, (x0, y0, x1, y1), cfg, seen)
    assert "ok" in seen


# Components for the float bookkeeping test, by template: a contraction, a
# zero divisor at every step and one at step 1 on the y side alone (from
# y0 = 1), overflow to inf, inf - inf one step after a finite step, and
# inf - inf at once.
_PARITY_COMPONENTS = (
    "(x{j} + y{k}) / 5 + 0.1", "0.5 * x{j} - 0.25 * y{k}", "1 / (x{j} - x{j})",
    "0.5 * y{j} + 0 / (y{j} - 0.5)", "x{j} * 1e308 * 10 - y{j} * 1e308 * 10",
    "x{j} * x{j} * 1e300 - y{j} * y{j} * 1e300", "1e308 * 10 - 1e308 * 10",
)


def _parity_maps(d):
    """Expression maps of a few templates per component, and linear maps."""
    def components(*templates):
        return [_PARITY_COMPONENTS[templates[j % len(templates)]].format(j=j + 1, k=(j + 1) % d + 1)
                for j in range(d)]
    single = [ExpressionCoupledMap(components(*t), d)
              for t in ((0,), (1, 0), (2, 0), (0, 2), (3, 1), (4, 0), (0, 4), (5, 0), (0, 5), (6, 0))]
    multi = [ExpressionMultiMap([components(*t), components(*t[::-1])], d)
             for t in ((0, 1), (2, 0), (3, 0), (5, 0), (0, 5))]
    linear = [LinearCoupledMap(a, b) for a, b in ((0.2, -0.3), (0.5, 0.25), (3.0, 2.0), (1e308, 1e308))]
    return single + linear, multi


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("metric", [EuclideanSpace, ChebyshevSpace])
@pytest.mark.parametrize("graph_type", [FullGraph, OrderGraph])
def test_float_bookkeeping_matches_numpy_bookkeeping(d, metric, graph_type):
    # A metric and a graph without float rules, whose callbacks are the
    # builtins' numpy rules, take every step and record on numpy; the
    # builtins take them on Python floats.  Both give the same bits, or the
    # same error.
    space, graph = metric(d), graph_type(d)
    twin_space = CallbackSpace(d, space._dist)
    twin_graph = PredicateGraph(d, lambda p, q: bool(graph.edge_mask(p, q)[0]))
    single, multi = _parity_maps(d)
    seeds = [(np.full(d, -1.0) - 0.5 * (np.arange(d) == 0), np.full(d, 1.0)),
             (np.linspace(-1.0, 1.0, d), np.linspace(1.0, 2.0, d)),
             (np.full(d, -1.0), np.full(d, 0.5)), (np.full(d, 1e300), np.full(d, -1e300))]
    seen = set()
    with np.errstate(all="ignore"):
        for check_bounds, record_edges in ((False, False), (True, True), (False, True), (True, False)):
            cfg = SolveConfig(k=0.6, tol=1e-10, max_iter=80, check_bounds=check_bounds,
                              record_edges=record_edges)
            for (x0, y0), fn in ((seed, fn) for seed in seeds for fn in single):
                assert solver._float_rules(fn, space, graph) is not None
                got = multi_outcome(lambda: solve_coupled(fn, space, graph, x0, y0, cfg))
                assert got == multi_outcome(lambda: solve_coupled(fn, twin_space, twin_graph, x0, y0, cfg))
                seen.add(got[0] if isinstance(got[0], str) else "converged" if got[2] else "not converged")
            for (x0, y0), emm in ((seed, emm) for seed in seeds for emm in multi):
                x1, y1 = emm(x0, y0)[0], emm(y0, x0)[0]
                got = multi_outcome(lambda: solve_coupled_multi(emm, space, graph, x0, y0, x1, y1, cfg))
                assert got == multi_outcome(
                    lambda: solve_coupled_multi(emm, twin_space, twin_graph, x0, y0, x1, y1, cfg))
                seen.add(got[0] if isinstance(got[0], str) else "converged" if got[2] else "not converged")
    assert seen >= {"converged", "NonFiniteValueError"}
