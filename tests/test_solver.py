from __future__ import annotations

import math

import numpy as np
import pytest

from coupled_fpi import (
    FiniteGraph,
    FiniteSet,
    FullGraph,
    HypothesisViolationError,
    InapplicableCheckError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    LinearCoupledMap,
    OrderGraph,
    SeedEdgeError,
    SelectionFailureError,
    SingletonMultiMap,
    SolveConfig,
    diagonal_decay_check,
    real_line,
    safe_k,
    solve_coupled,
    solve_coupled_multi,
    step_bound,
    tail_bound,
    uniqueness_probe,
)

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


def test_safe_k():
    assert safe_k(0.5) == 0.525
    assert safe_k(0.0) == 1e-12
    assert safe_k(2.0) == 1.0 - 1e-12
    with pytest.raises(InvalidParameterError):
        safe_k(-0.1)


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
