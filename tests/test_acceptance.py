"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Each test prints a single "[ACCEPTANCE] criterion N: PASS" line after its
assertions so a verbose run doubles as the sign-off checklist.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from coupled_fpi import (
    FullGraph,
    LinearCoupledMap,
    OrderGraph,
    SampleSpec,
    SingletonMultiMap,
    SolveConfig,
    check_bl,
    check_mixed_monotone,
    diagonal_decay_check,
    estimate_k,
    hausdorff,
    real_line,
    solve_coupled,
    solve_coupled_multi,
    uniqueness_probe,
)
from coupled_fpi.cli import EXIT_OK, EXIT_PREFLIGHT_FAILED, main

LINE = real_line()
SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def sum_fifth(x, y):
    return (x + y) / 5.0


def multi_sum_fifth(x, y):
    v = (np.asarray(x) + np.asarray(y)) / 5.0
    return [-v, v]


_BATTERY = None


def battery():
    """100 randomized linear instances, solved once and shared.

    |a| + |b| <= 0.45 so the minimal constant k = 2(|a| + |b|) stays
    below 0.9.  Even indices run on the order graph with a >= 0 >= b
    (the coefficient family whose chains actually stay edge-monotone)
    from the symmetric seed (-c, c), whose seed edge always holds for
    these coefficients; odd indices run on the full graph with
    unconstrained signs from a random box seed.
    """
    global _BATTERY
    if _BATTERY is None:
        rng = np.random.default_rng(303)
        rows = []
        for i in range(100):
            s = rng.uniform(0.05, 0.45)
            t = rng.uniform(0.0, 1.0)
            k = 2.0 * s
            if i % 2 == 0:
                fn = LinearCoupledMap(s * t, -s * (1.0 - t))
                graph = OrderGraph(1)
                c = rng.uniform(0.1, 10.0)
                x0, y0 = -c, c
            else:
                fn = LinearCoupledMap(
                    s * t * (1.0 if rng.random() < 0.5 else -1.0),
                    s * (1.0 - t) * (1.0 if rng.random() < 0.5 else -1.0),
                )
                graph = FullGraph(1)
                x0, y0 = rng.uniform(-10.0, 10.0, size=2)
            cfg = SolveConfig(k=k, tol=1e-10, max_iter=500)
            fp, trace = solve_coupled(fn, LINE, graph, float(x0), float(y0), cfg)
            rows.append((fn, graph, float(x0), float(y0), k, cfg, fp, trace))
        _BATTERY = rows
    return _BATTERY


def best_of_five(call):
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_sum_map_reproduction():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-14, max_iter=60)
    fp, trace = solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    assert trace.converged
    for step in trace.steps:
        if 1 <= step.n <= 30:
            closed = (1.0 / 5.0) * (2.0 / 5.0) ** (step.n - 1)
            assert abs(step.x[0] - closed) <= 1e-12
            assert step.x[0] == step.y[0]
    assert max(step.n for step in trace.steps) >= 30
    assert abs(fp.x[0]) <= 1e-12 and abs(fp.y[0]) <= 1e-12
    assert trace.residual <= 1e-10
    runtime = best_of_five(
        lambda: solve_coupled(sum_fifth, LINE, OrderGraph(1), 0.0, 1.0, cfg)
    )
    assert runtime < 1e-3
    print(f"\n[ACCEPTANCE] criterion 1: PASS: closed-form iterates reproduced to 1e-12, "
          f"converged to (0,0), best runtime {runtime * 1e3:.3f} ms < 1 ms")


def test_criterion_02_multivalued_reproduction():
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-14, max_iter=60)
    fp, trace = solve_coupled_multi(
        multi_sum_fifth, LINE, FullGraph(1), 0.0, 1.0, -0.2, -0.2, cfg
    )
    assert trace.converged
    for step in trace.steps:
        if 1 <= step.n <= 30:
            closed = (-1.0 / 5.0) * (2.0 / 5.0) ** (step.n - 1)
            assert abs(step.x[0] - closed) <= 1e-12
    assert max(step.n for step in trace.steps) >= 30
    assert abs(fp.x[0]) <= 1e-12 and abs(fp.y[0]) <= 1e-12
    runtime = best_of_five(
        lambda: solve_coupled_multi(multi_sum_fifth, LINE, FullGraph(1), 0.0, 1.0, -0.2, -0.2, cfg)
    )
    assert runtime < 5e-3
    print(f"\n[ACCEPTANCE] criterion 2: PASS: multivalued iterates reproduced to 1e-12, "
          f"converged to (0,0), best runtime {runtime * 1e3:.3f} ms < 5 ms")


def test_criterion_03_geometric_bound_suite():
    checked = 0
    for fn, graph, x0, y0, k, cfg, fp, trace in battery():
        assert trace.converged
        for step in trace.steps:
            assert step.step_x + step.step_y <= (k ** step.n) * trace.D0 + 1e-12
        assert trace.residual <= 10.0 * cfg.tol
        checked += 1
    assert checked == 100
    print(f"\n[ACCEPTANCE] criterion 3: PASS: {checked} randomized linear instances "
          f"respect step_x+step_y <= k^n*D0 + 1e-12 and residual <= 1e-9")


def test_criterion_04_hausdorff_oracle_equivalence():
    from coupled_fpi import EuclideanSpace, FiniteSet

    space = EuclideanSpace(2)

    def brute_force(A, B):
        def excess(P, Q):
            worst = 0.0
            for p in P.points:
                best = min(space.distance(p, q) for q in Q.points)
                worst = max(worst, best)
            return worst
        return max(excess(A, B), excess(B, A))

    rng = np.random.default_rng(404)

    def random_set():
        n = int(rng.integers(1, 21))
        return FiniteSet(rng.uniform(-5.0, 5.0, size=(n, 2)))

    for _ in range(500):
        A, B = random_set(), random_set()
        assert hausdorff(space, A, B) == brute_force(A, B)
    for _ in range(200):
        A, B, C = random_set(), random_set(), random_set()
        assert hausdorff(space, A, B) == hausdorff(space, B, A)
        assert hausdorff(space, A, A) <= 1e-12
        assert hausdorff(space, A, C) <= hausdorff(space, A, B) + hausdorff(space, B, C) + 1e-12
    print("\n[ACCEPTANCE] criterion 4: PASS: 500 set pairs match the brute-force "
          "oracle exactly; metric axioms hold to 1e-12 on 200 triples")


def test_criterion_05_estimate_k_calibration():
    est = estimate_k(
        sum_fifth, LINE, OrderGraph(1),
        SampleSpec(count=100_000, seed=123, low=-10.0, high=10.0),
    )
    assert 0.38 <= est <= 0.40
    print(f"\n[ACCEPTANCE] criterion 5: PASS: estimated contraction constant "
          f"{est!r} lies in [0.38, 0.40] (analytic value 0.4)")


def test_criterion_06_diagonal_collapse():
    checked = 0
    for fn, graph, x0, y0, k, cfg, fp, trace in battery():
        if not graph.has_edge(x0, y0):
            continue
        cert = diagonal_decay_check(trace, graph, k)
        assert cert.passed, cert.violations
        checked += 1
    assert checked == 100  # every battery seed has the base edge
    print(f"\n[ACCEPTANCE] criterion 6: PASS: d(x_n,y_n) <= k^n*d(x0,y0) + 1e-12 "
          f"on all {checked} eligible instances")


def test_criterion_07_uniqueness_basin():
    rng = np.random.default_rng(7)
    seeds = [tuple(rng.uniform(-10.0, 10.0, size=2)) for _ in range(10)]
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-10, max_iter=500)
    report = uniqueness_probe(sum_fifth, LINE, FullGraph(1), seeds, cfg)
    assert all(o.converged for o in report.outcomes)
    assert len(report.clusters) == 1
    assert len(report.clusters[0]) == 10
    assert report.diameters[0] <= 2e-10
    print(f"\n[ACCEPTANCE] criterion 7: PASS: 10 random seeds collapse to one "
          f"cluster of diameter {report.diameters[0]:.3e} <= 2e-10")


def test_criterion_08_hypothesis_falsification():
    proj_x = lambda x, y: x
    for k in (0.3, 0.9, 0.99):
        cert = check_bl(proj_x, LINE, FullGraph(1),
                        k, SampleSpec(count=1000, seed=8, low=-10.0, high=10.0))
        assert not cert.passed
        w = cert.violations[0]
        assert w["lhs"] > w["rhs"]
        assert abs(w["x"] - w["u"]) == w["lhs"]
    proj_y = lambda x, y: y
    mono = check_mixed_monotone(proj_y, OrderGraph(1),
                                SampleSpec(count=1000, seed=8, low=-10.0, high=10.0))
    assert not mono.passed
    assert mono.violations[0]["clause"] == "y"
    print("\n[ACCEPTANCE] criterion 8: PASS: projection map rejected by the "
          "contraction check at k in {0.3, 0.9, 0.99} and by the monotonicity "
          "check on the order graph, with recorded witnesses")


def test_criterion_09_multivalued_degeneration():
    checked = 0
    for fn, graph, x0, y0, k, cfg, fp, trace in battery():
        x1 = fn(np.array([x0]), np.array([y0]))
        y1 = fn(np.array([y0]), np.array([x0]))
        fp_m, tr_m = solve_coupled_multi(
            SingletonMultiMap(fn), LINE, graph, x0, y0, x1, y1, cfg
        )
        assert len(trace.steps) == len(tr_m.steps)
        for a, b in zip(trace.steps, tr_m.steps):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            assert a.step_x == b.step_x and a.step_y == b.step_y
            assert a.bound == b.bound and a.diag == b.diag
        assert trace.D0 == tr_m.D0 and trace.residual == tr_m.residual
        assert trace.converged == tr_m.converged
        assert np.array_equal(fp.x, fp_m.x) and np.array_equal(fp.y, fp_m.y)
        checked += 1
    assert checked == 100
    print(f"\n[ACCEPTANCE] criterion 9: PASS: singleton wrapping reproduced all "
          f"{checked} single-valued traces bitwise")


def test_criterion_10_cli_determinism(tmp_path):
    cases = {
        "single_sum_fifth.json": EXIT_OK,
        "multi_sum_fifth.json": EXIT_OK,
        "single_projection_x.json": EXIT_PREFLIGHT_FAILED,
    }
    for name, want in cases.items():
        spec = str(SPEC_DIR / name)
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        assert main(["solve", spec, "--out-dir", str(out_a), "--quiet"]) == want
        assert main(["solve", spec, "--out-dir", str(out_b), "--quiet"]) == want
        for artifact in ("trace.csv", "report.json"):
            fa, fb = out_a / artifact, out_b / artifact
            assert fa.exists() == fb.exists()
            if fa.exists():
                assert fa.read_bytes() == fb.read_bytes()

    converged = json.loads((tmp_path / "single_sum_fifth.json/a/report.json").read_text())
    assert converged["converged"] is True
    assert abs(converged["result"]["x"]) <= 1e-12
    trace = (tmp_path / "single_sum_fifth.json/a/trace.csv").read_text().splitlines()
    assert trace[2].split(",")[1] == "0.2"
    multi_trace = (tmp_path / "multi_sum_fifth.json/a/trace.csv").read_text().splitlines()
    assert multi_trace[2].split(",")[1] == "-0.2"
    blocked = json.loads((tmp_path / "single_projection_x.json/a/report.json").read_text())
    assert blocked["result"] is None and blocked["exit_code"] == EXIT_PREFLIGHT_FAILED
    print("\n[ACCEPTANCE] criterion 10: PASS: shipped specs rerun byte-identically "
          "and the three example cases exit 0/0/2 as documented")
