from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from coupled_fpi import (
    Certificate,
    ChebyshevSpace,
    EuclideanSpace,
    ExpressionCoupledMap,
    ExpressionMultiMap,
    FullGraph,
    InsufficientSamplesError,
    InvalidInputError,
    InvalidParameterError,
    LinearCoupledMap,
    NonFiniteValueError,
    OrderGraph,
    PredicateGraph,
    SampleSpec,
    SingletonMultiMap,
    SpecError,
    check_bl,
    check_mbl,
    check_mixed_monotone,
    check_mixed_monotone_multi,
    dist_to_set,
    estimate_k,
    real_line,
    validate_k,
)
from coupled_fpi import checks
from coupled_fpi.checks import SLACK, VIOLATION_CAP, _images, _json_text, _point_json
from coupled_fpi.sampling import Sampler

LINE = real_line()
BOX = SampleSpec(count=2000, seed=11, low=-10.0, high=10.0)


def sum_fifth(x, y):
    return (x + y) / 5.0


def multi_sum_fifth(x, y):
    v = (np.asarray(x) + np.asarray(y)) / 5.0
    return [-v, v]


def ragged(x, y):
    """One to four image points depending on the sample; the first one repeats."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    points = [0.1 * x - 0.1 * y, 0.4 * x, 0.1 * x - 0.1 * y, -0.3 * y]
    return points[: 1 + int(abs(x[0]) * 10) % 4]


def as_json(p):
    return float(p[0]) if len(p) == 1 else [float(c) for c in p]


def brute_mixed_monotone_multi(fn, graph, sample):
    """Per-sample oracle: (samples, [(clause, sample, first unmatched point)])."""
    sampler = Sampler(sample, graph.dimension)
    total, found = 0, []
    for clause in ("x", "y"):
        P1, P2, W = sampler.edge_triples(graph)
        for i in range(len(P1)):
            if clause == "x":
                source, target = fn(P1[i], W[i]), fn(P2[i], W[i])
            else:
                source, target = fn(W[i], P2[i]), fn(W[i], P1[i])
            total += 1
            unmatched = [u for u in source if not any(graph.has_edge(u, v) for v in target)]
            if unmatched:
                found.append((clause, i, as_json(unmatched[0])))
    return total, found


def brute_mbl(fn, space, graph, k, sample):
    """Per-sample oracle: (samples, [(sample, first far point, lhs, rhs)])."""
    X, Y, U, V = Sampler(sample, space.dimension).product_edge_pairs(graph)
    found = []
    for i in range(len(X)):
        rhs = 0.5 * k * (space.distance(X[i], U[i]) + space.distance(Y[i], V[i]))
        for a in fn(X[i], Y[i]):
            gap = dist_to_set(space, a, fn(U[i], V[i]))
            if gap > rhs + SLACK:
                found.append((i, as_json(a), gap, rhs))
                break
    return len(X), found


def test_certificate_consistency_enforced():
    with pytest.raises(InvalidParameterError):
        Certificate(property_name="BL", samples_tested=1, passed=True, violation_count=3)
    with pytest.raises(InvalidParameterError):
        Certificate(property_name="nope", samples_tested=1, passed=True)
    for estimate in (-0.5, float("nan")):
        with pytest.raises(InvalidParameterError, match="^estimated constant must be nonnegative$"):
            Certificate(property_name="BL", samples_tested=1, passed=True,
                        estimated_constant=estimate)
    cert = Certificate(property_name="BL", samples_tested=5, passed=True, seed=3)
    json.dumps(cert.to_dict())  # must be JSON-serializable as-is


def test_validate_k():
    assert validate_k(0.5) == 0.5
    for bad in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(InvalidParameterError, match=r"k must lie in \(0,1\)"):
            validate_k(bad)
    for bad in (None, "abc", "0.5", True, np.True_):
        with pytest.raises(InvalidParameterError, match="^k must be a number, got "):
            validate_k(bad)
    for bad in (float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(InvalidParameterError, match="^k must be finite, got "):
            validate_k(bad)
    # the caller names the error type; numpy's numbers come back as Python floats
    with pytest.raises(SpecError, match=r"^k must lie in \(0,1\)$"):
        validate_k(2, SpecError)
    assert type(validate_k(np.float32(0.5))) is float and validate_k(np.float32(0.5)) == 0.5


def test_mixed_monotone_reversal_clause_fails_for_sum_map_on_order_graph():
    # second-argument monotonicity must push edges backwards; a map that
    # is increasing in y cannot do that on the order graph
    cert = check_mixed_monotone(sum_fifth, OrderGraph(1), BOX)
    assert not cert.passed
    assert cert.violation_count > 0
    witness = next(v for v in cert.violations if v["clause"] == "y")
    assert witness["image_from"] > witness["image_to"]


def test_mixed_monotone_passes_on_full_graph():
    cert = check_mixed_monotone(sum_fifth, FullGraph(1), BOX)
    assert cert.passed and cert.violation_count == 0
    assert cert.samples_tested == 2 * BOX.count
    assert cert.seed == BOX.seed


def test_mixed_monotone_genuine_example():
    # increasing in x, decreasing in y: passes both clauses on the order graph
    cert = check_mixed_monotone(LinearCoupledMap(0.2, -0.1), OrderGraph(1), BOX)
    assert cert.passed


def test_mixed_monotone_constant_map():
    cert = check_mixed_monotone(lambda x, y: np.array([3.0]), OrderGraph(1), BOX)
    assert cert.passed


def test_mixed_monotone_projection_y_rejected_with_witness():
    cert = check_mixed_monotone(lambda x, y: y, OrderGraph(1), BOX)
    assert not cert.passed
    assert all(v["clause"] == "y" for v in cert.violations)
    assert len(cert.violations) <= VIOLATION_CAP <= cert.violation_count
    # the single-valued check is the one-point case of the multivalued one
    multi = check_mixed_monotone_multi(SingletonMultiMap(lambda x, y: y), OrderGraph(1), BOX)
    assert (multi.samples_tested, multi.violation_count) == (cert.samples_tested, cert.violation_count)


def test_any_map_passes_on_full_graph():
    # with every edge present the image-edge requirement is vacuous
    maps = [sum_fifth, lambda x, y: y, lambda x, y: np.maximum(x, y)]
    for fn in maps:
        assert check_mixed_monotone(fn, FullGraph(1), SampleSpec(count=500, seed=2)).passed


def test_mixed_monotone_multi():
    small = SampleSpec(count=400, seed=12, low=-10.0, high=10.0)
    assert not check_mixed_monotone_multi(multi_sum_fifth, OrderGraph(1), small).passed
    assert check_mixed_monotone_multi(multi_sum_fifth, FullGraph(1), small).passed
    assert check_mixed_monotone_multi(lambda x, y: [np.array([2.0])], OrderGraph(1), small).passed
    bad = check_mixed_monotone_multi(lambda x, y: [y], OrderGraph(1), small)
    assert not bad.passed
    assert bad.violations[0]["clause"] == "y"
    assert "unmatched" in bad.violations[0]
    cert = check_mixed_monotone_multi(ragged, OrderGraph(1), small)
    total, found = brute_mixed_monotone_multi(ragged, OrderGraph(1), small)
    assert found and (cert.samples_tested, cert.violation_count) == (total, len(found))
    assert [(w["clause"], w["sample"], w["unmatched"]) for w in cert.violations] == found[:VIOLATION_CAP]


def test_bl_passes_for_sum_map():
    for graph in (OrderGraph(1), FullGraph(1)):
        cert = check_bl(sum_fifth, LINE, graph, 2.0 / 3.0, BOX)
        assert cert.passed
        assert cert.detail == f"k={2.0 / 3.0!r}"


def test_bl_degenerate_pairs_pass():
    pool = SampleSpec(count=50, seed=13, points=(1.5,))
    cert = check_bl(sum_fifth, LINE, FullGraph(1), 0.5, pool)
    assert cert.passed  # 0 <= 0 with slack


def test_bl_rejects_projection_with_witness():
    spec = SampleSpec(count=1000, seed=14, low=-10.0, high=10.0)
    cert = check_bl(lambda x, y: x, LINE, FullGraph(1), 0.9, spec)
    assert not cert.passed
    w = cert.violations[0]
    assert w["lhs"] > w["rhs"] + SLACK
    # witness reproduces on recomputation
    assert abs(w["x"] - w["u"]) == w["lhs"]
    # the single-valued check is the one-point case of the multivalued one
    multi = check_mbl(SingletonMultiMap(lambda x, y: x), LINE, FullGraph(1), 0.9, spec)
    assert (multi.samples_tested, multi.violation_count) == (cert.samples_tested, cert.violation_count)
    assert [(v["lhs"], v["rhs"]) for v in multi.violations] == [
        (v["lhs"], v["rhs"]) for v in cert.violations
    ]


def test_bl_validates_k():
    with pytest.raises(InvalidParameterError):
        check_bl(sum_fifth, LINE, FullGraph(1), 1.0, BOX)


def test_mbl_passes_for_multi_sum():
    cert = check_mbl(multi_sum_fifth, LINE, FullGraph(1), 2.0 / 3.0, SampleSpec(count=500, seed=15, low=-10.0, high=10.0))
    assert cert.passed


def test_mbl_rejects_projection_singleton():
    cert = check_mbl(lambda x, y: [np.asarray(x, dtype=np.float64)], LINE, FullGraph(1), 0.9,
                     SampleSpec(count=500, seed=16, low=-10.0, high=10.0))
    assert not cert.passed
    assert cert.violations[0]["lhs"] > cert.violations[0]["rhs"]


def test_estimate_k_frozen_oracle():
    # sum map on order-graph product edges: analytic minimum is 2/5 and
    # the strict-inequality geometry keeps the sample supremum just below
    spec = SampleSpec(count=100_000, seed=123, low=-10.0, high=10.0)
    est = estimate_k(sum_fifth, LINE, OrderGraph(1), spec)
    assert est == 0.3999989736452456
    assert 0.38 <= est <= 0.40


def test_estimate_k_constant_map():
    assert estimate_k(lambda x, y: np.array([7.0]), LINE, FullGraph(1), BOX) == 0.0


def test_estimate_k_projection_hits_two():
    # pool pairs with y == v and x != u realize the ratio 2 exactly
    pool = SampleSpec(count=2000, seed=17, points=(0.0, 1.0, 2.0))
    assert estimate_k(lambda x, y: x, LINE, FullGraph(1), pool) == 2.0


def test_estimate_k_all_degenerate():
    pool = SampleSpec(count=50, seed=18, points=(1.0,))
    with pytest.raises(InsufficientSamplesError):
        estimate_k(sum_fifth, LINE, FullGraph(1), pool)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_values_never_pass_the_contraction_checks():
    nan_map = lambda x, y: np.full(1, np.nan)
    # NaN only far out: a partly non-finite image, and a partly NaN sample
    half_nan = lambda x, y: np.full(1, np.nan) if float(np.asarray(x)[0]) > 5.0 else 0.1 * np.asarray(x)
    for fn, everywhere in ((nan_map, True), (half_nan, False)):
        for cert in (
            check_bl(fn, LINE, FullGraph(1), 0.9, BOX),
            check_mbl(lambda x, y: [fn(x, y)], LINE, FullGraph(1), 0.9, BOX),
            check_mbl(lambda x, y: [0.1 * np.asarray(x), fn(x, y)], LINE, FullGraph(1), 0.9, BOX),
        ):
            assert not cert.passed and cert.samples_tested == BOX.count
            assert (cert.violation_count == cert.samples_tested) == everywhere
            assert all(not w["lhs"] <= w["rhs"] for w in cert.violations)
        with pytest.raises(NonFiniteValueError, match="non-finite contraction ratio nan"):
            estimate_k(fn, LINE, FullGraph(1), BOX)
    inf_far = lambda x, y: np.full(1, np.inf) if float(np.asarray(x)[0]) > 5.0 else 0.1 * np.asarray(x)
    assert not check_bl(inf_far, LINE, FullGraph(1), 0.9, BOX).passed
    with pytest.raises(NonFiniteValueError, match="non-finite contraction ratio"):
        estimate_k(inf_far, LINE, FullGraph(1), BOX)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_images_never_pass_mixed_monotone():
    nan_map = lambda x, y: np.full(1, np.nan)
    inf_far = lambda x, y: np.full(1, np.inf) if float(np.asarray(x)[0]) > 5.0 else 0.1 * np.asarray(x)
    for fn, everywhere in ((nan_map, True), (inf_far, False)):
        for cert in (
            check_mixed_monotone(fn, FullGraph(1), BOX),
            check_mixed_monotone_multi(lambda x, y: [fn(x, y)], FullGraph(1), BOX),
            # the finite point of each image matches, the other one never does
            check_mixed_monotone_multi(lambda x, y: [0.1 * np.asarray(x), fn(x, y)], FullGraph(1), BOX),
        ):
            assert not cert.passed and cert.samples_tested == 2 * BOX.count
            assert (cert.violation_count == cert.samples_tested) == everywhere
    # a non-finite "to" point is no match for a finite "from" point
    to_nan = lambda x, y: [np.full(1, np.nan)] if float(np.asarray(x)[0]) > 0.0 else [0.1 * np.asarray(x)]
    cert = check_mixed_monotone_multi(to_nan, FullGraph(1), BOX)
    for w in cert.violations:
        assert np.isnan(w["unmatched"]) or w["clause"] == "x" and w["edge_to"] > 0.0
    assert any(w["clause"] == "x" and not np.isnan(w["unmatched"]) for w in cert.violations)
    # finite images keep their verdicts
    assert check_mixed_monotone(sum_fifth, FullGraph(1), BOX).passed
    assert check_mixed_monotone_multi(multi_sum_fifth, FullGraph(1), BOX).passed


def _strict(text):
    """*text* parsed as strict JSON: NaN and Infinity constants are refused."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_certificate_dict_is_strict_json():
    cert = check_bl(lambda x, y: np.full(1, np.nan), LINE, FullGraph(1), 0.9, BOX)
    doc = cert.to_dict()
    assert math.isnan(doc["violations"][0]["lhs"])  # to_dict keeps the float
    assert doc["violations"][0] is not cert.violations[0]
    assert _strict(_json_text(doc))["violations"][0]["lhs"] == "NaN"
    cert = Certificate("BL", 1, True, estimated_constant=float("inf"),
                       violations=(), violation_count=0)
    assert cert.to_dict()["estimated_constant"] == math.inf
    assert _strict(_json_text(cert.to_dict()))["estimated_constant"] == "Infinity"
    point = {"point": [1.0, float("-inf")], "lhs": 0.5}
    cert = Certificate("MBL", 1, False, violations=(point,), violation_count=1)
    assert cert.to_dict()["violations"] == [point]
    assert _strict(_json_text(cert.to_dict()))["violations"] == [{"point": [1.0, "-Infinity"], "lhs": 0.5}]


def test_estimated_k_with_margin_passes_bl_on_same_sample():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = rng.uniform(0.05, 0.45)
        t = rng.uniform(0.0, 1.0)
        a = s * t * rng.choice([-1.0, 1.0])
        b = s * (1.0 - t) * rng.choice([-1.0, 1.0])
        fn = LinearCoupledMap(a, b)
        spec = SampleSpec(count=1000, seed=int(rng.integers(0, 2**31)), low=-10.0, high=10.0)
        est = estimate_k(fn, LINE, FullGraph(1), spec)
        assert check_bl(fn, LINE, FullGraph(1), est + 1e-9, spec).passed


def test_checks_deterministic_for_fixed_seed():
    a = check_mixed_monotone(sum_fifth, OrderGraph(1), BOX)
    b = check_mixed_monotone(sum_fifth, OrderGraph(1), BOX)
    assert a == b
    # batched images (eval_batch) and the per-sample fallback agree exactly
    small = SampleSpec(count=400, seed=21, low=-10.0, high=10.0)
    for d, points in ((1, ["(x + y) / 5", "x - y / 2"]),
                      (2, [["x1 - y2", "x2 / 3"], ["y1", "x1 * x2"], ["x1", "y2"]])):
        multi = ExpressionMultiMap(points, dimension=d)
        plain = lambda x, y: multi(x, y)
        for check in (lambda f: check_mixed_monotone_multi(f, OrderGraph(d), small),
                      lambda f: check_mbl(f, EuclideanSpace(d), OrderGraph(d), 0.5, small)):
            batched = check(multi)
            assert batched.violation_count > 0
            assert batched == check(plain)


def test_mbl_dimension_two():
    space = EuclideanSpace(2)
    fn = lambda x, y: [0.1 * np.asarray(x) - 0.1 * np.asarray(y)]
    cert = check_mbl(fn, space, FullGraph(2), 0.5, SampleSpec(count=300, seed=20, low=-5.0, high=5.0))
    assert cert.passed
    spec = SampleSpec(count=300, seed=20, low=-5.0, high=5.0)
    cert = check_mbl(ragged, space, OrderGraph(2), 0.5, spec)
    total, found = brute_mbl(ragged, space, OrderGraph(2), 0.5, spec)
    assert found and (cert.samples_tested, cert.violation_count) == (total, len(found))
    witnesses = [(v["sample"], v["point"], v["lhs"], v["rhs"]) for v in cert.violations]
    assert witnesses == found[:VIOLATION_CAP]


class MisshapenBatchMap:
    """A single-valued map whose ``eval_batch`` returns rows of another shape."""

    def __init__(self, shape):
        self.shape = shape

    def __call__(self, x, y):
        return (np.asarray(x) + np.asarray(y)) / 5.0

    def eval_batch(self, X, Y):
        return np.zeros((len(X), *self.shape))


def _mixed_monotone_reference(fn, graph, spec, multi):
    """Each clause's sample count, violation count and witnesses, clause by
    clause from the checker's draws, point by point, witnesses capped at 25."""
    sampler = Sampler(spec, 1)
    counts, witnesses = [], []
    for clause in "xy":
        P1, P2, W = sampler.edge_triples(graph)
        bad = 0
        for s, (p1, p2, w) in enumerate(zip(P1.tolist(), P2.tolist(), W.tolist())):
            args = ((p1, w), (p2, w)) if clause == "x" else ((w, p2), (w, p1))
            A, B = ([float(np.ravel(v)[0]) for v in (fn(*a) if multi else [fn(*a)])] for a in args)
            unmatched = [u for u in A if not any(graph.has_edge(u, v) for v in B)]
            if not unmatched:
                continue
            bad += 1
            w_ = {"clause": clause, "sample": s}
            if multi:
                w_.update(edge_from=p1[0], edge_to=p2[0], other=w[0], unmatched=unmatched[0])
            else:
                other = "y" if clause == "x" else "x"
                w_.update({f"{clause}1": p1[0], f"{clause}2": p2[0], other: w[0],
                           "image_from": A[0], "image_to": B[0]})
            if len(witnesses) < VIOLATION_CAP:
                witnesses.append(w_)
        counts.append((len(P1), bad))
    return counts, witnesses


@pytest.mark.parametrize("multi", [False, True])
def test_mixed_monotone_clauses_of_unequal_size(multi):
    # edges |p - q| < 0.0014 on [-1, 1]: rejection runs out of draws, so each
    # clause holds its own count of samples.  F stretches x by 1.2 and y by 3,
    # so clause x breaks on about 1 sample in 6 and clause y on 2 in 3; the
    # multivalued map adds a point that always matches in clause x
    graph = PredicateGraph(1, lambda p, q: abs(p[0] - q[0]) < 0.0014)
    spec = SampleSpec(count=60, seed=17, low=-1.0, high=1.0)
    if multi:
        fn, check = ExpressionMultiMap(["1.2 * x - 3 * y", "x + y / 4"]), check_mixed_monotone_multi
    else:
        fn, check = ExpressionCoupledMap("1.2 * x - 3 * y"), check_mixed_monotone
    counts, witnesses = _mixed_monotone_reference(fn, graph, spec, multi)
    (nx, bad_x), (ny, bad_y) = counts
    cert = check(fn, graph, spec)
    assert nx != ny and nx < 60 and ny < 60
    assert 0 < bad_x < VIOLATION_CAP < bad_x + bad_y
    assert cert.samples_tested == nx + ny
    assert cert.violation_count == bad_x + bad_y
    assert list(cert.violations) == witnesses
    assert [w["clause"] for w in cert.violations] == ["x"] * bad_x + ["y"] * (VIOLATION_CAP - bad_x)


def test_malformed_single_valued_batch_is_an_input_error():
    # one coordinate too many, or two image points where one is due
    for d in (1, 3):
        for shape, shown in (((d + 1,), f"{d + 1}"), ((2, d), f"2, {d}")):
            fn, space, graph = MisshapenBatchMap(shape), EuclideanSpace(d), OrderGraph(d)
            spec = SampleSpec(count=50, seed=3, low=-1.0, high=1.0)
            # each checker evaluates its whole sample in one call: 2 or 4 rows per sample
            for rows, check in ((100, lambda: check_bl(fn, space, graph, 0.5, spec)),
                                (200, lambda: check_mixed_monotone(fn, graph, spec)),
                                (100, lambda: estimate_k(fn, space, graph, spec))):
                message = rf"eval_batch returned shape \({rows}, {shown}\), expected \({rows}, {d}\)"
                with pytest.raises(InvalidInputError, match=message):
                    check()


def test_flat_single_valued_batch_is_read_as_one_point_images():
    # a 1-D eval_batch result is n one-point images, which fits dimension 1 only
    flat = MisshapenBatchMap(())
    images = _images(flat, np.zeros((50, 1)), np.ones((50, 1)), 1, multi=False)
    assert images.shape == (50, 1, 1) and not images.any()
    with pytest.raises(InvalidInputError, match=r"^eval_batch returned shape \(50,\), expected \(50, 2\)$"):
        _images(flat, np.zeros((50, 2)), np.ones((50, 2)), 2, multi=False)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_bl_certificate_carries_estimate_k_of_its_sample():
    for d in (1, 3):
        fns = [ExpressionCoupledMap([f"(x{j} + y{d + 1 - j}) / 5" for j in range(1, d + 1)], dimension=d),
               lambda x, y: 0.3 * np.asarray(x) - 0.2 * np.asarray(y) ** 2]
        for space in (EuclideanSpace(d), ChebyshevSpace(d)):
            for graph in (OrderGraph(d), FullGraph(d)):
                for fn in fns:
                    spec = SampleSpec(count=300, seed=40 + d, low=-2.0, high=2.0)
                    cert = check_bl(fn, space, graph, 0.5, spec)
                    assert cert.estimated_constant == estimate_k(fn, space, graph, spec)
                    assert cert.estimated_constant > 0.0
    # MBL has no estimate
    assert check_mbl(multi_sum_fifth, LINE, FullGraph(1), 0.5, BOX).estimated_constant is None
    # no estimate where estimate_k raises: an all-degenerate pool ...
    pool = SampleSpec(count=50, seed=18, points=(1.0,))
    with pytest.raises(InsufficientSamplesError):
        estimate_k(sum_fifth, LINE, FullGraph(1), pool)
    cert = check_bl(sum_fifth, LINE, FullGraph(1), 0.5, pool)
    assert cert.passed and cert.estimated_constant is None
    # ... and a non-finite ratio, which also fails the certificate
    inf_far = lambda x, y: np.full(1, np.inf) if float(np.asarray(x)[0]) > 5.0 else 0.1 * np.asarray(x)
    with pytest.raises(NonFiniteValueError):
        estimate_k(inf_far, LINE, FullGraph(1), BOX)
    cert = check_bl(inf_far, LINE, FullGraph(1), 0.9, BOX)
    assert not cert.passed and cert.estimated_constant is None


@pytest.mark.parametrize("multi", [False, True])
def test_mixed_monotone_stacked_and_per_clause_certificates_agree(monkeypatch, multi):
    # count 600 at d = 2 stacks 4 * 600 rows of 2 values, within one block:
    # one map evaluation.  With the block one value smaller, each of the
    # four image sets is evaluated on its own.  Both clauses break on part
    # of the sample, so the witnesses hold both
    graph = OrderGraph(2)
    spec = SampleSpec(count=600, seed=23, low=-5.0, high=5.0)
    if multi:
        fn = ExpressionMultiMap([["0.4*x1 + 0.9*y1", "x2 - 0.5*y2 - 0.03*x1*x1"],
                                 ["1.3*x1 - 0.1*y2", "0.2*x2 + 1.1*y1"]], 2)
        check = check_mixed_monotone_multi
    else:
        fn = ExpressionCoupledMap(["1.5*y1 + 0.2*x2", "0.3*x2 + 0.005*x1*x1 + 1.2*y2"], 2)
        check = check_mixed_monotone
    rows = []
    images = checks._images
    monkeypatch.setattr(checks, "_images", lambda fn, X, *args: rows.append(len(X)) or images(fn, X, *args))
    assert 4 * spec.count * 2 <= checks._BLOCK_VALUES
    stacked = check(fn, graph, spec)
    monkeypatch.setattr(checks, "_BLOCK_VALUES", 4 * spec.count * 2 - 1)
    per_clause = check(fn, graph, spec)
    n = stacked.samples_tested
    assert n == 2 * spec.count and rows == [2 * n] + [n // 2] * 4
    assert stacked == per_clause
    assert _json_text(stacked.to_dict()) == _json_text(per_clause.to_dict())
    clauses = [w["clause"] for w in stacked.violations]
    assert stacked.violation_count > VIOLATION_CAP and "x" in clauses and "y" in clauses
    assert clauses == sorted(clauses)


def test_point_json_gives_floats_at_d_1_and_coordinate_lists_otherwise():
    assert _point_json(np.array([2.5])) == 2.5 and type(_point_json(np.float64(2.5))) is float
    assert _point_json((1, -0.0)) == [1.0, -0.0]
    rows = np.array([[1.0, 2.0], [3.0, 5e-324]])
    assert _point_json(rows, rows=True) == [[1.0, 2.0], [3.0, 5e-324]]
    assert _point_json(rows[:, :1], rows=True) == [1.0, 3.0]
    assert _point_json(np.zeros((0, 3)), rows=True) == []


def test_json_text_spells_non_finite_floats_in_lists():
    assert _json_text([1.0, -2.5, 5e-324]) == "[\n  1.0,\n  -2.5,\n  5e-324\n]"
    assert _json_text([]) == "[]" and _json_text(math.nan) == '"NaN"' and _json_text(3) == "3"
    assert _json_text([1.0, math.nan, math.inf, -math.inf]) == (
        '[\n  1.0,\n  "NaN",\n  "Infinity",\n  "-Infinity"\n]')
    # entries whose sum overflows, or that are not all floats, are written one by one
    assert _json_text([1e308, 1e308]) == "[\n  1e+308,\n  1e+308\n]"
    assert _json_text([10**400, -math.inf]) == f'[\n  {10**400},\n  "-Infinity"\n]'
    assert _json_text([[1.0, math.inf], "x", None]) == (
        '[\n  [\n    1.0,\n    "Infinity"\n  ],\n  "x",\n  null\n]')


_JSON_LEAVES = [
    "", "ascii", "caf\u00e9", "\u65e5\u672c", "\U0001f600", "\x00\x1f\"\\/\u2028\t\n",
    0.0, -0.0, 5e-324, 1e16, 1e-5, 1e308, -2.5, 0.1, np.float64(0.1), np.float64(-0.0),
    0, -7, 2**53 + 1, 10**30, -(10**40), True, False, None, [], {}, (),
]


def _json_document(rng, depth):
    """A seeded nested document of the types report.json and spec labels hold."""
    kind = rng.random() if depth < 4 else 1.0
    if kind < 0.25:
        return {rng.choice(["a", "b", "\u00fc", "\x01", "k e y", "10", "B"]) + str(rng.randrange(9)):
                _json_document(rng, depth + 1) for _ in range(rng.randrange(5))}
    if kind < 0.4:
        return [_json_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind < 0.5:
        return tuple(_json_document(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind < 0.6:  # lists of floats, which take the one-join path
        return [rng.choice([rng.uniform(-1e3, 1e3), 1e308, -0.0, np.float64(3.5)])
                for _ in range(rng.randrange(1, 5))]
    return rng.choice(_JSON_LEAVES)


def test_json_text_gives_the_bytes_of_json_dumps_indent_2():
    rng = random.Random(30)
    docs = [_json_document(rng, 0) for _ in range(300)] + _JSON_LEAVES
    docs += [{"nested": {"empty": [{}, [], ()], "t": (1.0, (2, [3.5]))}}, [1.0, 2, True], [True, 1.0]]
    for doc in docs:
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _spelled(doc):
    """*doc* with each non-finite float replaced by the string report.json holds."""
    if isinstance(doc, dict):
        return {k: _spelled(c) for k, c in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_spelled(c) for c in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return "NaN" if math.isnan(doc) else "Infinity" if doc > 0 else "-Infinity"
    return doc


def test_json_text_non_finite_floats_and_unsupported_types():
    for v in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")):
        for doc in (v, [v], [1.0, v], {"a": {"b": v}}, ["x", v], (v, 2)):
            text = _json_text(doc)
            assert text == json.dumps(_spelled(doc), indent=2, sort_keys=True, allow_nan=False)
    for bad in (np.int64(1), np.bool_(True), np.array([1.0]), {1, 2}, b"x", object(),
                {1: 2.0}, {"a": [1.0, np.int64(2)]}):
        with pytest.raises(TypeError):
            _json_text(bad)
