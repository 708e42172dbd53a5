from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from coupled_fpi import (
    EuclideanSpace,
    ExpressionCoupledMap,
    ExpressionMultiMap,
    FiniteGraph,
    FiniteSet,
    FullGraph,
    HypothesisReport,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    LinearCoupledMap,
    NonFiniteValueError,
    OrderGraph,
    PredicateGraph,
    ProblemInstance,
    SampleSpec,
    SeedEdgeError,
    SelectionFailureError,
    SingletonMultiMap,
    SolveConfig,
    build_instance,
    check_property_star,
    instance_id_for,
    parse_spec,
    preflight,
    real_line,
    solve_instance,
)
from coupled_fpi import certifier, cli, finite_sets
from coupled_fpi.certifier import _TRIAL_STEPS, _preflight
from coupled_fpi.checks import (
    VIOLATION_CAP,
    _json_text,
    check_bl,
    check_mbl,
    check_mixed_monotone,
    check_mixed_monotone_multi,
)
from coupled_fpi.errors import CoupledFpiError, NotAVertexError
from coupled_fpi.expressions import _BLOCK_VALUES
from coupled_fpi.graphs import Digraph
from coupled_fpi.problem_spec import build_sample_spec, build_solve_config

LINE = real_line()
SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
CORPUS_DIR = pathlib.Path(__file__).resolve().parent / "golden" / "corpus"
BOX = SampleSpec(count=10_000, seed=2024, low=-10.0, high=10.0)
SMALL_BOX = SampleSpec(count=1500, seed=2024, low=-10.0, high=10.0)


def sum_fifth(x, y):
    return (x + y) / 5.0


def multi_sum_fifth(x, y):
    v = (np.asarray(x) + np.asarray(y)) / 5.0
    return [-v, v]


def single_instance(graph, x0=0.0, y0=1.0, continuous=True, fn=sum_fifth, k=2.0 / 3.0):
    return ProblemInstance(
        kind="single", space=LINE, graph=graph, map=fn, k=k,
        x0=x0, y0=y0, continuous=continuous,
    )


def multi_instance(x1=-0.2, y1=-0.2, continuous=True):
    return ProblemInstance(
        kind="multi", space=LINE, graph=FullGraph(1), map=multi_sum_fifth,
        k=2.0 / 3.0, x0=0.0, y0=1.0, x1=x1, y1=y1, continuous=continuous,
    )


def test_instance_validation():
    with pytest.raises(InvalidParameterError, match="kind"):
        ProblemInstance(kind="set", space=LINE, graph=FullGraph(1),
                        map=sum_fifth, k=0.5, x0=0.0, y0=1.0)
    with pytest.raises(InvalidInputError, match="x1 and y1"):
        ProblemInstance(kind="multi", space=LINE, graph=FullGraph(1),
                        map=multi_sum_fifth, k=0.5, x0=0.0, y0=1.0)
    inst = single_instance(FullGraph(1))
    assert isinstance(inst.x0, np.ndarray) and inst.x0.shape == (1,)
    assert inst.y0[0] == 1.0


def test_instance_graph_must_match_the_space():
    with pytest.raises(InvalidInputError, match="^graph dimension 2 != space dimension 1$"):
        single_instance(OrderGraph(2))


def test_instance_k_follows_the_k_rule():
    for k, want in (("a", "^k must be a number, got 'a'$"), (1.5, r"^k must lie in \(0,1\)$")):
        with pytest.raises(InvalidParameterError, match=want):
            single_instance(FullGraph(1), k=k)
    inst = single_instance(FullGraph(1), k=np.float64(0.5))
    assert type(inst.k) is float
    assert instance_id_for(inst) == instance_id_for(single_instance(FullGraph(1), k=0.5))


def test_instance_continuity_is_a_flag():
    with pytest.raises(InvalidParameterError, match="^continuous must be a boolean, got 'no'$"):
        single_instance(FullGraph(1), continuous="no")
    assert single_instance(FullGraph(1), continuous=np.False_).continuous is False


def test_instance_id_is_stable_and_discriminating():
    a = single_instance(FullGraph(1))
    b = single_instance(FullGraph(1))
    assert instance_id_for(a) == instance_id_for(b)
    iid = instance_id_for(a)
    assert len(iid) == 12
    assert all(c in "0123456789abcdef" for c in iid)
    c = single_instance(FullGraph(1), k=0.5)
    assert instance_id_for(c) != iid

    # Builtin maps that differ only in their params get different ids.
    def linear(a, b):
        doc = json.loads((SPEC_DIR / "single_sum_fifth.json").read_text())
        doc["map"]["definition"] = {"name": "linear", "a": a, "b": b}
        return instance_id_for(build_instance(parse_spec(json.dumps(doc))))

    assert linear(0.2, -0.1) == linear(0.2, -0.1)
    assert len({linear(0.2, -0.1), linear(0.3, -0.1), linear(0.2, 0.1)}) == 3
    shipped_text = (SPEC_DIR / "single_sum_fifth.json").read_text()
    shipped = build_instance(parse_spec(shipped_text))
    assert instance_id_for(shipped) == "f87d59e2ec11"

    # The id is a digest of the whole spec: the sampler and the solve settings count too.
    def variant(section, key, value):
        doc = json.loads(shipped_text)
        doc[section][key] = value
        return instance_id_for(build_instance(parse_spec(json.dumps(doc))))

    variants = [("sampler", "count", 5000), ("sampler", "low", -9.0), ("sampler", "rng_seed", 7),
                ("solve", "tol", 1e-11), ("solve", "max_iter", 300), ("solve", "check_bounds", False)]
    assert len({instance_id_for(shipped), *(variant(*v) for v in variants)}) == 7

    # Edge-list graphs that differ only in their edges or vertices get different ids.
    def edge_list(vertices, edges):
        doc = json.loads((SPEC_DIR / "single_sum_fifth.json").read_text())
        doc["graph"] = {"kind": "edge_list", "vertices": vertices, "edges": edges}
        return instance_id_for(build_instance(parse_spec(json.dumps(doc))))

    ids = {edge_list([0.0, 1.0], []), edge_list([0.0, 1.0], [[0.0, 1.0]]),
           edge_list([0.0, 1.0], [[1.0, 0.0]]), edge_list([0.0, 1.0, 2.0], [[1.0, 0.0]])}
    assert len(ids) == 4
    assert edge_list([0.0, 1.0], [[0.0, 1.0]]) == edge_list([0.0, 1.0], [[0.0, 1.0]])


def test_library_instances_are_labeled_by_their_builtin_map():
    def iid(fn, kind="single", **seeds):
        return instance_id_for(ProblemInstance(kind=kind, space=LINE, graph=FullGraph(1), map=fn,
                                               k=2.0 / 3.0, x0=0.0, y0=1.0, **seeds))

    # instances that differ only in their expression map
    fifth, shifted = ExpressionCoupledMap(["(x + y) / 5"]), ExpressionCoupledMap(["x - y + 100"])
    assert iid(fifth) != iid(shifted)
    assert iid(fifth) == iid(ExpressionCoupledMap(["(x + y) / 5"]))
    assert len({iid(LinearCoupledMap(0.2, 0.2)), iid(LinearCoupledMap(0.2, -0.2)), iid(fifth)}) == 3
    multi = dict(kind="multi", x1=0.2, y1=0.2)
    assert iid(ExpressionMultiMap([["(x + y) / 5"], ["x"]]), **multi) != \
        iid(ExpressionMultiMap([["(x + y) / 5"], ["y"]]), **multi)
    # an arbitrary callable is not identified; a spec-built label is kept
    assert iid(sum_fifth) == iid(lambda x, y: x - y + 100)
    shipped = build_instance(parse_spec((SPEC_DIR / "single_sum_fifth.json").read_text()))
    assert instance_id_for(shipped) == "f87d59e2ec11"


def test_property_star_descending_series():
    seq = [(1.0 / 5.0) * (2.0 / 5.0) ** n for n in range(12)]
    cert = check_property_star(OrderGraph(1), seq, 0.0, "descending")
    assert cert.passed and cert.detail == "descending"
    assert cert.samples_tested == 12


def test_property_star_ascending_series():
    seq = [-(1.0 / 5.0) * (2.0 / 5.0) ** n for n in range(12)]
    cert = check_property_star(OrderGraph(1), seq, 0.0, "ascending")
    assert cert.passed and cert.detail == "ascending"


def test_property_star_constant_sequence():
    cert = check_property_star(OrderGraph(1), [1.5, 1.5, 1.5], 1.5, "ascending")
    assert cert.passed


def test_property_star_finite_counterexample():
    # chain 0 -> 1 -> ... -> 5 whose declared limit 99 is disconnected
    verts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 99.0]
    g = FiniteGraph(verts, edges=[(float(i), float(i + 1)) for i in range(5)])
    cert = check_property_star(g, verts[:6], 99.0, "ascending")
    assert not cert.passed
    assert cert.violation_count == 6
    assert all(v["kind"] == "conclusion" for v in cert.violations)


def test_property_star_premise_violation():
    cert = check_property_star(OrderGraph(1), [0.0, 2.0], 2.0, "descending")
    assert not cert.passed
    assert cert.violations[0]["kind"] == "premise"
    assert cert.detail.startswith("premise-violated at term 0")


def test_property_star_caps_its_witnesses():
    # an ascending chain whose declared limit lies below every term
    cert = check_property_star(OrderGraph(1), [float(n) for n in range(40)], -1.0, "ascending")
    assert cert.violation_count == 40 and len(cert.violations) == VIOLATION_CAP
    assert [v["term"] for v in cert.violations] == list(range(VIOLATION_CAP))
    assert cert.violations[0] == {"term": 0, "kind": "conclusion", "point": 0.0, "limit": -1.0}
    assert cert.seed is None and cert.estimated_constant is None


def test_property_star_validation():
    with pytest.raises(InvalidInputError):
        check_property_star(OrderGraph(1), [], 0.0)
    with pytest.raises(InvalidInputError):
        check_property_star(OrderGraph(1), [0.0], 0.0, "sideways")


def test_property_star_monotone_sequences_always_pass():
    rng = np.random.default_rng(701)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        vals = np.sort(rng.uniform(-10.0, 10.0, size=n))
        up = check_property_star(OrderGraph(1), list(vals), vals[-1] + rng.uniform(0.1, 1.0))
        assert up.passed
        down = check_property_star(
            OrderGraph(1), list(vals[::-1]), vals[0] - rng.uniform(0.1, 1.0), "descending"
        )
        assert down.passed
    for _ in range(20):
        n = int(rng.integers(3, 15))
        steps = rng.uniform(0.0, 1.0, size=(n, 2))
        seq = np.cumsum(steps, axis=0)
        lim = seq[-1] + rng.uniform(0.1, 1.0, size=2)
        cert = check_property_star(OrderGraph(2), list(seq), lim, "ascending")
        assert cert.passed


def test_preflight_certifies_continuous_single_instance():
    report = preflight(single_instance(FullGraph(1)), BOX)
    assert report.theorem_applicable == "thm_3_1"
    assert report.passed
    assert report.seed_edge_ok
    assert all(c.passed for c in report.certificates)
    mono = report.certificate("mixed_monotone")
    assert mono is not None and mono.samples_tested == 2 * BOX.count
    bl = report.certificate("BL")
    assert bl is not None
    assert bl.estimated_constant is not None and bl.estimated_constant < 1.0
    assert any("continuity asserted; spot check found no violation" in n for n in report.notes)


def test_preflight_certifies_continuous_multi_instance():
    report = preflight(multi_instance(), SMALL_BOX)
    assert report.theorem_applicable == "thm_4_1"
    assert report.certificate("mixed_monotone_multi").passed
    assert report.certificate("MBL").passed
    assert any("continuity asserted; spot check found no violation" in n for n in report.notes)


def test_preflight_noncontinuous_single_checks_limit_edges():
    report = preflight(single_instance(FullGraph(1), continuous=False), SMALL_BOX)
    assert report.theorem_applicable == "thm_3_2"
    stars = [c for c in report.certificates if c.property_name == "property_star"]
    assert len(stars) == 2
    assert {c.detail for c in stars} == {"ascending", "descending"}
    assert all(c.passed for c in stars)
    assert any("not falsified" in n for n in report.notes)


def test_preflight_noncontinuous_multi():
    report = preflight(multi_instance(continuous=False), SMALL_BOX)
    assert report.theorem_applicable == "thm_4_2"
    assert any("not falsified" in n for n in report.notes)


@pytest.mark.parametrize("continuous", [True, False], ids=["continuous", "property_star"])
def test_preflight_rejects_an_inverted_box_in_either_mode(continuous):
    inverted = SampleSpec(count=100, seed=2024, low=5.0, high=-5.0)
    for instance in (single_instance(FullGraph(1), continuous=continuous),
                     multi_instance(continuous=continuous)):
        with pytest.raises(InvalidInputError, match="SampleSpec.low exceeds SampleSpec.high in coordinate 0: 5.0 > -5.0"):
            preflight(instance, inverted)


def test_preflight_rejects_non_contraction():
    report = preflight(single_instance(FullGraph(1), fn=lambda x, y: x, k=0.5), SMALL_BOX)
    assert report.theorem_applicable == "none"
    assert not report.passed
    bl = report.certificate("BL")
    assert bl is not None and not bl.passed
    assert bl.violation_count > 0


def test_preflight_reports_seed_edge_failure():
    report = preflight(single_instance(OrderGraph(1), x0=5.0, y0=5.0), SMALL_BOX)
    assert not report.seed_edge_ok
    assert report.theorem_applicable == "none"
    assert any("seed edge condition FAILED" in n for n in report.notes)


def test_preflight_falsifies_asserted_continuity():
    # the declared pool keeps every hypothesis sample on {1, 2}, where the
    # map looks fine; the continuity probe still walks off the plateau edge
    def step_map(x, y):
        v = float(np.asarray(x).reshape(-1)[0])
        if v <= 1.0:
            return 0.01
        if v <= 2.0:
            return 0.005
        return 0.0

    pool = SampleSpec(count=64, seed=9, points=((1.0,), (2.0,)))
    inst = single_instance(FullGraph(1), x0=1.0, y0=2.0, fn=step_map, k=0.5)
    report = preflight(inst, pool)
    assert report.theorem_applicable == "none"
    assert any("continuity spot check FAILED" in n for n in report.notes)


@pytest.mark.parametrize("scale", [1.0, 100.0])
@pytest.mark.parametrize("rng_seed", [46, 61, 101, 108])
def test_continuity_probe_has_a_direction_on_a_vertex_pool(rng_seed, scale):
    # at these seeds a direction drawn from the pool would be 0 every
    # time; unit-box directions, probed on both sides, see the jump in
    # the middle vertex, and at scale 100 only a step scaled by the
    # anchor survives rounding there
    def step_map(x, y):
        return 0.3 if float(np.asarray(x).reshape(-1)[0]) < 0.5 * scale else 0.2

    pool = SampleSpec(count=64, seed=rng_seed, points=((0.0,), (0.5 * scale,), (scale,)))
    inst = single_instance(FullGraph(1), x0=0.0, y0=scale, fn=step_map, k=0.5)
    report = preflight(inst, pool)
    assert report.theorem_applicable == "none"
    assert any(n.startswith(f"continuity spot check FAILED near {0.5 * scale!r}")
               for n in report.notes)


def _multimap(image):
    """The multimap (x, y) -> image(x, (x + y) / 5) on the line."""
    def fn(x, y):
        x, y = float(np.asarray(x)[0]), float(np.asarray(y)[0])
        return image(x, (x + y) / 5.0)
    return fn


@pytest.mark.parametrize("fn, note", [
    # one image point jumps by 1 as x crosses 1
    (_multimap(lambda x, s: [s, s + (x >= 1.0)]), "continuity spot check FAILED near 1.0: jump 1.0"),
    # the two image points swap places at x = 1: the set does not move
    (_multimap(lambda x, s: [s, -s] if x < 1.0 else [-s, s]),
     "continuity asserted; spot check found no violation"),
    # NaN at every anchor: the note names the first one drawn
    (_multimap(lambda x, s: [s, np.nan]), "continuity spot check FAILED near 2.0: jump nan"),
], ids=["jump", "permuted", "nan"])
def test_multivalued_continuity_spot_check(fn, note):
    # the anchors drawn from this pool are (2, 1), (2, 2) and (1, 2)
    pool = SampleSpec(count=64, seed=9, points=((1.0,), (2.0,)))
    inst = ProblemInstance(kind="multi", space=LINE, graph=FullGraph(1), map=fn, k=2.0 / 3.0,
                           x0=1.0, y0=2.0, x1=0.6, y1=0.6)
    notes = [n for n in preflight(inst, pool).notes if n.startswith("continuity")]
    assert len(notes) == 1 and notes[0].startswith(note)


@pytest.mark.parametrize("fn, note", [
    (sum_fifth, "continuity asserted; spot check found no violation"),
    (lambda x, y: 0.3 if float(np.asarray(x)[0]) < 1.0 else 0.2,
     "continuity spot check FAILED near 1.0: jump 0.0999"),
], ids=["continuous", "step"])
def test_singleton_multimap_gets_the_single_valued_continuity_note(fn, note):
    pool = SampleSpec(count=64, seed=9, points=((1.0,), (2.0,)))
    single = single_instance(FullGraph(1), x0=1.0, y0=2.0, fn=fn, k=2.0 / 3.0)
    x1, y1 = fn(np.array([1.0]), np.array([2.0])), fn(np.array([2.0]), np.array([1.0]))
    multi = ProblemInstance(kind="multi", space=LINE, graph=FullGraph(1), map=SingletonMultiMap(fn),
                            k=2.0 / 3.0, x0=1.0, y0=2.0, x1=x1, y1=y1)
    notes = [[n for n in preflight(inst, pool).notes if n.startswith("continuity")]
             for inst in (single, multi)]
    assert notes[0] == notes[1] and len(notes[0]) == 1 and notes[0][0].startswith(note)


def test_preflight_flags_non_member_seed_iterate():
    report = preflight(multi_instance(x1=0.3), SMALL_BOX)
    assert not report.seed_edge_ok
    assert any("not members of the seed images" in n for n in report.notes)


def test_preflight_flags_nan_seed_iterate():
    inst = ProblemInstance(
        kind="multi", space=LINE, graph=FullGraph(1), map=lambda x, y: [0.5],
        k=0.5, x0=0.0, y0=1.0, x1=np.nan, y1=0.5,
    )
    report = preflight(inst, SMALL_BOX)
    assert not report.seed_edge_ok
    assert report.theorem_applicable == "none"
    assert any("not members of the seed images" in n for n in report.notes)
    assert any("seed edge condition FAILED" in n for n in report.notes)


def _raise_at(x0, y0, fn):
    """*fn*, but raising a package error when evaluated at (x0, y0)."""
    def at(x, y):
        if float(np.asarray(x)[0]) == x0 and float(np.asarray(y)[0]) == y0:
            raise InvalidInputError(f"no value at ({x0}, {y0})")
        return fn(x, y)
    return at


def test_preflight_notes_a_seed_evaluation_failure():
    # F raises at the seed itself and nowhere the samples or anchors reach
    single = single_instance(FullGraph(1), fn=_raise_at(1.0, 0.0, sum_fifth), k=0.5)
    multi = dataclasses.replace(multi_instance(), map=_raise_at(0.0, 1.0, multi_sum_fifth))
    for inst, where in ((single, "(1.0, 0.0)"), (multi, "(0.0, 1.0)")):
        report = preflight(inst, SMALL_BOX)
        assert not report.seed_edge_ok
        assert report.theorem_applicable == "none"
        assert report.notes[:2] == (f"seed evaluation failed: no value at {where}",
                                    "seed edge condition FAILED")
    # x1 is checked before F(y0, x0) is evaluated, by preflight as by the solver
    inst = dataclasses.replace(multi_instance(x1=0.3), map=_raise_at(1.0, 0.0, multi_sum_fifth))
    assert preflight(inst, SMALL_BOX).notes[0] == \
        "declared seed iterates are not members of the seed images"
    with pytest.raises(InvalidSeedError, match=r"^x1 is not a point of F\(x0, y0\)$"):
        solve_instance(inst, SolveConfig(k=0.5))


def test_preflight_notes_a_skipped_continuity_spot_check():
    # every checker sample sits on the pool {1, 2}; the spot check probes
    # just beside its anchors, where F raises
    def pool_only(x, y):
        if not {float(np.asarray(x)[0]), float(np.asarray(y)[0])} <= {1.0, 2.0}:
            raise InvalidInputError("off the pool")
        return 0.01

    pool = SampleSpec(count=64, seed=9, points=((1.0,), (2.0,)))
    report = preflight(single_instance(FullGraph(1), x0=1.0, y0=2.0, fn=pool_only, k=0.5), pool)
    assert "continuity spot check skipped: off the pool" in report.notes
    assert report.theorem_applicable == "thm_3_1"


def test_continuity_probes_leave_their_anchors_ray(monkeypatch):
    # on a box within [-1, 1] each probe sits at anchor +- 2^-48 u; a u drawn
    # from the anchors' own uniforms would point along the anchor every time
    rows = []
    images = certifier._images
    monkeypatch.setattr(certifier, "_images", lambda fn, X, *args: rows.append(X) or images(fn, X, *args))
    inst = ProblemInstance(kind="single", space=EuclideanSpace(2), graph=FullGraph(2),
                           map=ExpressionCoupledMap(["(x1 + y1) / 5", "(x2 + y2) / 5"], 2),
                           k=2.0 / 3.0, x0=[0.0, 0.0], y0=[1.0, 1.0])
    report = preflight(inst, SampleSpec(count=200, seed=11, low=-1e-3, high=1e-3))
    assert "continuity asserted; spot check found no violation" in report.notes
    [X] = rows
    anchors, offsets = X[:3], X[3:6] - X[:3]
    assert np.array_equal(X[:3] - X[6:], offsets)
    (a1, a2), (o1, o2) = anchors.T, offsets.T
    sines = (a1 * o2 - a2 * o1) / np.hypot(a1, a2) / np.hypot(o1, o2)
    assert np.abs(sines).max() > 0.1


def test_multivalued_paths_build_no_finite_set(monkeypatch):
    # images are read as raw point rows, repeats kept: no deduplicating set
    def no_set(self, *args, **kwargs):
        raise AssertionError("a FiniteSet was built")

    monkeypatch.setattr(finite_sets.FiniteSet, "__init__", no_set)
    twice = lambda x, y: [(np.asarray(x) + np.asarray(y)) / 5.0] * 2 + [-(np.asarray(x) + np.asarray(y)) / 5.0]
    for continuous in (True, False):
        inst = ProblemInstance(kind="multi", space=LINE, graph=FullGraph(1), map=twice, k=0.5,
                               x0=0.0, y0=1.0, x1=0.2, y1=0.2, continuous=continuous)
        report = preflight(inst, SMALL_BOX)
        assert report.seed_edge_ok and report.passed
        fp, trace = solve_instance(inst, SolveConfig(k=0.5))
        assert trace.converged and trace.residual <= 1e-10
    # bitwise membership keeps a NaN seed iterate that is one of the image's points
    inst = ProblemInstance(kind="multi", space=LINE, graph=FullGraph(1), map=lambda x, y: [np.nan, 0.5],
                           k=0.5, x0=0.0, y0=1.0, x1=np.nan, y1=0.5)
    assert preflight(inst, SMALL_BOX).seed_edge_ok
    with pytest.raises(NonFiniteValueError, match="^step 0"):
        solve_instance(inst, SolveConfig(k=0.5))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_preflight_flags_nan_single_seed_iterate():
    # the full graph has every edge, so only the finiteness test rejects it
    nan_map = lambda x, y: np.full(1, np.nan)
    for graph in (FullGraph(1), OrderGraph(1)):
        report = preflight(single_instance(graph, fn=nan_map, k=0.5), SMALL_BOX)
        assert not report.seed_edge_ok
        assert report.theorem_applicable == "none"
        assert "seed iterate F(x0, y0) is not finite" in report.notes
        assert any("seed edge condition FAILED" in n for n in report.notes)
    # finite x1, infinite y1 = F(y0, x0)
    inf_y = lambda x, y: np.where(np.asarray(x) > 0.5, np.inf, 0.0)
    report = preflight(single_instance(FullGraph(1), fn=inf_y, k=0.5), SMALL_BOX)
    assert not report.seed_edge_ok
    assert "seed iterate F(y0, x0) is not finite" in report.notes


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_preflight_continuity_spot_check_fails_on_nan():
    spec = parse_spec(json.dumps({
        "space": {"kind": "euclidean", "dimension": 1},
        "graph": {"kind": "full"},
        "map": {"kind": "single", "definition": "(x - x) / (x - x)"},
        "k": 0.5,
        "seed": {"x0": 0.0, "y0": 1.0},
        "sampler": {"low": -10.0, "high": 10.0, "count": 50, "rng_seed": 3},
    }))
    report = preflight(build_instance(spec), SampleSpec(count=50, seed=3, low=-10.0, high=10.0))
    assert report.theorem_applicable == "none"
    assert any("continuity spot check FAILED" in n and "jump nan" in n for n in report.notes)
    assert not any("spot check found no violation" in n for n in report.notes)
    # a finite continuous map still passes the spot check
    report = preflight(single_instance(FullGraph(1)), SMALL_BOX)
    assert "continuity asserted; spot check found no violation" in report.notes


def test_preflight_notes_a_short_sample():
    # edges p -> q need q - p > 1.5 on [-1, 1]: 3% of box pairs, so a
    # product edge (both at once) is rarer than the draw budget allows for
    sparse = PredicateGraph(1, lambda p, q: q[0] - p[0] > 1.5)
    inst = single_instance(sparse, x0=0.5, y0=0.5, fn=lambda x, y: np.array([0.5]), k=0.5)
    report = preflight(inst, SampleSpec(count=20, seed=4, low=-1.0, high=1.0))
    mono = report.certificate("mixed_monotone")
    bl = report.certificate("BL")
    assert mono.samples_tested == 40 and bl.passed
    assert 0 < bl.samples_tested < 20
    assert f"BL tested {bl.samples_tested} of 20 requested samples" in report.notes
    assert not any("mixed_monotone tested" in n for n in report.notes)
    # q - p > 1.9 holds for 1/800 of box pairs: each monotonicity clause
    # fills about half its count, and no product edge turns up at all
    sparser = PredicateGraph(1, lambda p, q: q[0] - p[0] > 1.9)
    inst = single_instance(sparser, x0=0.5, y0=0.5, fn=lambda x, y: np.array([0.5]), k=0.5)
    report = preflight(inst, SampleSpec(count=20, seed=4, low=-1.0, high=1.0))
    mono = report.certificate("mixed_monotone")
    assert 20 < mono.samples_tested < 40
    assert f"mixed_monotone tested {mono.samples_tested} of 40 requested samples" in report.notes
    assert report.certificate("BL") is None
    assert any("contraction check aborted" in n for n in report.notes)
    # a full sample adds no note
    report = preflight(single_instance(OrderGraph(1)), SMALL_BOX)
    assert not any("requested samples" in n for n in report.notes)


def test_report_serializes():
    report = preflight(single_instance(FullGraph(1)), SMALL_BOX)
    doc = report.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert report.instance_id in text
    assert isinstance(doc["certificates"], list)
    assert isinstance(report, HypothesisReport)


def solve_outcome(instance, cfg, known=None):
    """A solve's whole trace and result as bytes, or its error and the step it
    names, for bitwise comparison."""
    try:
        fp, trace = solve_instance(instance, cfg, known=known)
    except Exception as exc:
        step = getattr(exc, "step", None)
        return type(exc).__name__, str(exc), step and (step.n, step.x.tobytes(), step.y.tobytes())
    steps = [(s.n, s.x.tobytes(), s.y.tobytes(), float(s.step_x).hex(), float(s.step_y).hex(),
              float(s.bound).hex(), float(s.diag).hex(), s.edge_ok_x, s.edge_ok_y) for s in trace.steps]
    return (steps, float(trace.D0).hex(), trace.converged, float(trace.residual).hex(),
            fp.x.tobytes(), fp.y.tobytes(), fp.is_diagonal)


@pytest.mark.parametrize("stem", ["chebyshev_2d_property_star", "multi_8_points_2d_property_star",
                                  "chebyshev_2d_multi", "single_sum_fifth"])
def test_resumed_solve_equals_a_fresh_solve(stem):
    # property_star specs resume from the trial's iterates, continuous ones from the seed pair
    path = CORPUS_DIR / f"{stem}.json"
    spec = parse_spec((path if path.exists() else SPEC_DIR / f"{stem}.json").read_text())
    instance, base = build_instance(spec), build_solve_config(spec)
    sample = dataclasses.replace(build_sample_spec(spec), count=40)
    report, known = _preflight(instance, sample)
    assert report == preflight(instance, sample)
    assert [len(k) for k in known] == [2 if instance.continuous else _TRIAL_STEPS + 1] * 2
    configs = [
        base,
        dataclasses.replace(base, tol=1e-3),  # met inside the trial's steps
        dataclasses.replace(base, record_edges=False, check_bounds=False),
        dataclasses.replace(base, max_iter=10),
        dataclasses.replace(base, max_iter=_TRIAL_STEPS),
        dataclasses.replace(base, max_iter=_TRIAL_STEPS + 1),
        dataclasses.replace(base, max_iter=30),
    ]
    seen = set()
    for cfg in configs:
        got = solve_outcome(instance, cfg, known)
        assert got == solve_outcome(instance, cfg)
        seen.add((got[2], len(got[0]) < _TRIAL_STEPS))
    assert seen == {(True, False), (True, True), (False, True), (False, False)}

    # a declared k far too small: the bound check fails at the same step, with the same message
    small = dataclasses.replace(instance, k=0.01)
    _, known = _preflight(small, sample)
    cfg = dataclasses.replace(base, k=0.01, check_bounds=True)
    got = solve_outcome(small, cfg, known)
    assert got[0] == "HypothesisViolationError" and got[2][0] < _TRIAL_STEPS
    assert got == solve_outcome(small, cfg)


def test_resumed_solve_takes_the_trial_iterates():
    calls = []

    def counted(x, y):
        calls.append(1)
        return (x + y) / 5.0

    instance = single_instance(FullGraph(1), fn=counted, continuous=False)
    _, known = _preflight(instance, SampleSpec(count=20, seed=4, low=-1.0, high=1.0))
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-300, max_iter=30)
    calls.clear()
    resumed = solve_outcome(instance, cfg, known)
    assert len(calls) == 2 * (30 - _TRIAL_STEPS) + 2  # steps past the trial, residual
    calls.clear()
    assert resumed == solve_outcome(instance, cfg)
    assert len(calls) == 2 + 2 * 29 + 2


@pytest.mark.parametrize("continuous", [True, False])
def test_resume_keeps_a_declared_x1_that_is_no_image_point(continuous):
    # x1 is within SLACK of -0.2 in F(x0, y0) = {-0.2, 0.2} but is not bitwise a point of it
    x1 = np.nextafter(-0.2, 0.0)
    instance = multi_instance(x1=x1, continuous=continuous)
    report, known = _preflight(instance, SMALL_BOX)
    assert report.seed_edge_ok and known[0][1].tobytes() == np.array([x1]).tobytes()
    cfg = SolveConfig(k=2.0 / 3.0, tol=1e-12, record_edges=True)
    got = solve_outcome(instance, cfg, known)
    assert got == solve_outcome(instance, cfg) and got[0][1][1] == np.array([x1]).tobytes()


def test_known_from_another_seed_or_first_pair_is_refused():
    cfg = SolveConfig(k=2.0 / 3.0)
    for instance in (single_instance(FullGraph(1)), multi_instance()):
        _, known = _preflight(instance, SMALL_BOX)
        for side, n in ((0, 0), (1, 0), (0, 1), (1, 1)):
            moved = [list(known[0]), list(known[1])]
            moved[side][n] = np.nextafter(moved[side][n], np.inf)  # one ulp
            if n == 0 or instance.kind == "multi":  # a single-valued x1 is taken as computed
                with pytest.raises(InvalidInputError, match="^known iterates do not start"):
                    solve_instance(instance, cfg, known=tuple(moved))
    # the declared x1 one ulp off the known one, itself still a member of F(x0, y0)
    _, known = _preflight(multi_instance(), SMALL_BOX)
    with pytest.raises(InvalidInputError, match="^known iterates do not start"):
        solve_instance(multi_instance(x1=np.nextafter(-0.2, 0.0)), cfg, known=known)


@pytest.mark.parametrize("path", [SPEC_DIR / "single_sum_fifth.json", SPEC_DIR / "multi_sum_fifth.json",
                                  CORPUS_DIR / "chebyshev_2d_property_star.json",
                                  CORPUS_DIR / "multi_8_points_2d_property_star.json"],
                         ids=lambda p: p.stem)
def test_cli_run_evaluates_the_map_at_the_seed_once(path, tmp_path, monkeypatch):
    calls = []
    for cls in (ExpressionCoupledMap, ExpressionMultiMap):
        def counted(self, x, y, _call=cls.__call__):
            calls.append((np.asarray(x).tobytes(), np.asarray(y).tobytes()))
            return _call(self, x, y)
        monkeypatch.setattr(cls, "__call__", counted)
    spec = parse_spec(path.read_text())
    instance = build_instance(spec)
    artifacts = cli.run(spec, str(tmp_path), quiet=True)
    assert artifacts.exit_code == 0
    x0, y0 = instance.x0.tobytes(), instance.y0.tobytes()
    assert calls.count((x0, y0)) == calls.count((y0, x0)) == 1


@pytest.mark.parametrize("stem, error, message", [
    ("seed_edge_failed", SeedEdgeError,
     "seed condition fails: ((x0,y0),(F(x0,y0),F(y0,x0))) is not a product edge"),
    ("zero_divisor", NonFiniteValueError,
     "step 0: non-finite step size (step_x = nan, step_y = nan)"),
])
def test_failed_seed_gives_no_known_and_a_forced_solve_raises(stem, error, message):
    spec = parse_spec((CORPUS_DIR / f"{stem}.json").read_text())
    instance = build_instance(spec)
    report, known = _preflight(instance, build_sample_spec(spec))
    assert not report.seed_edge_ok and known is None
    with pytest.raises(error) as caught:
        solve_instance(instance, build_solve_config(spec), known=known)
    assert str(caught.value) == message


def test_resume_after_a_failed_or_short_trial():
    # the trial's second step has no edge-compatible candidate
    graph = FiniteGraph([0.0, 1.0, 3.0], edges=[(0.0, 1.0), (1.0, 0.0)])
    jump = lambda x, y: FiniteSet([1.0]) if float(x[0]) == 0.0 else FiniteSet([3.0])
    instance = ProblemInstance(kind="multi", space=LINE, graph=graph, map=jump, k=0.5,
                               x0=0.0, y0=0.0, x1=1.0, y1=1.0, continuous=False)
    report, known = _preflight(instance, SampleSpec(count=5, seed=1, points=(0.0, 1.0, 3.0)))
    assert known is None
    assert any(n.startswith("trial trace for limit-edge check failed: step 1") for n in report.notes)
    with pytest.raises(SelectionFailureError, match="^step 1: no edge-compatible candidate in the x-image"):
        solve_instance(instance, SolveConfig(k=0.5))
    # steps below 1e-300 end the trial early; its iterates are still the
    # solve's, which at a smaller tol goes on past them
    tiny = single_instance(FullGraph(1), x0=1e-300, y0=1e-300, continuous=False)
    _, known = _preflight(tiny, SMALL_BOX)
    assert [len(k) for k in known] == [3, 3]
    for cfg in (SolveConfig(k=2.0 / 3.0, tol=1e-300), SolveConfig(k=2.0 / 3.0, tol=5e-324, max_iter=10)):
        got = solve_outcome(tiny, cfg, known)
        assert got == solve_outcome(tiny, cfg) and len(got[0]) == (2 if got[2] else 10)


def _var(name, j, d):
    return name if d == 1 else f"{name}{j}"


def _parity_maps(d):
    """A single-valued map increasing in x and decreasing in y (mixed monotone
    on the order graph, contracting at k = 2/3), and a two-point multimap."""
    single = ExpressionCoupledMap([f"({_var('x', j, d)} - {_var('y', j, d)}) / 4 + 0.1"
                                   for j in range(1, d + 1)], d)
    multi = ExpressionMultiMap([[f"{_var('x', j, d)} / 3" for j in range(1, d + 1)],
                                [f"-{_var('y', j, d)} / 2" for j in range(1, d + 1)]], d)
    return single, multi


class _NearGraph(Digraph):
    """p -> q iff every coordinate is within *width*; sampled by rejection."""

    def __init__(self, dimension, width):
        super().__init__(dimension)
        self.width = width

    def has_edge(self, p, q):
        return bool(np.all(np.abs(np.asarray(p, float) - np.asarray(q, float)) < self.width))

    def edge_mask(self, P, Q):
        return np.all(np.abs(P - Q) < self.width, axis=1)


def _fresh_certificates(instance, sample):
    """The two checkers' certificates on a fresh SampleSpec, or the error each raised."""
    single = instance.kind == "single"
    mono = check_mixed_monotone if single else check_mixed_monotone_multi
    bound = check_bl if single else check_mbl
    out = []
    for check, args in ((mono, (instance.map, instance.graph, sample)),
                        (bound, (instance.map, instance.space, instance.graph, instance.k, sample))):
        try:
            out.append(check(*args).to_dict())
        except CoupledFpiError as exc:
            out.append(repr(exc))
    return out


def _assert_shared_sample_parity(instance, sample):
    report, _ = _preflight(instance, sample)
    fresh = _fresh_certificates(instance, sample)
    names = ("mixed_monotone", "BL") if instance.kind == "single" else ("mixed_monotone_multi", "MBL")
    for name, want in zip(names, fresh):
        cert = report.certificate(name)
        if isinstance(want, str):  # the checker raised: preflight noted the abort
            assert cert is None and any(" check aborted: " in n for n in report.notes)
        else:
            assert cert is not None and cert.to_dict() == want


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("graph_kind", ["order", "full", "pool", "predicate"])
def test_preflight_shares_one_sample_with_the_fresh_checkers(graph_kind, d):
    # every certificate preflight returns is the one its public checker gives on a
    # fresh SampleSpec: the contraction check reads the blocks monotonicity drew
    single, multi = _parity_maps(d)
    rng = np.random.default_rng(40 + d)
    vertices = [tuple(v) for v in rng.uniform(-1.0, 1.0, size=(5, d))]
    for count in (40, _BLOCK_VALUES // (4 * d) + 1):  # both sides of the stacked/per-clause cut
        for kind, fn in (("single", single), ("multi", multi)):
            low, high = (-1.0, 1.0) if kind == "single" else ([-1.0 - j for j in range(d)],
                                                              [1.0 + j / 2 for j in range(d)])
            sample = SampleSpec(count=count, seed=count + d, low=low, high=high)
            if graph_kind == "order":
                graph = OrderGraph(d)
            elif graph_kind == "full":
                graph = FullGraph(d)
            elif graph_kind == "predicate":
                graph = PredicateGraph(d, lambda p, q: bool(p[0] <= q[0]))
                sample = dataclasses.replace(sample, count=min(count, 300))  # a Python test per row
            else:  # an edge_list graph over its own vertex pool, the map a projection onto x
                graph = FiniteGraph(vertices, [(p, q) for p in vertices for q in vertices
                                               if all(a <= b for a, b in zip(p, q))], dimension=d)
                sample = SampleSpec(count=count, seed=count + d, points=vertices)
                proj = [_var("x", j, d) for j in range(1, d + 1)]
                fn = ExpressionCoupledMap(proj, d) if kind == "single" else \
                    ExpressionMultiMap([proj, [_var("y", j, d) for j in range(1, d + 1)]], d)
            x0, y0 = (vertices[0], vertices[1]) if graph_kind == "pool" else ([0.0] * d, [0.5] * d)
            seeds = {} if kind == "single" else {"x1": x0, "y1": y0}
            inst = ProblemInstance(kind=kind, space=EuclideanSpace(d), graph=graph, map=fn,
                                   k=2.0 / 3.0, x0=x0, y0=y0, **seeds)
            _assert_shared_sample_parity(inst, sample)


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_preflight_shares_a_rejection_sample_starved_at_the_draw_budget(kind):
    # about 2% of box pairs are edges: monotonicity gets its samples within the
    # budget, past the blocks a sampler keeps, and the contraction check (0.04%
    # of product pairs) runs out of draws short of its count
    single, multi = _parity_maps(1)
    inst = ProblemInstance(kind=kind, space=LINE, graph=_NearGraph(1, 0.02),
                           map=single if kind == "single" else multi, k=2.0 / 3.0, x0=0.0,
                           y0=0.0, **({} if kind == "single" else {"x1": 0.0, "y1": 0.0}))
    sample = SampleSpec(count=1000, seed=5)
    report, _ = _preflight(inst, sample)
    bound = report.certificate("BL" if kind == "single" else "MBL")
    assert 0 < bound.samples_tested < 1000
    assert report.certificates[0].samples_tested == 2000
    _assert_shared_sample_parity(inst, sample)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("pool", [False, True])
def test_continuity_draws_are_todays_two_streams(monkeypatch, pool, d):
    # anchors and partners as two draws of 3 from a Sampler at seed + 1, and u from
    # rows 7-9 of a second generator at seed + 1 on [-1, 1]^d, bit for bit
    rows = []
    images = certifier._images
    monkeypatch.setattr(certifier, "_images",
                        lambda fn, X, Y, *args: rows.append((X, Y)) or images(fn, X, Y, *args))
    single, _ = _parity_maps(d)
    seed, points = 17, tuple((0.25 * i,) * d for i in range(5))
    low, high = (-2.0, 3.0) if d == 1 else ([-2.0, 0.5], [3.0, 0.75])
    sample = SampleSpec(count=50, seed=seed, points=points) if pool else \
        SampleSpec(count=50, seed=seed, low=low, high=high)
    inst = ProblemInstance(kind="single", space=EuclideanSpace(d), graph=FullGraph(d), map=single,
                           k=2.0 / 3.0, x0=[0.0] * d, y0=[0.5] * d)
    preflight(inst, sample)
    rng = np.random.default_rng(seed + 1)
    if pool:
        pool_rows = np.array(points, dtype=float)
        anchors, partners = (pool_rows[rng.integers(0, len(points), size=3)] for _ in range(2))
    else:
        lo = np.full(d, low, dtype=float)
        anchors, partners = (lo + (np.full(d, high, dtype=float) - lo) * rng.random((3, d))
                             for _ in range(2))
    u = 2.0 ** -48 * (-1.0 + 2.0 * np.random.default_rng(seed + 1).random((9, d))[6:])
    [(X, Y)] = [(X, Y) for X, Y in rows if len(X) == 9]
    for got, p in ((X, anchors), (Y, partners)):
        step = u * np.maximum(1.0, abs(p))
        assert np.concatenate([p, p + step, p - step]).tobytes() == got.tobytes()


def test_property_star_reads_a_builtin_rule_as_its_predicate_twin():
    nan, inf = float("nan"), float("inf")
    for d in (1, 2):
        for graph in (OrderGraph(d), FullGraph(d)):
            twin = PredicateGraph(d, lambda p, q, g=graph: bool(g.edge_mask(p[None], q[None])[0]))
            lift = lambda seq: [[v] * d if d == 1 else [v, v / 2] for v in seq]
            cases = [
                ([0.0, 1.0, 2.0], 3.0), ([0.0, 1.0, 2.0], 1.5),  # a chain; a low limit
                ([2.0, 1.0, 3.0], 4.0), ([0.0, 1.0, 0.5], 4.0),  # premise fails first; last
                ([0.0, nan, 1.0], 2.0), ([0.0, 1.0], nan), ([nan], nan),
                ([-inf, 0.0, inf], inf), ([-inf, 0.0, inf], 1.0), ([inf, inf], inf),
            ]
            for seq, lim in cases:
                for direction, order in (("ascending", 1), ("descending", -1)):
                    terms = lift([order * v for v in seq])
                    [end] = lift([order * lim])
                    got, want = (check_property_star(g, terms, end, direction)
                                 for g in (graph, twin))
                    assert _json_text(got.to_dict()) == _json_text(want.to_dict())


def test_property_star_on_a_finite_graph_stops_at_the_first_non_vertex():
    verts = [0.0, 1.0, 2.0, 3.0]
    g = FiniteGraph(verts, edges=[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(NotAVertexError, match=r"\[7\.\]"):
        check_property_star(g, [0.0, 1.0, 7.0, 8.0], 3.0)
    with pytest.raises(NotAVertexError, match=r"\[9\.\]"):  # the premise holds; the limit is tested
        check_property_star(g, [0.0, 1.0, 2.0], 9.0)
    # a failed premise stops before the later non-vertex
    assert check_property_star(g, [2.0, 0.0, 7.0], 3.0).detail.startswith("premise-violated at term 0")


def test_an_unlabelled_callable_gets_a_note_that_its_id_names_no_map():
    note = "instance_id does not identify the map: it has no label or canonical text"
    reports = [preflight(single_instance(FullGraph(1), fn=fn), SampleSpec(count=50, seed=3))
               for fn in (sum_fifth, lambda x, y: (x - y) / 3.0)]
    assert reports[0].instance_id == reports[1].instance_id
    assert all(r.notes[-1] == note for r in reports)
    labelled = dataclasses.replace(single_instance(FullGraph(1)), label="sum fifth")
    fifth = single_instance(FullGraph(1), fn=ExpressionCoupledMap(["(x + y) / 5"]))
    for inst in (labelled, fifth):
        assert note not in preflight(inst, SampleSpec(count=50, seed=3)).notes
