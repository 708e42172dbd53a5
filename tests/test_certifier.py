from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from coupled_fpi import (
    FiniteGraph,
    FullGraph,
    HypothesisReport,
    InvalidInputError,
    InvalidParameterError,
    NonFiniteValueError,
    OrderGraph,
    PredicateGraph,
    ProblemInstance,
    SampleSpec,
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
from coupled_fpi import finite_sets
from coupled_fpi.checks import VIOLATION_CAP

LINE = real_line()
SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
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
        with pytest.raises(InvalidInputError, match="low > high"):
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
