from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from coupled_fpi import (
    ChebyshevSpace,
    EuclideanSpace,
    ExpressionCoupledMap,
    ExpressionMultiMap,
    FiniteGraph,
    FullGraph,
    LinearCoupledMap,
    OrderGraph,
    Sampler,
    SpecError,
    build_instance,
    parse_spec,
    preflight,
    serialize_spec,
)
from coupled_fpi.problem_spec import (
    build_graph,
    build_map,
    build_sample_spec,
    build_solve_config,
    build_space,
)

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"

MINIMAL = {
    "space": {"kind": "euclidean", "dimension": 1},
    "graph": {"kind": "full"},
    "map": {"kind": "single", "definition": "(x + y) / 5"},
    "k": 2.0 / 3.0,
    "seed": {"x0": 0.0, "y0": 1.0},
}


def doc(**overrides):
    merged = {**MINIMAL, **overrides}
    return json.dumps(merged)


def test_parse_minimal_spec_applies_defaults():
    spec = parse_spec(doc())
    assert spec.space.kind == "euclidean" and spec.space.dimension == 1
    assert spec.solve.tol == 1e-10
    assert spec.solve.max_iter == 1000
    assert spec.solve.mode == "continuous"
    assert spec.solve.check_bounds is False
    assert spec.sampler.count == 10_000
    assert spec.sampler.low == -10.0 and spec.sampler.high == 10.0
    assert spec.sampler.rng_seed is None
    assert spec.seed.x0 == (0.0,) and spec.seed.x1 is None


def round_trip(spec):
    text = serialize_spec(spec)
    again = parse_spec(text)
    assert again == spec
    assert serialize_spec(again) == text
    return text


def test_round_trip_battery():
    round_trip(parse_spec(doc()))
    round_trip(parse_spec(doc(
        map={"kind": "multi", "definition": ["-(x + y) / 5", "(x + y) / 5"]},
        seed={"x0": 0.0, "y0": 1.0, "x1": -0.2, "y1": -0.2},
    )))
    round_trip(parse_spec(doc(
        map={"kind": "single", "definition": {"name": "linear", "a": 0.2, "b": -0.1}},
    )))
    round_trip(parse_spec(doc(
        space={"kind": "chebyshev", "dimension": 2},
        graph={"kind": "edge_list",
               "vertices": [[0, 0], [1, 1], [2, 0]],
               "edges": [[[0, 0], [1, 1]], [[1, 1], [2, 0]]]},
        map={"kind": "single", "definition": ["x1 / 2", "y2 / 3"]},
        seed={"x0": [0, 0], "y0": [1, 1]},
        sampler={"low": [-1, -2], "high": [1, 2], "count": 500, "rng_seed": 7},
    )))
    round_trip(parse_spec(doc(
        solve={"tol": 1e-12, "max_iter": 50, "mode": "property_star",
               "check_bounds": True, "record_edges": True},
    )))


def test_serialize_is_canonical():
    text = serialize_spec(parse_spec(doc()))
    assert text.endswith("\n")
    assert text == serialize_spec(parse_spec(doc()))
    assert json.loads(text)  # well-formed


@pytest.mark.parametrize("bad, fragment", [
    pytest.param("{not json", "line 1 column", id="malformed-json"),
    pytest.param("[1, 2]", "must be a JSON object", id="non-object"),
    pytest.param(doc(extra=1), "unknown top-level field 'extra'", id="unknown-field"),
    pytest.param(doc(space={"kind": "euclidean", "dimension": 1, "dim": 2}),
                 "unknown space field 'dim'", id="unknown-space-field"),
    pytest.param(doc(graph={"kind": "full", "edge": []}), "unknown graph field 'edge'",
                 id="unknown-graph-field"),
    pytest.param(doc(map={"kind": "single", "definition": "x", "expressions": ["y"]}),
                 "unknown map field 'expressions'", id="unknown-map-field"),
    pytest.param(doc(seed={"x0": 0.0, "y0": 1.0, "z0": 2.0}), "unknown seed field 'z0'",
                 id="unknown-seed-field"),
    pytest.param(doc(solve={"max_iters": 5}), "unknown solve field 'max_iters'",
                 id="unknown-solve-field"),
    pytest.param(doc(solve={"check_bound": True}), "unknown solve field 'check_bound'",
                 id="misspelt-solve-field"),
    pytest.param(doc(sampler={"seed": 3}), "unknown sampler field 'seed'",
                 id="unknown-sampler-field"),
    pytest.param(doc(graph={"kind": "order", "vertices": [0.0]}),
                 "graph.vertices is only meaningful for edge_list graphs", id="vertices-on-order"),
    pytest.param(doc(graph={"kind": "full", "edges": []}),
                 "graph.edges is only meaningful for edge_list graphs", id="edges-on-full"),
    pytest.param(json.dumps({k: v for k, v in MINIMAL.items() if k != "space"}),
                 "space is required", id="missing-space"),
    pytest.param(json.dumps({k: v for k, v in MINIMAL.items() if k != "seed"}),
                 "seed is required", id="missing-seed"),
    pytest.param(doc(space={"kind": "taxicab", "dimension": 1}), "space.kind",
                 id="bad-space-kind"),
    pytest.param(doc(space={"kind": "euclidean", "dimension": 0}), "space.dimension",
                 id="bad-dimension"),
    pytest.param(doc(k=1.0), r"k must lie in \(0,1\)", id="k-out-of-range"),
    pytest.param(doc(k="big"), "k must be a number", id="k-not-number"),
    pytest.param(doc(map={"kind": "single", "definition": "x +"}), "map.definition",
                 id="bad-expression"),
    pytest.param(doc(map={"kind": "single", "definition": {"name": "linear", "a": 0.1}}),
                 "'a' and 'b'", id="linear-params"),
    pytest.param(doc(map={"kind": "multi", "definition": []}), "nonempty list",
                 id="empty-multi"),
    pytest.param(doc(seed={"x0": 0.0, "y0": 1.0, "x1": 0.0}),
                 "only meaningful for multivalued", id="x1-on-single"),
    pytest.param(doc(map={"kind": "multi", "definition": ["x"]},
                     seed={"x0": 0.0, "y0": 1.0, "x1": 0.0}),
                 "seed.y1 is required", id="missing-y1"),
    pytest.param(doc(graph={"kind": "edge_list", "vertices": [0.0], "edges": [[0.0, 5.0]]}),
                 "references a point not in vertices", id="unknown-vertex"),
    pytest.param(doc(graph={"kind": "edge_list", "vertices": [0.0], "edges": [[0.0]]}),
                 r"\[from, to\] pair", id="bad-edge-shape"),
    pytest.param(doc(graph={"kind": "edge_list", "vertices": []}), "nonempty list",
                 id="empty-vertices"),
    pytest.param(doc(solve={"mode": "fast"}), "solve.mode", id="bad-mode"),
    pytest.param(doc(solve={"tol": 0.0}), "solve.tol", id="bad-tol"),
    pytest.param(doc(solve={"max_iter": 0}), "solve.max_iter", id="bad-max-iter"),
    pytest.param(doc(sampler={"count": 0}), "sampler.count", id="bad-count"),
    pytest.param(doc(sampler={"rng_seed": 1.5}), "sampler.rng_seed", id="float-rng-seed"),
    pytest.param(doc(sampler={"rng_seed": -3}), "sampler.rng_seed must be a nonnegative",
                 id="negative-rng-seed"),
    pytest.param(doc(sampler={"low": [-1.0, -2.0]}), "sampler.low needs 1 coordinate",
                 id="wrong-sampler-length"),
    pytest.param(doc(seed={"x0": [0.0, 0.0], "y0": 1.0}), "seed.x0", id="wrong-point-length"),
    pytest.param(doc(sampler={"low": 5, "high": -5}),
                 r"sampler.low exceeds sampler.high in coordinate 0: 5.0 > -5.0", id="inverted-box"),
    pytest.param(doc(space={"kind": "euclidean", "dimension": 2},
                     map={"kind": "single", "definition": ["x1", "y2"]},
                     seed={"x0": [0, 0], "y0": [1, 1]},
                     sampler={"low": [0.0, 1.0], "high": [1.0, 0.5]}),
                 r"sampler.low exceeds sampler.high in coordinate 1: 1.0 > 0.5",
                 id="inverted-box-one-coordinate"),
    pytest.param(doc(solve={"check_bounds": 1}), "^solve.check_bounds must be a boolean, got 1$",
                 id="non-boolean-flag"),
    pytest.param(doc(seed={"x0": "0", "y0": 1.0}),
                 "^seed.x0 must be a number or a list of numbers$", id="string-point"),
    pytest.param(doc(solve=[]), "^solve must be an object$", id="non-object-section"),
    pytest.param(doc(graph={"kind": "edge_list", "vertices": [0.0], "edges": {}}),
                 "^graph.edges must be a list$", id="non-list-edges"),
    pytest.param(doc(map={"kind": "single", "definition": 5}),
                 "^map.definition must be an expression string or list of them$",
                 id="non-string-definition"),
    pytest.param(doc(map={"kind": "single", "definition": ["x", "y"]}),
                 r"^map.definition needs 1 component expression\(s\), got 2$",
                 id="component-count"),
    pytest.param(doc(map={"kind": "single", "definition": {"name": "affine"}}),
                 r"^map.definition.name must be one of \('linear',\), got 'affine'$",
                 id="unknown-builtin"),
    # JSON reads 1e400 as inf and takes the NaN and Infinity tokens
    pytest.param(doc(solve={"tol": 0.5}).replace("0.5", "1e400"),
                 "^solve.tol must be finite, got inf$", id="infinite-tol"),
    pytest.param(doc(k=float("nan")), "^k must be finite, got nan$", id="nan-k"),
    pytest.param(doc(k=10 ** 400), "^k must be finite, got inf$", id="huge-integer-k"),
    pytest.param(doc(seed={"x0": float("-inf"), "y0": 1.0}), "^seed.x0 must be finite, got -inf$",
                 id="infinite-seed"),
    pytest.param(doc(graph={"kind": "edge_list", "vertices": [0.0, float("nan")]}),
                 r"^graph.vertices\[1\] must be finite, got nan$", id="nan-vertex"),
    pytest.param(doc(map={"kind": "single", "definition": {"name": "linear", "a": float("inf"),
                                                            "b": 0.1}}),
                 "^map.definition.a must be finite, got inf$", id="infinite-linear-a"),
    pytest.param(doc(map={"kind": "single", "definition": {"name": "linear", "a": 0.1,
                                                            "b": 0.5}}).replace("0.5", "1e400"),
                 "^map.definition.b must be finite, got inf$", id="infinite-linear-b"),
])
def test_parse_errors_name_the_field(bad, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_spec(bad)


PLANE = dict(space={"kind": "euclidean", "dimension": 2},
             map={"kind": "single", "definition": ["x1 / 2", "y2 / 3"]},
             seed={"x0": [0, 0], "y0": [1, 1]})


@pytest.mark.parametrize("sampler, fragment", [
    pytest.param({"low": float("-inf")}, "sampler.low must be finite", id="infinite-low"),
    pytest.param({"high": [1.0, float("nan")]}, "sampler.high must be finite", id="nan-high"),
    pytest.param({"low": -1e308, "high": 1e308}, r"sampler.high - sampler.low must be finite",
                 id="infinite-width"),
    pytest.param({"low": [0.0, -1e308], "high": 1e308}, r"sampler.high - sampler.low",
                 id="infinite-width-in-one-coordinate"),
])
def test_non_finite_sampler_box_is_a_spec_error(sampler, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_spec(doc(**PLANE, sampler=sampler))
    spec = parse_spec(doc(**PLANE, sampler={"low": [-1e307, 0.0], "high": 1e307}))
    assert spec.sampler.low == (-1e307, 0.0) and spec.sampler.high == 1e307


def test_degenerate_sampler_box_parses():
    # low == high in a coordinate (either zero sign) is a box, not an inverted one
    spec = parse_spec(doc(**PLANE, sampler={"low": [1.0, 0.0], "high": [1.0, -0.0]}))
    assert spec.sampler.low == (1.0, 0.0) and spec.sampler.high == (1.0, -0.0)


def test_build_space():
    assert isinstance(build_space(parse_spec(doc())), EuclideanSpace)
    spec = parse_spec(doc(space={"kind": "chebyshev", "dimension": 3},
                          map={"kind": "single", "definition": ["x1", "x2", "x3"]},
                          seed={"x0": [0, 0, 0], "y0": [1, 1, 1]}))
    space = build_space(spec)
    assert isinstance(space, ChebyshevSpace) and space.dimension == 3


def test_build_graph():
    assert isinstance(build_graph(parse_spec(doc())), FullGraph)
    order = build_graph(parse_spec(doc(graph={"kind": "order"})))
    assert isinstance(order, OrderGraph)
    assert order.has_edge(0.0, 1.0) and not order.has_edge(1.0, 0.0)
    fin = build_graph(parse_spec(doc(graph={
        "kind": "edge_list", "vertices": [0.0, 1.0], "edges": [[0.0, 1.0]]})))
    assert isinstance(fin, FiniteGraph)
    assert fin.has_edge(0.0, 1.0) and not fin.has_edge(1.0, 0.0)
    assert fin.has_edge(1.0, 1.0)  # loops are implicit


def test_build_map():
    linear = build_map(parse_spec(doc(
        map={"kind": "single", "definition": {"name": "linear", "a": 0.2, "b": -0.1}})))
    assert isinstance(linear, LinearCoupledMap)
    assert linear.a == 0.2 and linear.b == -0.1
    expr = build_map(parse_spec(doc()))
    assert isinstance(expr, ExpressionCoupledMap)
    assert expr(np.array([0.0]), np.array([1.0]))[0] == 0.2
    multi = build_map(parse_spec(doc(
        map={"kind": "multi", "definition": ["-(x + y) / 5", "(x + y) / 5"]},
        seed={"x0": 0.0, "y0": 1.0, "x1": -0.2, "y1": -0.2})))
    assert isinstance(multi, ExpressionMultiMap)


def test_build_solve_config():
    spec = parse_spec(doc(solve={"tol": 1e-12, "max_iter": 77}))
    cfg = build_solve_config(spec)
    assert cfg.k == spec.k and cfg.tol == 1e-12 and cfg.max_iter == 77
    assert build_solve_config(spec, max_iter=5).max_iter == 5


def test_build_sample_spec_seed_precedence():
    no_seed = parse_spec(doc())
    assert build_sample_spec(no_seed).seed == 0
    with_seed = parse_spec(doc(sampler={"rng_seed": 42}))
    assert build_sample_spec(with_seed).seed == 42
    assert build_sample_spec(with_seed, seed=77).seed == 77
    assert build_sample_spec(no_seed, seed=77).seed == 77
    assert build_sample_spec(no_seed).count == 10_000


def test_edge_list_checkers_draw_only_vertices(monkeypatch):
    # Box points are almost never vertices of an edge_list graph, so its
    # checkers sample the vertex list; order and full graphs keep the box.
    vertices = {0.0, 0.5, 1.0}
    spec = parse_spec(doc(
        graph={"kind": "edge_list", "vertices": sorted(vertices),
               "edges": [[0.0, 0.5], [0.5, 1.0], [0.0, 1.0]]},
        map={"kind": "single", "definition": "0.5 + 0 * (x + y)"},
        k=0.5, solve={"mode": "property_star"}, sampler={"count": 500}))
    drawn = []
    draw = Sampler.draw

    def recorded_draw(self, n):
        drawn.append(draw(self, n))
        return drawn[-1]

    monkeypatch.setattr(Sampler, "draw", recorded_draw)
    report = preflight(build_instance(spec), build_sample_spec(spec))
    assert report.theorem_applicable == "thm_3_2", report.notes
    assert drawn and set(np.concatenate(drawn).ravel()) <= vertices
    for kind in ("order", "full"):
        assert build_sample_spec(parse_spec(doc(graph={"kind": kind}))).points == ()


def test_build_instance():
    inst = build_instance(parse_spec(doc()))
    assert inst.kind == "single"
    assert inst.continuous is True
    assert inst.x0[0] == 0.0 and inst.y0[0] == 1.0
    star = build_instance(parse_spec(doc(solve={"mode": "property_star"})))
    assert star.continuous is False
    multi = build_instance(parse_spec(doc(
        map={"kind": "multi", "definition": ["-(x + y) / 5", "(x + y) / 5"]},
        seed={"x0": 0.0, "y0": 1.0, "x1": -0.2, "y1": -0.2})))
    assert multi.kind == "multi" and multi.x1[0] == -0.2


def test_shipped_specs_parse():
    single = parse_spec((SPEC_DIR / "single_sum_fifth.json").read_text())
    assert single.map.kind == "single"
    assert single.k == 2.0 / 3.0
    assert single.solve.check_bounds is True
    assert single.sampler.rng_seed == 2024
    multi = parse_spec((SPEC_DIR / "multi_sum_fifth.json").read_text())
    assert multi.map.kind == "multi"
    assert multi.seed.x1 == (-0.2,)
    proj = parse_spec((SPEC_DIR / "single_projection_x.json").read_text())
    assert proj.graph.kind == "order"
    assert proj.map.expressions == ("x",)
