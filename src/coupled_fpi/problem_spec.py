"""Problem-specification documents: parse, validate, serialize, build.

A spec is a JSON object with six sections::

    {
      "space":   {"kind": "euclidean" | "chebyshev", "dimension": 1},
      "graph":   {"kind": "order" | "full" | "edge_list",
                  "vertices": [...], "edges": [[p, q], ...]},   # edge_list only
      "map":     {"kind": "single" | "multi", "definition": ...},
      "k":       0.6666666666666666,
      "seed":    {"x0": 0.0, "y0": 1.0, "x1": ..., "y1": ...},  # x1,y1 multi only
      "solve":   {"tol": 1e-10, "max_iter": 1000, "mode": "continuous",
                  "check_bounds": false, "record_edges": false},
      "sampler": {"low": -10.0, "high": 10.0, "count": 10000, "rng_seed": 0}
    }

Map definitions: a single-valued map is one arithmetic expression per
output component (a bare string in dimension 1, a list of d strings
otherwise) or the builtin ``{"name": "linear", "a": ..., "b": ...}``;
a multivalued map is a list of image points, each an expression (or
list of component expressions).  Points are numbers in dimension 1,
length-d lists otherwise.

``parse_spec`` rejects malformed documents with the offending field
named, and any field a section does not define; ``serialize_spec``
writes the canonical form that round-trips:
``parse_spec(serialize_spec(s)) == s``.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Any

from .certifier import ProblemInstance
from .checks import _json_text, _point_json, validate_k
from .errors import ExpressionError, SpecError
from .expressions import ExpressionCoupledMap, ExpressionMultiMap, compile_expression
from .graphs import Digraph, FiniteGraph, FullGraph, OrderGraph, _vertex_key
from .maps import LinearCoupledMap
from .sampling import SampleSpec, _check_box
from .solver import SolveConfig
from .spaces import ChebyshevSpace, EuclideanSpace, MetricSpace, _check_flag, _check_int, _check_number

SPACE_KINDS = ("euclidean", "chebyshev")
GRAPH_KINDS = ("order", "full", "edge_list")
MAP_KINDS = ("single", "multi")
BUILTIN_MAPS = ("linear",)


@dataclass(frozen=True)
class SpaceSpec:
    kind: str
    dimension: int


@dataclass(frozen=True)
class GraphSpec:
    kind: str
    vertices: tuple = ()
    edges: tuple = ()


@dataclass(frozen=True)
class MapSpec:
    kind: str
    expressions: tuple = ()          # single: d strings; multi: image points x d strings
    builtin: str | None = None
    params: tuple = ()               # sorted (name, value) pairs for builtins


@dataclass(frozen=True)
class SeedSpec:
    x0: tuple
    y0: tuple
    x1: tuple | None = None
    y1: tuple | None = None


@dataclass(frozen=True)
class SolveSpec:
    tol: float = 1e-10
    max_iter: int = 1000
    mode: str = "continuous"
    check_bounds: bool = False
    record_edges: bool = False


@dataclass(frozen=True)
class SamplerSpec:
    low: float | tuple = -10.0
    high: float | tuple = 10.0
    count: int = 10_000
    rng_seed: int | None = None


@dataclass(frozen=True)
class ProblemSpec:
    space: SpaceSpec
    graph: GraphSpec
    map: MapSpec
    k: float
    seed: SeedSpec
    solve: SolveSpec = field(default_factory=SolveSpec)
    sampler: SamplerSpec = field(default_factory=SamplerSpec)


def _require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise SpecError(f"{where}.{key} is required" if where else f"{key} is required")
    return doc[key]


def _as_point_tuple(value, dimension: int, where: str) -> tuple:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise SpecError(f"{where} must be a number or a list of numbers")
    pt = tuple(_check_number(c, where, SpecError) for c in value)
    if len(pt) != dimension:
        raise SpecError(f"{where} must have {dimension} coordinate(s), got {len(pt)}")
    return pt


@functools.cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _known_keys(doc: dict, keys: tuple, what: str) -> None:
    for key in doc:
        if key not in keys:
            raise SpecError(f"unknown {what} field {key!r}")


def _section(doc, where: str, keys: tuple, kinds: tuple = ()) -> Any:
    """Check that the section *doc* is an object with no key outside *keys*
    and, when *kinds* is given, that its required ``kind`` is one of them;
    returns that kind."""
    if not isinstance(doc, dict):
        raise SpecError(f"{where} must be an object")
    _known_keys(doc, keys, where)
    if kinds:
        kind = _require(doc, "kind", where)
        if kind not in kinds:
            raise SpecError(f"{where}.kind must be one of {kinds}, got {kind!r}")
        return kind


def _parse_space(doc, where="space") -> SpaceSpec:
    kind = _section(doc, where, _field_names(SpaceSpec), SPACE_KINDS)
    dim = _check_int(_require(doc, "dimension", where), f"{where}.dimension", 1, SpecError)
    return SpaceSpec(kind=kind, dimension=dim)


def _parse_graph(doc, dimension: int, where="graph") -> GraphSpec:
    kind = _section(doc, where, _field_names(GraphSpec), GRAPH_KINDS)
    if kind != "edge_list":
        for extra in ("vertices", "edges"):
            if extra in doc:
                raise SpecError(f"{where}.{extra} is only meaningful for edge_list graphs")
        return GraphSpec(kind=kind)
    verts = _require(doc, "vertices", where)
    if not isinstance(verts, list) or not verts:
        raise SpecError(f"{where}.vertices must be a nonempty list")
    vertices = tuple(
        _as_point_tuple(v, dimension, f"{where}.vertices[{i}]") for i, v in enumerate(verts)
    )
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise SpecError(f"{where}.edges must be a list")
    edges = []
    known = {_vertex_key(v, dimension) for v in vertices}
    for i, e in enumerate(edges_doc):
        if not isinstance(e, list) or len(e) != 2:
            raise SpecError(f"{where}.edges[{i}] must be a [from, to] pair")
        a = _as_point_tuple(e[0], dimension, f"{where}.edges[{i}][0]")
        b = _as_point_tuple(e[1], dimension, f"{where}.edges[{i}][1]")
        if _vertex_key(a, dimension) not in known or _vertex_key(b, dimension) not in known:
            raise SpecError(f"{where}.edges[{i}] references a point not in vertices")
        edges.append((a, b))
    return GraphSpec(kind=kind, vertices=vertices, edges=tuple(edges))


def _component_expressions(defn, dimension: int, where: str) -> tuple[str, ...]:
    if isinstance(defn, str):
        defn = [defn]
    if not isinstance(defn, list) or not all(isinstance(s, str) for s in defn):
        raise SpecError(f"{where} must be an expression string or list of them")
    if len(defn) != dimension:
        raise SpecError(f"{where} needs {dimension} component expression(s), got {len(defn)}")
    for src in defn:
        try:
            compile_expression(src, dimension)
        except ExpressionError as exc:
            raise SpecError(f"{where}: {exc}") from exc
    return tuple(defn)


def _parse_map(doc, dimension: int, where="map") -> MapSpec:
    kind = _section(doc, where, ("kind", "definition"), MAP_KINDS)
    defn = _require(doc, "definition", where)
    if kind == "single":
        if isinstance(defn, dict):
            name = _require(defn, "name", f"{where}.definition")
            if name not in BUILTIN_MAPS:
                raise SpecError(
                    f"{where}.definition.name must be one of {BUILTIN_MAPS}, got {name!r}"
                )
            params = tuple(
                sorted(
                    (key, _check_number(val, f"{where}.definition.{key}", SpecError))
                    for key, val in defn.items()
                    if key != "name"
                )
            )
            if name == "linear":
                given = {k for k, _ in params}
                if given != {"a", "b"}:
                    raise SpecError(f"{where}.definition (linear) needs exactly 'a' and 'b'")
            return MapSpec(kind=kind, builtin=name, params=params)
        return MapSpec(kind=kind, expressions=_component_expressions(defn, dimension, f"{where}.definition"))
    # multi: list of image points
    if not isinstance(defn, list) or not defn:
        raise SpecError(f"{where}.definition must be a nonempty list of image expressions")
    images = tuple(
        _component_expressions(item, dimension, f"{where}.definition[{i}]")
        for i, item in enumerate(defn)
    )
    return MapSpec(kind=kind, expressions=images)


def _parse_seed(doc, dimension: int, multi: bool, where="seed") -> SeedSpec:
    _section(doc, where, _field_names(SeedSpec))
    x0 = _as_point_tuple(_require(doc, "x0", where), dimension, f"{where}.x0")
    y0 = _as_point_tuple(_require(doc, "y0", where), dimension, f"{where}.y0")
    if not multi:
        for extra in ("x1", "y1"):
            if extra in doc:
                raise SpecError(f"{where}.{extra} is only meaningful for multivalued maps")
        return SeedSpec(x0=x0, y0=y0)
    x1 = _as_point_tuple(_require(doc, "x1", where), dimension, f"{where}.x1")
    y1 = _as_point_tuple(_require(doc, "y1", where), dimension, f"{where}.y1")
    return SeedSpec(x0=x0, y0=y0, x1=x1, y1=y1)


def _parse_solve(doc, where="solve") -> SolveSpec:
    if doc is None:
        return SolveSpec()
    _section(doc, where, _field_names(SolveSpec))
    tol = _check_number(doc.get("tol", SolveSpec.tol), f"{where}.tol", SpecError, positive=True)
    check_bounds, record_edges = (
        _check_flag(doc.get(key, getattr(SolveSpec, key)), f"{where}.{key}", SpecError)
        for key in ("check_bounds", "record_edges"))
    mode = doc.get("mode", SolveSpec.mode)
    if mode not in ("continuous", "property_star"):
        raise SpecError(f"{where}.mode must be 'continuous' or 'property_star', got {mode!r}")
    max_iter = _check_int(doc.get("max_iter", SolveSpec.max_iter), f"{where}.max_iter", 1, SpecError)
    return SolveSpec(tol, max_iter, mode, check_bounds, record_edges)


def _parse_sampler(doc, dimension: int, where="sampler") -> SamplerSpec:
    if doc is None:
        return SamplerSpec()
    _section(doc, where, _field_names(SamplerSpec))
    low, high = _check_box(doc.get("low", SamplerSpec.low), doc.get("high", SamplerSpec.high),
                           dimension, where, SpecError)
    count = _check_int(doc.get("count", SamplerSpec.count), f"{where}.count", 1, SpecError)
    seed = doc.get("rng_seed", None)
    if seed is not None:
        seed = _check_int(seed, f"{where}.rng_seed", 0, SpecError)
    return SamplerSpec(low=low, high=high, count=count, rng_seed=seed)


def parse_spec(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem spec.

    Raises:
        SpecError: JSON syntax errors (with line/column) and semantic
            errors (naming the offending field).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # json's one other error: int() past the digit limit
        raise SpecError(
            f"an integer literal has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:  # the decoder recurses once per nested array or object
        raise SpecError("arrays or objects nest too deep to decode") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    _known_keys(doc, _field_names(ProblemSpec), "top-level")
    space = _parse_space(_require(doc, "space", ""))
    graph = _parse_graph(_require(doc, "graph", ""), space.dimension)
    map_spec = _parse_map(_require(doc, "map", ""), space.dimension)
    k = validate_k(_require(doc, "k", ""), SpecError)
    seed = _parse_seed(_require(doc, "seed", ""), space.dimension, map_spec.kind == "multi")
    solve = _parse_solve(doc.get("solve"))
    sampler = _parse_sampler(doc.get("sampler"), space.dimension)
    return ProblemSpec(space, graph, map_spec, k, seed, solve, sampler)


def serialize_spec(spec: ProblemSpec) -> str:
    """Canonical JSON for *spec*; round-trips through :func:`parse_spec`."""
    # the text sorts every section's fields, and tuples are written as lists
    doc: dict[str, Any] = {"space": vars(spec.space)}
    graph: dict[str, Any] = {"kind": spec.graph.kind}
    if spec.graph.kind == "edge_list":
        graph["vertices"] = [_point_json(v) for v in spec.graph.vertices]
        graph["edges"] = [[_point_json(a), _point_json(b)] for a, b in spec.graph.edges]
    doc["graph"] = graph
    if spec.map.builtin is not None:
        definition: Any = {"name": spec.map.builtin, **dict(spec.map.params)}
    elif spec.map.kind == "single":
        exprs = spec.map.expressions
        definition = exprs[0] if len(exprs) == 1 else list(exprs)
    else:
        definition = [
            (point[0] if len(point) == 1 else list(point))
            for point in spec.map.expressions
        ]
    doc["map"] = {"kind": spec.map.kind, "definition": definition}
    doc["k"] = spec.k
    doc["seed"] = {key: _point_json(p) for key, p in vars(spec.seed).items() if p is not None}
    doc["solve"] = vars(spec.solve)
    doc["sampler"] = {key: v for key, v in vars(spec.sampler).items() if v is not None}
    return _json_text(doc) + "\n"


def build_space(spec: ProblemSpec) -> MetricSpace:
    cls = EuclideanSpace if spec.space.kind == "euclidean" else ChebyshevSpace
    return cls(spec.space.dimension)


def build_graph(spec: ProblemSpec) -> Digraph:
    d = spec.space.dimension
    if spec.graph.kind == "order":
        return OrderGraph(d)
    if spec.graph.kind == "full":
        return FullGraph(d)
    return FiniteGraph(spec.graph.vertices, spec.graph.edges, dimension=d)


def build_map(spec: ProblemSpec):
    d = spec.space.dimension
    if spec.map.builtin == "linear":
        params = dict(spec.map.params)
        return LinearCoupledMap(params["a"], params["b"])
    if spec.map.kind == "single":
        return ExpressionCoupledMap(list(spec.map.expressions), d)
    return ExpressionMultiMap([list(pt) for pt in spec.map.expressions], d)


def build_solve_config(spec: ProblemSpec, max_iter: int | None = None) -> SolveConfig:
    return SolveConfig(
        k=spec.k,
        tol=spec.solve.tol,
        max_iter=spec.solve.max_iter if max_iter is None else max_iter,
        check_bounds=spec.solve.check_bounds,
        record_edges=spec.solve.record_edges,
    )


def build_sample_spec(spec: ProblemSpec, seed: int | None = None) -> SampleSpec:
    if seed is None:
        seed = spec.sampler.rng_seed if spec.sampler.rng_seed is not None else 0
    return SampleSpec(
        count=spec.sampler.count,
        seed=seed,
        low=spec.sampler.low,
        high=spec.sampler.high,
        points=spec.graph.vertices,
    )


def build_instance(spec: ProblemSpec) -> ProblemInstance:
    """Assemble the runtime instance preflight and the solvers consume.

    The solve mode doubles as the continuity assertion: "continuous"
    asserts the map is continuous, "property_star" does not and relies
    on the graph's limit-edge persistence instead.  The label is the
    canonical spec text, so the instance id tells apart any two specs
    that differ, and a run's ``--seed`` or ``--max-iter``, applied
    elsewhere, leaves it alone.
    """
    return ProblemInstance(
        kind=spec.map.kind,
        space=build_space(spec),
        graph=build_graph(spec),
        map=build_map(spec),
        k=spec.k,
        x0=spec.seed.x0,
        y0=spec.seed.y0,
        x1=spec.seed.x1,
        y1=spec.seed.y1,
        continuous=spec.solve.mode == "continuous",
        label=serialize_spec(spec),
    )
