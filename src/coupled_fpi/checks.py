"""Sampled hypothesis checkers.

Every checker here is a falsifier: it hunts for a counterexample on a
seeded sample and reports a :class:`Certificate`.  ``passed=True`` means
"not falsified on this sample", never "verified"; a failed certificate
carries concrete witnesses.  Inequalities get an absolute slack of
``SLACK`` so that float roundoff at an exact boundary is not reported
as a violation.

Each hypothesis has one kernel over (n, m, d) image arrays: n samples,
m image points each.  A single-valued map is the m = 1 case, so each
single-valued checker and its multivalued counterpart share one code
path and differ only in how they format witnesses.

* Contraction (``MBL``; ``BL`` when m = 1) on product edges (see
  :func:`coupled_fpi.graphs.product_edge`): every point of F(x,y) lies
  within (k/2)(d(x,u) + d(y,v)) of the set F(u,v), a max-min
  (:func:`coupled_fpi.finite_sets._excess`) over (n, m, m) distances.
* Mixed monotonicity (``mixed_monotone_multi``; ``mixed_monotone`` when
  m = 1): edges in the first argument push forward through F, edges in
  the second argument push forward *reversed*.  Every point of the
  "from" image needs an edge to some point of the "to" image, an any
  over an (n, m, m) edge mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InvalidInputError,
    InvalidParameterError,
    NonFiniteValueError,
)
from .expressions import _BLOCK_VALUES
from .finite_sets import _excess, _pairs, _point_rows
# Not used here; perfbench/tracer.py patches them under these names.
from .finite_sets import as_finite_set, dist_to_set  # noqa: F401
from .graphs import Digraph
from .sampling import Sampler, SampleSpec
from .spaces import MetricSpace, _check_number, as_point, fold_last

SLACK = 1e-12

# Witness lists stored on certificates are capped; violation_count keeps
# the exact total so passed <=> violation_count == 0 stays machine-checkable.
VIOLATION_CAP = 25

PROPERTY_NAMES = (
    "BL",
    "MBL",
    "mixed_monotone",
    "mixed_monotone_multi",
    "property_star",
    "diagonal_decay",
)


@dataclass(frozen=True)
class Certificate:
    """Outcome of one sampled (or exhaustive) property check.

    ``estimated_constant`` is set by :func:`check_bl` only: the value
    :func:`estimate_k` gives its sample, or None where that raises.
    ``seed`` records the RNG seed that reproduces the sample.
    ``detail`` is a short human-readable note such as the clause
    breakdown or a premise-violation flag.
    """

    property_name: str
    samples_tested: int
    passed: bool
    estimated_constant: float | None = None
    violations: tuple = ()
    violation_count: int = 0
    seed: int | None = None
    detail: str = ""

    def __post_init__(self):
        if self.property_name not in PROPERTY_NAMES:
            raise InvalidParameterError(
                f"unknown property name {self.property_name!r}"
            )
        if self.passed != (self.violation_count == 0):
            raise InvalidParameterError(
                "certificate passed flag inconsistent with violation count"
            )
        if self.estimated_constant is not None and not self.estimated_constant >= 0.0:
            raise InvalidParameterError("estimated constant must be nonnegative")

    def to_dict(self) -> dict:
        return {**vars(self), "violations": [dict(v) for v in self.violations]}


def validate_k(k: float, error: type = InvalidParameterError) -> float:
    k = _check_number(k, "k", error)
    if not (0.0 < k < 1.0):
        raise error("k must lie in (0,1)")
    return k


def _json_text(v, nl: str = "\n") -> str:
    """``json.dumps(v, indent=2, sort_keys=True)``'s text, *v* at the indent *nl* ends
    with, for str-keyed dicts, lists, tuples, str, int, float, bool and None; anything
    else raises TypeError.  The one place report.json's non-finite floats are spelled:
    NaN, inf and -inf are written as the strings "NaN", "Infinity" and "-Infinity"."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or isinstance(v, int):  # bool is an int
        return "null" if v is None else "true" if v is True else "false" if v is False else int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return '"NaN"' if v != v else '"Infinity"' if v > 0 else '"-Infinity"'
    sep, inner = f",{nl}  ", nl + "  "
    if isinstance(v, (list, tuple)):
        try:  # a list of finite floats in one join: "n" is in "nan" and "inf" only
            text = sep.join(map(float.__repr__, v))
        except TypeError:
            text = "n"
        if "n" in text:
            text = sep.join([_json_text(c, inner) for c in v])
        return f"[{inner}{text}{nl}]" if v else "[]"
    if isinstance(v, dict):  # encode_basestring_ascii raises TypeError for a key not a str
        text = sep.join([f"{encode_basestring_ascii(k)}: {_json_text(c, inner)}"
                         for k, c in sorted(v.items())])
        return f"{{{inner}{text}{nl}}}" if v else "{}"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _point_json(p, rows: bool = False):
    """A point as JSON, a float when d = 1 and else a list; with *rows*, the
    list of the (n, d) points *p*."""
    a = np.asarray(p, dtype=np.float64).reshape((-1, np.shape(p)[-1]) if rows else (1, -1))
    points = (a[:, 0] if a.shape[1] == 1 else a).tolist()
    return points if rows else points[0]


def _images(fn: Callable, X: np.ndarray, Y: np.ndarray, dimension: int, multi: bool) -> np.ndarray:
    """Evaluate a coupled map on (n,d) rows as an (n,m,d) image array.

    The package's one batched map evaluation.  A single-valued map gives
    one-point images (m = 1).  A map with ``eval_batch`` returns the
    array in one call (a 1-D or 2-D result is read as one-point images);
    plain callables are evaluated row by row, and a ragged image is
    padded by repeating its first point, which changes neither "every
    point has an edge into the other image", nor the largest
    point-to-set distance, nor the lowest-index nearest point.

    Raises:
        InvalidInputError: ``eval_batch`` returned another shape (for a
            single-valued map, any m but 1).
    """
    batch = getattr(fn, "eval_batch", None)
    if batch is not None:
        out = np.asarray(batch(X, Y), dtype=np.float64)
        shape = out.shape
        if out.ndim == 1:
            out = out[:, None]
        if out.ndim == 2:
            out = out[:, None, :]
        if out.ndim != 3 or out.shape[1] == 0 or \
                out.shape != (len(X), out.shape[1] if multi else 1, dimension):
            raise InvalidInputError(f"eval_batch returned shape {shape}, "
                                    f"expected ({len(X)}, {'m, ' if multi else ''}{dimension})")
        return out
    if not multi:
        return np.array([as_point(fn(x, y), dimension) for x, y in zip(X, Y)])[:, None, :]
    sets = [_point_rows(fn(x, y), dimension) for x, y in zip(X, Y)]
    m = max(len(s) for s in sets)
    return np.array([s if len(s) == m else np.concatenate([s, np.repeat(s[:1], m - len(s), axis=0)])
                     for s in sets])


def _finalize(name, total, violations, count, seed, detail="", estimate=None):
    """A certificate whose witness list is capped at ``VIOLATION_CAP``."""
    return Certificate(
        property_name=name,
        samples_tested=total,
        passed=count == 0,
        estimated_constant=estimate,
        violations=tuple(violations[:VIOLATION_CAP]),
        violation_count=count,
        seed=seed,
        detail=detail,
    )


def _unmatched(graph: Digraph, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, m): whether each point of A[i] has no edge to a finite point of B[i] (or is not finite)."""
    edges = graph.edge_mask(*_pairs(A, B)).reshape(*A.shape[:2], -1)
    finite_a, finite_b = (fold_last(np.logical_and, np.isfinite(Z)) for Z in (A, B))
    return ~fold_last(np.logical_or, edges & finite_b[:, None, :]) | ~finite_a


def _mixed_monotone(fn: Callable, graph: Digraph, sample: SampleSpec, multi: bool) -> Certificate:
    """Mixed-monotone kernel shared by both map kinds.

    Clause "x" samples (p1, p2, w) with an edge p1 -> p2 and needs every
    point of F(p1, w) to have an edge to some point of F(p2, w); clause
    "y" samples the same way and needs the reversed image edge, from
    F(w, p2) to F(w, p1).  A sample violates a clause once, at its first
    unmatched image point.  A non-finite image point is unmatched, and it
    matches no point of the other image.  While a full sample's four image
    sets, 4 * count * d values, fit one ``_BLOCK_VALUES`` block, they come
    from one map evaluation, x's samples first; past it each set is
    evaluated alone.  The two clauses may hold different numbers of samples.
    """
    d = graph.dimension
    sampler = Sampler(sample, d)
    clauses = {"x": sampler.edge_triples(graph), "y": sampler.edge_triples(graph)}
    (P1, P2, W), (Q1, Q2, V) = clauses.values()
    n, total = len(P1), len(P1) + len(Q1)
    if 4 * sample.count * d <= _BLOCK_VALUES:
        images = _images(fn, np.concatenate([P1, V, P2, V]), np.concatenate([W, Q2, W, Q1]), d, multi)
        A, B = images[:total], images[total:]  # the "from" and the "to" images
        U = _unmatched(graph, A, B)
        parts = [(A[:n], B[:n], U[:n]), (A[n:], B[n:], U[n:])]
    else:
        parts = []
        for sets in (((P1, W), (P2, W)), ((V, Q2), (V, Q1))):
            A, B = (_images(fn, x, y, d, multi) for x, y in sets)
            parts.append((A, B, _unmatched(graph, A, B)))
    violations: list[dict] = []
    count = 0
    for (clause, triples), (A, B, U) in zip(clauses.items(), parts):
        bad = np.flatnonzero(fold_last(np.logical_or, U))
        count += len(bad)
        rows = bad[:VIOLATION_CAP - len(violations)]
        if not rows.size:
            continue
        columns = [rows.tolist(), *(_point_json(Z[rows], rows=True) for Z in triples)]
        if multi:
            keys = ("sample", "edge_from", "edge_to", "other", "unmatched")
            columns.append(_point_json(A[rows, U[rows].argmax(axis=1)], rows=True))
        else:
            keys = ("sample", f"{clause}1", f"{clause}2", "y" if clause == "x" else "x",
                    "image_from", "image_to")
            columns += [_point_json(A[rows, 0], rows=True), _point_json(B[rows, 0], rows=True)]
        violations += [{"clause": clause, **dict(zip(keys, row))} for row in zip(*columns)]
    name = "mixed_monotone_multi" if multi else "mixed_monotone"
    return _finalize(name, total, violations, count, sample.seed)


def check_mixed_monotone(fn: Callable, graph: Digraph, sample: SampleSpec) -> Certificate:
    """Falsify the mixed monotone property of a single-valued map.

    Samples triples (x1, x2, y) with an edge x1 -> x2 and checks the
    image edge F(x1,y) -> F(x2,y); then triples (y1, y2, x) with an edge
    y1 -> y2 and checks the *reversed* image edge F(x,y2) -> F(x,y1).
    """
    return _mixed_monotone(fn, graph, sample, multi=False)


def check_mixed_monotone_multi(fn: Callable, graph: Digraph, sample: SampleSpec) -> Certificate:
    """Falsify the multivalued mixed monotone property.

    The image-edge requirement is pointwise-existential: every u in the
    "from" image needs some v in the "to" image with an edge u -> v.
    """
    return _mixed_monotone(fn, graph, sample, multi=True)


def _contraction_sample(fn: Callable, space: MetricSpace, graph: Digraph,
                        sample: SampleSpec, multi: bool):
    """The pairs (X, Y, U, V), the images A = F(X, Y), each point's
    distance to its set F(U, V) as (n, m) and each d(x,u) + d(y,v).  Both
    image sets come from one map evaluation."""
    d = space.dimension
    X, Y, U, V = Sampler(sample, d).product_edge_pairs(graph)
    images = _images(fn, np.concatenate([X, U]), np.concatenate([Y, V]), d, multi)
    A, B = images[:len(X)], images[len(X):]
    lhs = _excess(space, A, B)
    den = space.distance_batch(X, U) + space.distance_batch(Y, V)
    return (X, Y, U, V), A, lhs, den


def _ratio_sup(lhs: np.ndarray, den: np.ndarray) -> float:
    """sup of 2 lhs / den over the single-valued pairs with den > 0.

    Raises:
        InsufficientSamplesError: every pair has den = 0.
        NonFiniteValueError: some ratio is NaN or infinite.
    """
    keep = np.flatnonzero(den > 0.0)
    if not keep.size:
        raise InsufficientSamplesError("all sampled product-edge pairs were degenerate")
    ratio = 2.0 * lhs[keep, 0] / den[keep]
    bad = np.flatnonzero(~np.isfinite(ratio))
    if bad.size:
        raise NonFiniteValueError(
            f"non-finite contraction ratio {float(ratio[bad[0]])!r} "
            f"on sampled pair {int(keep[bad[0]])}"
        )
    return float(ratio.max())


def _contraction(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    k: float,
    sample: SampleSpec,
    multi: bool,
) -> Certificate:
    """Contraction kernel shared by both map kinds.

    For each sampled product-edge pair, every point of F(x,y) must lie
    within (k/2)(d(x,u) + d(y,v)) + SLACK of the set F(u,v).  A sample
    counts once, with its first offending image point as the witness.
    A non-finite distance offends.  A single-valued certificate's
    estimated constant is :func:`_ratio_sup` of the sample, or None.
    """
    k = validate_k(k)
    (X, Y, U, V), A, lhs, den = _contraction_sample(fn, space, graph, sample, multi)
    rhs = 0.5 * k * den
    over = ~(lhs <= rhs[:, None] + SLACK)
    bad = np.flatnonzero(fold_last(np.logical_or, over))
    violations = []
    if bad.size:
        rows = bad[:VIOLATION_CAP]
        j = over[rows].argmax(axis=1)
        points = [X[rows], Y[rows], U[rows], V[rows], *([A[rows, j]] if multi else [])]
        columns = [rows.tolist(), *(_point_json(Z, rows=True) for Z in points),
                   lhs[rows, j].tolist(), rhs[rows].tolist()]
        names = ["sample", "x", "y", "u", "v", *(["point"] if multi else []), "lhs", "rhs"]
        violations = [dict(zip(names, row)) for row in zip(*columns)]
    estimate = None
    if not multi:
        try:
            estimate = _ratio_sup(lhs, den)
        except (InsufficientSamplesError, NonFiniteValueError):
            pass
    name = "MBL" if multi else "BL"
    return _finalize(name, len(X), violations, len(bad), sample.seed, f"k={k!r}", estimate)


def check_bl(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    k: float,
    sample: SampleSpec,
) -> Certificate:
    """Falsify the single-valued contraction bound at constant *k*.

    Samples product-edge pairs ((x,y),(u,v)) and tests
    d(F(x,y), F(u,v)) <= (k/2)(d(x,u) + d(y,v)) + SLACK.
    """
    return _contraction(fn, space, graph, k, sample, multi=False)


def check_mbl(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    k: float,
    sample: SampleSpec,
) -> Certificate:
    """Falsify the multivalued contraction bound at constant *k*.

    For each sampled product-edge pair, every point of F(x,y) must be
    within (k/2)(d(x,u)+d(y,v)) + SLACK of the set F(u,v).
    """
    return _contraction(fn, space, graph, k, sample, multi=True)


def estimate_k(
    fn: Callable,
    space: MetricSpace,
    graph: Digraph,
    sample: SampleSpec,
) -> float:
    """Smallest constant satisfying the contraction bound on the sample.

    Returns sup over sampled product-edge pairs of
    2 d(F(x,y), F(u,v)) / (d(x,u) + d(y,v)), skipping degenerate pairs
    (zero denominator).  The value is a lower bound for any admissible
    global k; it may well exceed 1, which is informative in itself.
    It draws and evaluates the sample :func:`check_bl` draws and
    evaluates, so it equals that certificate's ``estimated_constant``.

    Raises:
        InsufficientSamplesError: no product-edge pairs found, or all
            sampled pairs were degenerate.
        NonFiniteValueError: the map's values give a NaN or infinite
            ratio on some sampled pair.
    """
    _, _, lhs, den = _contraction_sample(fn, space, graph, sample, multi=False)
    return _ratio_sup(lhs, den)
