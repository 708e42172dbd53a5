"""Hypothesis preflight: aggregate the sampled checks for one instance.

The solver's convergence guarantees rest on a bundle of hypotheses
(mixed monotonicity, the contraction bound, the seed edge, and either
continuity of the map or the limit-edge persistence property of the
graph).  ``preflight`` runs every checker it can, collects their
certificates, and labels the instance with the strongest certification
level whose sampled hypotheses all survived:

    thm_3_1  single-valued map, continuity asserted
    thm_3_2  single-valued map, limit-edge persistence instead
    thm_4_1  multivalued map, continuity asserted
    thm_4_2  multivalued map, limit-edge persistence instead
    none     some hypothesis was falsified (or could not be exercised)

Continuity cannot be falsified by finitely many samples; it stays a
user assertion, spot-checked at a few anchors against their images just
beside them, in Pompeiu-Hausdorff distance for either map kind.  The
limit-edge property ("property_star") is quantified over all convergent
sequences, so the certifier checks it only on the sequences actually
produced; its certificates mean "not falsified", never "verified".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .checks import (
    Certificate,
    _finalize,
    _images,
    _point_json,
    check_bl,
    check_mbl,
    check_mixed_monotone,
    check_mixed_monotone_multi,
    validate_k,
)
from .errors import CoupledFpiError, InvalidInputError, InvalidParameterError, InvalidSeedError
from .finite_sets import _gaps
# Not used here; perfbench/tracer.py patches them under these names.
from .checks import estimate_k  # noqa: F401
from .finite_sets import as_finite_set, dist_to_set  # noqa: F401
from .graphs import Digraph, product_edge
from .sampling import SampleSpec, Sampler
from .solver import (
    CoupledFixedPoint,
    IterationTrace,
    SolveConfig,
    _first_pair,
    solve_coupled,
    solve_coupled_multi,
)
from .spaces import MetricSpace, PointLike, _check_flag, as_point

# Trial-trace length for the property_star path; long enough to exercise
# the edge chain, short enough to stay cheap even for slow user maps.
# ``cli.run``'s final solve resumes from the trial's iterates x_0..x_25.
_TRIAL_STEPS = 25
_CONTINUITY_TOL = 1e-8


@dataclass(frozen=True)
class ProblemInstance:
    """Everything preflight needs to know about one problem.

    ``kind`` is "single" or "multi"; for multivalued instances the seed
    iterates x1, y1 are part of the instance (the theorems' existential
    seed).  ``continuous`` is the user's continuity assertion.  An empty
    ``label`` becomes the map's ``canonical`` text where it has one.
    """

    kind: str
    space: MetricSpace
    graph: Digraph
    map: Callable
    k: float
    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray | None = None
    y1: np.ndarray | None = None
    continuous: bool = True
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise InvalidParameterError(f"kind must be 'single' or 'multi', got {self.kind!r}")
        d = self.space.dimension
        if self.graph.dimension != d:
            raise InvalidInputError(f"graph dimension {self.graph.dimension} != space dimension {d}")
        object.__setattr__(self, "k", validate_k(self.k))
        object.__setattr__(self, "continuous", _check_flag(self.continuous, "continuous"))
        if not self.label:
            object.__setattr__(self, "label", getattr(self.map, "canonical", ""))
        object.__setattr__(self, "x0", as_point(self.x0, d))
        object.__setattr__(self, "y0", as_point(self.y0, d))
        if self.kind == "multi":
            if self.x1 is None or self.y1 is None:
                raise InvalidInputError("multivalued instances must declare x1 and y1")
            object.__setattr__(self, "x1", as_point(self.x1, d))
            object.__setattr__(self, "y1", as_point(self.y1, d))


@dataclass(frozen=True)
class HypothesisReport:
    """Consolidated preflight outcome for one instance."""

    instance_id: str
    certificates: tuple[Certificate, ...]
    theorem_applicable: str
    seed_edge_ok: bool
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.theorem_applicable != "none"

    def certificate(self, property_name: str) -> Certificate | None:
        for cert in self.certificates:
            if cert.property_name == property_name:
                return cert
        return None

    def to_dict(self) -> dict:
        return {**vars(self), "certificates": [c.to_dict() for c in self.certificates],
                "notes": list(self.notes)}


def instance_id_for(instance: ProblemInstance) -> str:
    """Stable short id from the instance's declared data.  The label (the
    spec text, else a builtin map's ``canonical`` text) names the map; an
    arbitrary callable is not identified."""
    h = hashlib.sha256()
    parts = [
        instance.kind,
        type(instance.space).__name__,
        str(instance.space.dimension),
        type(instance.graph).__name__,
        repr(instance.k),
        repr([float(c) for c in instance.x0]),
        repr([float(c) for c in instance.y0]),
        repr(None if instance.x1 is None else [float(c) for c in instance.x1]),
        repr(None if instance.y1 is None else [float(c) for c in instance.y1]),
        str(instance.continuous),
        instance.label,
    ]
    h.update("|".join(parts).encode())
    return h.hexdigest()[:12]


def check_property_star(
    graph: Digraph,
    sequence: Sequence[PointLike],
    limit: PointLike,
    direction: str = "ascending",
) -> Certificate:
    """Check limit-edge persistence along one convergent sequence.

    ascending: if every consecutive pair (s_n, s_{n+1}) is an edge, then
    every (s_n, limit) must be an edge.  descending: premise edges run
    (s_{n+1}, s_n) and the conclusion edges run (limit, s_n).

    If the premise fails at some index the property says nothing about
    this sequence: the certificate reports premise-violated (failed with
    the offending index in ``detail``) rather than a conclusion witness.

    Raises:
        InvalidInputError: empty sequence or unknown direction.
    """
    if direction not in ("ascending", "descending"):
        raise InvalidInputError(
            f"direction must be 'ascending' or 'descending', got {direction!r}"
        )
    pts = [as_point(p, graph.dimension) for p in sequence]
    if not pts:
        raise InvalidInputError("sequence must be nonempty")
    lim = as_point(limit, graph.dimension)
    rule = graph._row_rule  # on the points' floats, as has_edge tests them; else has_edge
    test, rows, end = (rule, [p.tolist() for p in pts], lim.tolist()) if rule else (graph.has_edge, pts, lim)
    # the edge "along" the sequence: p -> q ascending, q -> p descending
    edge = test if direction == "ascending" else lambda p, q: test(q, p)

    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        if not edge(rows[i], rows[i + 1]):
            violation = {"term": i, "kind": "premise", "from": _point_json(a), "to": _point_json(b)}
            return _finalize("property_star", len(pts), [violation], 1, None,
                             f"premise-violated at term {i}: consecutive pair is not an edge")

    bad = [i for i, p in enumerate(rows) if not edge(p, end)]
    violations = [{"term": i, "kind": "conclusion", "point": _point_json(pts[i]),
                   "limit": _point_json(lim)} for i in bad]
    return _finalize("property_star", len(pts), violations, len(bad), None, direction)


def _seed_edge_ok(instance: ProblemInstance, notes: list[str]):
    """The seed pair ``([x0, x1], [y0, y1])`` if it meets the seed condition, else None."""
    single = instance.kind == "single"
    declared = () if single else (instance.x1, instance.y1)
    try:
        x0, y0, x1, y1 = _first_pair(instance.map, instance.space, instance.x0, instance.y0,
                                     *declared)
        if single:
            for p, image in ((x1, "F(x0, y0)"), (y1, "F(y0, x0)")):
                if not np.isfinite(p).all():
                    # the full graph has every edge, NaN ones included
                    notes.append(f"seed iterate {image} is not finite")
                    return None
        return ([x0, x1], [y0, y1]) if product_edge(instance.graph, (x0, y0), (x1, y1)) else None
    except InvalidSeedError:
        notes.append("declared seed iterates are not members of the seed images")
    except CoupledFpiError as exc:
        notes.append(f"seed evaluation failed: {exc}")
    return None


def solve_instance(
    instance: ProblemInstance, cfg: SolveConfig, *, known=None
) -> tuple[CoupledFixedPoint, IterationTrace]:
    """Solve *instance* from its declared seed with the solver of its kind,
    raising what that solver raises.  *known* is the iterates ``(xs, ys)`` of
    :func:`_preflight`, the seed pair or the trial's, which the solve takes
    instead of computing them, the seed condition's first pair too."""
    if instance.kind == "single":
        solve, seed = solve_coupled, (instance.x0, instance.y0)
    else:
        solve, seed = solve_coupled_multi, (instance.x0, instance.y0, instance.x1, instance.y1)
    return solve(instance.map, instance.space, instance.graph, *seed, cfg, known=known)


def _spot_check_continuity(instance: ProblemInstance, sampler: Sampler, notes: list[str]) -> bool:
    """Compare F at three anchors (a, b) drawn from *sampler*'s box or pool
    (seed + 1) with F just beside them, in Hausdorff distance (a single-valued
    map is the one-point case).  The probes sit at p +- 2^-48 u max(1, |p|)
    for p = a and p = b, with u drawn from the unit box; scaled by |p|, the
    step survives rounding.  A continuous map closes the gap; a jump at the
    anchor, from either side, cannot.  Returns False only when a gap above
    tolerance (or NaN) was actually observed.
    """
    d, multi, space = instance.space.dimension, instance.kind == "multi", instance.space
    R = np.random.default_rng(sampler.spec.seed + 1).random((9, d))
    if sampler._pool is None:  # rows 1-3 and 4-6 on the box
        anchors, partners = np.split(sampler._low + sampler._width * R[:6], 2)
    else:  # a vertex pool's rows, by index under a second generator
        pool = Sampler(replace(sampler.spec, count=3, seed=sampler.spec.seed + 1), d)
        anchors, partners = pool.draw(3), pool.draw(3)
    u = 2.0 ** -48 * (-1.0 + 2.0 * R[6:])  # not the anchors' uniforms, else u is on their ray
    beside = [np.vstack([p + u * np.maximum(1.0, abs(p)), p - u * np.maximum(1.0, abs(p))])
              for p in (anchors, partners)]
    try:  # the anchors' images, then their neighbours', in one evaluation
        images = _images(instance.map, np.concatenate([anchors, beside[0]]),
                         np.concatenate([partners, beside[1]]), d, multi)
    except CoupledFpiError as exc:
        notes.append(f"continuity spot check skipped: {exc}")
        return True
    base = np.concatenate([images[:3]] * 2)
    gap = _gaps(space, base, images[3:]).reshape(2, 3).max(axis=0)  # each anchor's larger side
    bad = np.flatnonzero(~(gap <= _CONTINUITY_TOL))
    if bad.size:
        notes.append("continuity spot check FAILED near "
                     f"{_point_json(anchors[bad[0]])!r}: jump {float(gap[bad[0]])!r}")
        return False
    notes.append("continuity asserted; spot check found no violation")
    return True


def _run_check(what: str, check: Callable, args: tuple, requested: int,
               certs: list[Certificate], notes: list[str]) -> bool:
    """Run one checker and keep its certificate; note an abort, and a sample
    that rejection ran out of draws for before *requested*.  Returns whether
    the check ran and passed."""
    try:
        cert = check(*args)
    except CoupledFpiError as exc:
        notes.append(f"{what} check aborted: {exc}")
        return False
    certs.append(cert)
    if cert.samples_tested < requested:
        notes.append(
            f"{cert.property_name} tested {cert.samples_tested} of {requested} requested samples"
        )
    return cert.passed


def preflight(instance: ProblemInstance, sample: SampleSpec) -> HypothesisReport:
    """Run all applicable hypothesis checks and consolidate the outcome.

    Never raises on a failed hypothesis: failures are certificates and
    notes.  ``theorem_applicable`` is "none" unless monotonicity, the
    contraction bound, the seed edge and (per the continuity assertion)
    either the spot check or the trial-trace limit-edge certificates all
    survived.

    Raises:
        InvalidInputError: a box that breaks ``sampling._check_box``, or a bad point pool.
    """
    return _preflight(instance, sample)[0]


def _preflight(instance: ProblemInstance, sample: SampleSpec):
    """:func:`preflight`'s report and the iterates ``(xs, ys)`` a solve takes:
    the seed pair ``([x0, x1], [y0, y1])`` in continuous mode, else the trial
    trace's; None if the seed condition failed or the trial raised."""
    sampler = Sampler(sample, instance.space.dimension)  # read by both checkers; checks the box
    notes: list[str] = []
    certs: list[Certificate] = []
    iid = instance_id_for(instance)

    known = _seed_edge_ok(instance, notes)  # checked once; every solve below takes it
    seed_ok = known is not None
    if not seed_ok:
        notes.append("seed edge condition FAILED")

    single = instance.kind == "single"
    mono = check_mixed_monotone if single else check_mixed_monotone_multi
    mono_ok = _run_check("monotonicity", mono, (instance.map, instance.graph, sampler),
                         2 * sample.count, certs, notes)  # one sample per clause
    bound = check_bl if single else check_mbl
    bound_ok = _run_check("contraction", bound,
                          (instance.map, instance.space, instance.graph, instance.k, sampler),
                          sample.count, certs, notes)
    sampler._kept.clear()  # the shared blocks go with the two checks

    limit_mode_ok = True
    if instance.continuous:
        limit_mode_ok = _spot_check_continuity(instance, sampler, notes)
    else:
        try:
            # tol is never met: the trial wants a full-length edge chain
            trial = SolveConfig(k=instance.k, tol=1e-300, max_iter=_TRIAL_STEPS)
            fp, trace = solve_instance(instance, trial, known=known)
            xs = [s.x for s in trace.steps] + [fp.x]
            ys = [s.y for s in trace.steps] + [fp.y]
            star_x = check_property_star(instance.graph, xs, fp.x, "ascending")
            star_y = check_property_star(instance.graph, ys, fp.y, "descending")
            certs.extend([star_x, star_y])
            limit_mode_ok = star_x.passed and star_y.passed
            known = xs, ys
            if limit_mode_ok:
                notes.append(
                    f"limit-edge persistence checked on a {len(trace.steps)}-step "
                    "trial trace (not falsified)"
                )
            else:
                notes.append("limit-edge persistence FALSIFIED on the trial trace")
        except CoupledFpiError as exc:
            notes.append(f"trial trace for limit-edge check failed: {exc}")
            limit_mode_ok, known = False, None

    if seed_ok and mono_ok and bound_ok and limit_mode_ok:
        if single:
            level = "thm_3_1" if instance.continuous else "thm_3_2"
        else:
            level = "thm_4_1" if instance.continuous else "thm_4_2"
    else:
        level = "none"
    if not instance.label:
        notes.append("instance_id does not identify the map: it has no label or canonical text")

    return HypothesisReport(
        instance_id=iid,
        certificates=tuple(certs),
        theorem_applicable=level,
        seed_edge_ok=seed_ok,
        notes=tuple(notes),
    ), known
