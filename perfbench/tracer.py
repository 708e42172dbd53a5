"""Spans and counters recorded around calls into coupled_fpi, from outside.

:func:`install` wraps the library's public functions and methods in the
current process only.  The modules import functions by name, so each name
is patched where it is looked up (``coupled_fpi.cli.preflight``,
``coupled_fpi.certifier.check_mbl``, ...).  Spans (name, start, end, parent
span, request id) are kept in flat arrays in memory and written out by
:meth:`Tracer.save` when the run ends; :func:`layer_metrics` turns them
into the per-layer metrics.

High-frequency leaf calls that have no children worth timing
(``has_edge``, ``edge_mask``, ``distance``, ``distance_batch``) are
counted, not spanned, to keep the tracing overhead down.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Per-layer metrics: name -> unit.  The order is the report order.
LAYER_UNITS = {
    "problem_spec.parse_ms": "ms",
    "problem_spec.build_ms": "ms",
    "sampling.rows_requested": "count",
    "sampling.rows_drawn": "count",
    "sampling.rows_accepted": "count",
    "sampling.accept_ratio": "ratio",
    "sampling.ms": "ms",
    "checks.mixed_monotone_ms": "ms",
    "checks.bl_ms": "ms",
    "checks.estimate_k_ms": "ms",
    "checks.mixed_monotone_multi_ms": "ms",
    "checks.mbl_ms": "ms",
    "checks.samples_tested": "count",
    "checks.violation_count": "count",
    "expressions.point_calls": "count",
    "expressions.batch_calls": "count",
    "expressions.batch_rows": "count",
    "expressions.ms": "ms",
    "maps.point_calls": "count",
    "maps.batch_calls": "count",
    "maps.batch_rows": "count",
    "maps.ms": "ms",
    "finite_sets.as_finite_set_calls": "count",
    "finite_sets.dist_to_set_calls": "count",
    "finite_sets.ms": "ms",
    "graphs.has_edge_calls": "count",
    "graphs.edge_mask_rows": "count",
    "spaces.distance_calls": "count",
    "spaces.distance_batch_rows": "count",
    "certifier.preflight_ms": "ms",
    "certifier.preflight_self_ms": "ms",
    "certifier.trial_trace_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.steps": "count",
    "solver.step_us": "us",
    "solver.probe_ms": "ms",
    "solver.probe_self_ms": "ms",
    "solver.seed_failures": "count",
    "cli.run_ms": "ms",
    "cli.run_self_ms": "ms",
    "cli.bytes_written": "bytes",
    "tracing.spans": "count",
    "tracing.overhead_ratio": "ratio",
}

_SOLVES = ("solver.solve_coupled", "solver.solve_coupled_multi")
_EDGE_SAMPLERS = {"edge_pairs": 2, "edge_triples": 3, "product_edge_pairs": 4}


class Tracer:
    """In-memory span recorder.

    Spans are stored column-wise; ``parent[i]`` is the index of the span
    that was open when span ``i`` started (-1 at top level) and
    ``request[i]`` is :attr:`request_id` at that moment (-1 outside a
    request).  ``counts`` holds counters keyed by metric name.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, index: int) -> str | None:
        return None if index < 0 else self.names[self.name_id[index]]

    def span(self, name: str, fn, after=None):
        """Wrap *fn* so each call records a span; ``after(index, args, result)``
        runs once the call returned."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0)
            stack.append(index)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(index, args, result)
            return result

        return traced

    def counter(self, name: str, fn, rows=None):
        """Wrap *fn* so each call adds 1 (or ``rows(args)``) to ``counts[name]``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1 if rows is None else rows(args)
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer) -> None:
    """Patch coupled_fpi so calls into each module are traced by *tracer*."""
    from coupled_fpi import (
        certifier, checks, cli, expressions, graphs, maps, problem_spec, sampling, solver,
        spaces,
    )

    def spanned(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    counts = tracer.counts

    # problem_spec: the benchmark worker calls through the module, cli.run
    # through its own imported name.
    tracer.patch(problem_spec, "parse_spec", spanned("problem_spec.parse_spec"))
    for owner in (problem_spec, cli):
        tracer.patch(owner, "build_instance", spanned("problem_spec.build_instance"))

    # sampling: every draw is counted; the filtered samplers turn the rows
    # drawn during their call into candidate tuples of their width.
    def count_draw(fn):
        def draw(sampler, n):
            counts["sampling.draw_rows"] += n
            return fn(sampler, n)
        return draw

    tracer.patch(sampling.Sampler, "draw",
                 lambda fn: tracer.span("sampling.draw", count_draw(fn)))

    def edge_sampler(name, columns):
        def make(fn):
            def sample(sampler, graph):
                before = counts["sampling.draw_rows"]
                result = fn(sampler, graph)
                counts["sampling.rows_drawn"] += (counts["sampling.draw_rows"] - before) // columns
                counts["sampling.rows_requested"] += sampler.spec.count
                counts["sampling.rows_accepted"] += len(result[0])
                return result
            return tracer.span(f"sampling.{name}", sample)
        return make

    for name, columns in _EDGE_SAMPLERS.items():
        tracer.patch(sampling.Sampler, name, edge_sampler(name, columns))

    # checks, looked up by preflight in the certifier namespace.
    def certificate(index, args, cert):
        counts["checks.samples_tested"] += cert.samples_tested
        counts["checks.violation_count"] += cert.violation_count

    for name in ("check_mixed_monotone", "check_mixed_monotone_multi", "check_bl", "check_mbl"):
        tracer.patch(certifier, name, spanned(f"checks.{name}", certificate))
    tracer.patch(certifier, "estimate_k", spanned("checks.estimate_k"))

    # map objects: expression maps and the builtin linear map.
    def batch_rows(module):
        def after(index, args, result):
            counts[f"{module}.batch_rows"] += len(args[1])
        return after

    tracer.patch(expressions.ExpressionCoupledMap, "__call__", spanned("expressions.call"))
    tracer.patch(expressions.ExpressionCoupledMap, "eval_batch",
                 spanned("expressions.eval_batch", batch_rows("expressions")))
    tracer.patch(expressions.ExpressionMultiMap, "__call__", spanned("expressions.multi_call"))
    tracer.patch(maps.LinearCoupledMap, "__call__", spanned("maps.call"))
    tracer.patch(maps.LinearCoupledMap, "eval_batch", spanned("maps.eval_batch", batch_rows("maps")))

    # finite sets, imported by name into checks, certifier and solver.
    for owner in (checks, certifier, solver):
        tracer.patch(owner, "as_finite_set", spanned("finite_sets.as_finite_set"))
        tracer.patch(owner, "dist_to_set", spanned("finite_sets.dist_to_set"))

    # graphs and spaces: counters on the classes the spec format builds.
    for cls in (graphs.OrderGraph, graphs.FullGraph, graphs.FiniteGraph):
        tracer.patch(cls, "has_edge", lambda fn: tracer.counter("graphs.has_edge_calls", fn))
    for cls in (graphs.Digraph, graphs.OrderGraph, graphs.FullGraph):
        tracer.patch(cls, "edge_mask", lambda fn: tracer.counter(
            "graphs.edge_mask_rows", fn, rows=lambda args: len(args[1])))
    tracer.patch(spaces.MetricSpace, "distance",
                 lambda fn: tracer.counter("spaces.distance_calls", fn))
    for cls in (spaces.MetricSpace, spaces.EuclideanSpace, spaces.ChebyshevSpace):
        tracer.patch(cls, "distance_batch", lambda fn: tracer.counter(
            "spaces.distance_batch_rows", fn, rows=lambda args: len(args[1])))

    # certifier and solver.  Solves whose parent is preflight are the
    # trial trace; the others are the real solve (cli.run) or probe seeds.
    def solve_steps(index, args, result):
        key = "certifier.trial_steps" if tracer.name_of(tracer.parent[index]) == \
            "certifier.preflight" else "solver.steps"
        counts[key] += len(result[1].steps)

    tracer.patch(cli, "preflight", spanned("certifier.preflight"))
    for owner in (cli, certifier, solver):
        for name in ("solve_coupled", "solve_coupled_multi"):
            tracer.patch(owner, name, spanned(f"solver.{name}", solve_steps))

    def probe_failures(index, args, report):
        counts["solver.seed_failures"] += sum(o.point is None for o in report.outcomes)

    tracer.patch(solver, "uniqueness_probe", spanned("solver.uniqueness_probe", probe_failures))
    tracer.patch(cli, "run", spanned("cli.run"))


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate the recorded spans and counters into the per-layer metrics.

    A module's ``.ms`` is the time of its outermost spans (those whose
    parent belongs to another module), so nested calls inside one module
    are not counted twice.
    """
    a = tracer.arrays()
    names = tracer.names
    name_id, parent = a["name_id"], a["parent"]
    duration = (a["end"] - a["start"]).astype(np.float64)
    own = self_times(parent, duration)
    module_of_name = [n.split(".")[0] for n in names]
    modules = sorted(set(module_of_name))
    mod = np.array([modules.index(m) for m in module_of_name], dtype=np.int64)[name_id]
    top = parent < 0
    safe_parent = np.where(top, 0, parent)
    outermost = top | (mod[safe_parent] != mod)
    parent_name = np.where(top, -1, name_id[safe_parent])

    def ids(*span_names):
        return [names.index(n) for n in span_names if n in names]

    def mask(*span_names):
        return np.isin(name_id, ids(*span_names))

    def ms(m, values=duration):
        return float(values[m].sum()) / 1e6

    def module_ms(module):
        code = modules.index(module) if module in modules else -1
        return ms((mod == code) & outermost)

    c = tracer.counts
    under_preflight = np.isin(parent_name, ids("certifier.preflight"))
    solves = mask(*_SOLVES)
    solve_ms = ms(solves & ~under_preflight)
    steps = c["solver.steps"]
    drawn = c["sampling.rows_drawn"]
    out = {
        "problem_spec.parse_ms": ms(mask("problem_spec.parse_spec")),
        "problem_spec.build_ms": ms(mask("problem_spec.build_instance")),
        "sampling.rows_requested": c["sampling.rows_requested"],
        "sampling.rows_drawn": drawn,
        "sampling.rows_accepted": c["sampling.rows_accepted"],
        "sampling.accept_ratio": c["sampling.rows_accepted"] / drawn if drawn else 0.0,
        "sampling.ms": module_ms("sampling"),
        "checks.mixed_monotone_ms": ms(mask("checks.check_mixed_monotone")),
        "checks.bl_ms": ms(mask("checks.check_bl")),
        "checks.estimate_k_ms": ms(mask("checks.estimate_k")),
        "checks.mixed_monotone_multi_ms": ms(mask("checks.check_mixed_monotone_multi")),
        "checks.mbl_ms": ms(mask("checks.check_mbl")),
        "checks.samples_tested": c["checks.samples_tested"],
        "checks.violation_count": c["checks.violation_count"],
    }
    for module in ("expressions", "maps"):
        calls = mask(f"{module}.call", f"{module}.multi_call") & outermost
        out[f"{module}.point_calls"] = int(calls.sum())
        out[f"{module}.batch_calls"] = int((mask(f"{module}.eval_batch") & outermost).sum())
        out[f"{module}.batch_rows"] = c[f"{module}.batch_rows"]
        out[f"{module}.ms"] = module_ms(module)
    out.update({
        "finite_sets.as_finite_set_calls": int(mask("finite_sets.as_finite_set").sum()),
        "finite_sets.dist_to_set_calls": int(mask("finite_sets.dist_to_set").sum()),
        "finite_sets.ms": module_ms("finite_sets"),
        "graphs.has_edge_calls": c["graphs.has_edge_calls"],
        "graphs.edge_mask_rows": c["graphs.edge_mask_rows"],
        "spaces.distance_calls": c["spaces.distance_calls"],
        "spaces.distance_batch_rows": c["spaces.distance_batch_rows"],
        "certifier.preflight_ms": ms(mask("certifier.preflight")),
        "certifier.preflight_self_ms": ms(mask("certifier.preflight"), own),
        "certifier.trial_trace_ms": ms(solves & under_preflight),
        "solver.solve_ms": solve_ms,
        "solver.steps": steps,
        "solver.step_us": solve_ms * 1e3 / steps if steps else 0.0,
        "solver.probe_ms": ms(mask("solver.uniqueness_probe")),
        "solver.probe_self_ms": ms(mask("solver.uniqueness_probe"), own),
        "solver.seed_failures": c["solver.seed_failures"],
        "cli.run_ms": ms(mask("cli.run")),
        "cli.run_self_ms": ms(mask("cli.run"), own),
        "cli.bytes_written": c["cli.bytes_written"],
        "tracing.spans": len(tracer),
    })
    return out
