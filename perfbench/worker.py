"""Benchmark worker: one fresh interpreter that sets up and serves requests.

Reads one JSON job on stdin and writes one JSON result on stdout.  The job
carries only the generated spec texts (and probe seed lists); expected
outcomes stay in the parent.  Modes:

``setup``   import coupled_fpi, run parse_spec + build_instance on every
            spec, report the CLOCK_MONOTONIC time at which that finished.
``timed``   set up, then run as many whole passes over the requests as
            fit in ``seconds`` (at least MIN_REQUESTS requests); report per-request latency and outcome,
            and the time of the reference chunks run after each request
            (see ``perfbench/reference.py``).
``traced``  set up, run one untraced pass, then install the tracer, set up
            again and run one traced pass; report the per-layer metrics and
            write the spans next to the request outputs.

A request is one ``cli.run`` (certify workloads) or one
``solver.uniqueness_probe`` call (probe workload).  Library functions are
looked up through their modules at call time so the tracer's patches
apply.  The worker starts no threads or processes.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

import numpy as np

from coupled_fpi import cli, problem_spec, solver
from perfbench import reference

# Enough requests per timed run for ten samples beyond the 90th percentile.
MIN_REQUESTS = 100


class Requests:
    """The parsed inputs of one workload and how to serve them."""

    def __init__(self, job: dict):
        self.kind = job["kind"]
        self.out_root = job["out_dir"]
        self.seeds = job.get("seeds") or []
        self.specs = []
        self.probes = []
        # Parsing and building every spec is the set-up cost a fresh
        # ``coupled-fpi solve`` pays; cli.run builds its own instance again.
        for text in job["specs"]:
            spec = problem_spec.parse_spec(text)
            instance = problem_spec.build_instance(spec)
            self.specs.append(spec)
            if self.kind == "probe":
                self.probes.append((instance, problem_spec.build_solve_config(spec)))
        self.sink = io.StringIO()

    def __len__(self) -> int:
        return len(self.specs)

    def out_dir(self, i: int) -> str:
        return os.path.join(self.out_root, str(i))

    def call(self, i: int):
        if self.kind == "probe":
            instance, cfg = self.probes[i]
            return solver.uniqueness_probe(instance.map, instance.space, instance.graph,
                                           self.seeds[i], cfg)
        self.sink.seek(0)
        self.sink.truncate()
        return cli.run(self.specs[i], self.out_dir(i), quiet=True,
                       stdout=self.sink, stderr=self.sink)

    def summarize(self, i: int, result) -> dict:
        if self.kind == "probe":
            return {
                "failures": [[o.index, o.error.split(":")[0]]
                             for o in result.outcomes if o.error is not None],
                "clusters": [list(c) for c in result.clusters],
                "edge_violations": len(result.edge_violations),
                "points": [[o.point.x.tolist(), o.point.y.tolist()]
                           for o in result.outcomes if o.point is not None and o.converged],
            }
        out = {"exit": result.exit_code, "theorem": result.report.theorem_applicable,
               "converged": None, "x": None, "y": None, "residual": None}
        if result.trace is not None:
            out.update(converged=result.trace.converged, residual=float(result.trace.residual))
        if result.result is not None:
            out.update(x=result.result.x.tolist(), y=result.result.y.tolist())
        return out

    def bytes_written(self, i: int, result) -> int:
        if self.kind == "probe":
            return 0
        names = ["report.json"] + (["trace.csv"] if result.trace is not None else [])
        return sum(os.path.getsize(os.path.join(self.out_dir(i), n)) for n in names)


def run_pass(requests: Requests, latencies: list, outcomes: list, tracer=None,
             ref: tuple[list, list] | None = None) -> None:
    """Serve every request once, in order, one at a time (closed loop).

    An outcome equal to the first pass's outcome of the same request is
    stored as ``None``, so memory does not grow with the number of passes.
    With a *tracer*, spans are tagged with the request index and the bytes
    each request wrote are counted after its latency was taken.  With
    *ref* = (times, counts), reference chunks are run after each request,
    outside its latency, and their wall time and number are appended.
    """
    for i in range(len(requests)):
        if tracer is not None:
            tracer.request_id = i
        start = time.perf_counter()
        try:
            result = requests.call(i)
        except Exception as exc:  # a raised request is a wrong outcome, not a crash
            latencies.append(time.perf_counter() - start)
            result, outcome = None, {"raised": f"{type(exc).__name__}: {exc}"}
        else:
            latencies.append(time.perf_counter() - start)
            outcome = requests.summarize(i, result)
        repeat = len(outcomes) >= len(requests) and outcome == outcomes[i]
        outcomes.append(None if repeat else outcome)
        if tracer is not None and result is not None:
            tracer.counts["cli.bytes_written"] += requests.bytes_written(i, result)
        if ref is not None:
            n = reference.chunks_for(latencies[-1])
            start = time.perf_counter()
            for _ in range(n):
                reference.chunk()
            ref[0].append(time.perf_counter() - start)
            ref[1].append(n)
    if tracer is not None:
        tracer.request_id = -1


def traced_pass(requests: Requests, job: dict, latencies: list, outcomes: list) -> dict:
    """One untraced pass, then set-up and one pass under the tracer.

    Returns the per-layer metrics; ``tracing.overhead_ratio`` is the traced
    pass time over the untraced pass time.
    """
    from perfbench import tracer as tracing

    start = time.perf_counter()
    run_pass(requests, latencies, outcomes)
    untraced = time.perf_counter() - start

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_requests = Requests(job)
        start = time.perf_counter()
        run_pass(traced_requests, latencies, outcomes, tracer)
        traced = time.perf_counter() - start
    finally:
        tracer.restore()
    tracer.save(os.path.join(job["out_dir"], "spans.npz"))
    metrics = tracing.layer_metrics(tracer)
    metrics["tracing.overhead_ratio"] = traced / untraced
    return metrics


def serve(job: dict) -> dict:
    requests = Requests(job)
    result = {"ready": time.monotonic(), "threads": len(os.listdir("/proc/self/task")),
              "numpy": np.__version__}
    if job["mode"] == "setup":
        return result
    latencies: list[float] = []
    outcomes: list[dict] = []
    if job["mode"] == "traced":
        result["layers"] = traced_pass(requests, job, latencies, outcomes)
        result["passes"] = 2
    else:
        # Whole passes keep the request mix identical; stop before the pass
        # that would run past the time budget, once MIN_REQUESTS were served.
        ref_times: list[float] = []
        ref_counts: list[int] = []
        reference.chunk()
        start = time.perf_counter()
        passes = 0
        while True:
            run_pass(requests, latencies, outcomes, ref=(ref_times, ref_counts))
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > job["seconds"] and len(latencies) >= MIN_REQUESTS:
                break
        result.update(passes=passes, ref_times=ref_times, ref_counts=ref_counts)
    result.update(latencies=latencies, outcomes=outcomes)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(serve(job), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
