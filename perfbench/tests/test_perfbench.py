"""Tests of the benchmark itself: generator, correctness gate and tracer.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from coupled_fpi import cli
from perfbench import gate, reference, tracer, worker, workloads


def _subset(wl: workloads.Workload, keep: list[int]) -> workloads.Workload:
    return workloads.Workload(
        wl.name, wl.kind,
        specs=[wl.specs[i] for i in keep],
        seeds=[wl.seeds[i] for i in keep] if wl.seeds else [],
        expected=[wl.expected[i] for i in keep],
    )


def _job(wl: workloads.Workload, out_dir, mode: str = "traced") -> dict:
    return {"kind": wl.kind, "specs": wl.specs, "seeds": wl.seeds, "out_dir": str(out_dir),
            "seconds": 0, "mode": mode}


def _small(name: str, seed: int = 3) -> workloads.Workload:
    """A few cheap requests of each workload, covering its request kinds."""
    wl = workloads.generate(name, seed)
    docs = [json.loads(text) for text in wl.specs]
    if name == "single_certify":
        small = [i for i, d in enumerate(docs) if d["space"]["dimension"] <= 2]
        keep = small[:6] + [next(i for i in small if wl.expected[i]["exit"] == 2)]
    elif name == "multi_certify":
        keep = [i for i, d in enumerate(docs)
                if d["sampler"]["count"] <= 120 and len(d["map"]["definition"]) <= 4][:3]
    else:
        keep = [i for i, s in enumerate(wl.seeds) if len(s) == 25][:3]
    return _subset(wl, sorted(set(keep)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    a = workloads.generate(name, 11)
    b = workloads.generate(name, 11)
    assert (a.specs, a.seeds, a.expected, a.shipped) == (b.specs, b.seeds, b.expected, b.shipped)
    assert workloads.generate(name, 12).specs != a.specs


def test_generator_keeps_the_designed_mix():
    wl = workloads.generate("single_certify", 5)
    docs = [json.loads(text) for text in wl.specs]
    refused = sum(e["exit"] == 2 for e in wl.expected)
    generated = len(wl.specs) - len(wl.shipped)
    assert refused - 1 == generated // 5  # plus the shipped single_projection_x
    assert sum(d["space"]["dimension"] == 5 and d["graph"]["kind"] == "order" for d in docs) == 2
    assert any(isinstance(d["map"]["definition"], dict) for d in docs)  # builtin linear maps
    probe = workloads.generate("probe_seeds", 5)
    for seeds, expected in zip(probe.seeds, probe.expected):
        assert len(expected["failing"]) == len(seeds) // workloads.PROBE_FAIL_SHARE


def _outcomes(wl, tmp_path):
    requests = worker.Requests(_job(wl, tmp_path, "timed"))
    latencies, outcomes = [], []
    worker.run_pass(requests, latencies, outcomes)
    return outcomes


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_gate_accepts_the_outcomes_known_by_construction(name, tmp_path):
    wl = _small(name)
    for expected, outcome in zip(wl.expected, _outcomes(wl, tmp_path)):
        assert gate.check(wl.kind, expected, outcome) == []


def test_gate_counts_planted_wrong_expectations(tmp_path):
    wl = _small("single_certify")
    outcomes = _outcomes(wl, tmp_path)
    solved = next(i for i, e in enumerate(wl.expected) if "fixed" in e)
    refused = next(i for i, e in enumerate(wl.expected) if e["exit"] == 2)

    shifted = copy.deepcopy(wl.expected[solved])
    shifted["fixed"] = [c + 1e-6 for c in shifted["fixed"]]
    assert gate.check("certify", shifted, outcomes[solved])

    flipped = dict(wl.expected[refused], exit=0, theorem="thm_3_1")
    assert gate.check("certify", flipped, outcomes[refused])
    assert gate.check("certify", wl.expected[solved], {"raised": "ValueError: boom"})

    # A planted error is counted on every pass, also where the worker sent
    # a repeat marker instead of the outcome.
    requests = worker.Requests(_job(wl, tmp_path, "timed"))
    two_passes = []
    for _ in range(2):
        worker.run_pass(requests, [], two_passes)
    assert two_passes[len(wl.specs):] == [None] * len(wl.specs)
    planted = list(wl.expected)
    planted[solved] = shifted
    assert [r for r, _ in gate.wrong_requests("certify", planted, two_passes)] == \
        [solved, solved + len(wl.specs)]
    assert gate.wrong_requests("certify", wl.expected, two_passes) == []

    probes = _small("probe_seeds")
    probe_outcome = _outcomes(probes, tmp_path / "probe")[0]
    wrong = dict(probes.expected[0], failing=probes.expected[0]["failing"][1:])
    assert gate.check("probe", wrong, probe_outcome)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_and_spans_nest(name, tmp_path):
    wl = _small(name)
    runs = []
    for attempt in range(2):
        out = tmp_path / str(attempt)
        out.mkdir()
        latencies, outcomes = [], []
        runs.append(worker.traced_pass(worker.Requests(_job(wl, out)), _job(wl, out),
                                       latencies, outcomes))
        assert len(outcomes) == 2 * len(wl.specs)
    assert cli.run.__module__ == "coupled_fpi.cli"  # patches were undone

    counted = [m for m, unit in tracer.LAYER_UNITS.items() if unit in ("count", "bytes")]
    assert {m: runs[0][m] for m in counted} == {m: runs[1][m] for m in counted}
    assert runs[0]["tracing.spans"] > 0

    spans = np.load(tmp_path / "1" / "spans.npz")
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert (end >= start).all()
    own = tracer.self_times(parent, (end - start).astype(np.float64))
    assert (own >= 0).all()
    child = parent >= 0
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    assert (spans["request"][child] == spans["request"][parent[child]]).all()


def test_probe_workload_bypasses_sampling_and_checks(tmp_path):
    wl = _small("probe_seeds")
    metrics = worker.traced_pass(worker.Requests(_job(wl, tmp_path)), _job(wl, tmp_path), [], [])
    for name, value in metrics.items():
        if name.startswith(("checks.", "sampling.")):
            assert value == 0, name
    assert metrics["solver.seed_failures"] == sum(len(e["failing"]) for e in wl.expected)


def test_speed_factors_scale_each_stretch_by_its_reference_speed(monkeypatch):
    monkeypatch.setattr(reference, "STRETCH_S", 1.0)
    nominal = reference.NOMINAL_S
    # Requests 0-1 and 2-3 form two stretches; chunks ran at nominal speed
    # in the first and at half speed in the second.
    factors = reference.speed_factors([0.6] * 4, [nominal, nominal, 4 * nominal, 4 * nominal],
                                      [1, 1, 2, 2])
    assert factors == pytest.approx([1.0, 1.0, 0.5, 0.5])
    # A short last stretch joins the one before it.
    factors = reference.speed_factors([0.6, 0.6, 0.1], [nominal, nominal, 4 * nominal], [1, 1, 1])
    assert factors == pytest.approx([0.5] * 3)


def test_timed_pass_interleaves_reference_chunks_outside_the_latency(tmp_path):
    wl = _small("probe_seeds")
    requests = worker.Requests(_job(wl, tmp_path, "timed"))
    latencies, ref_times, ref_counts = [], [], []
    worker.run_pass(requests, latencies, [], ref=(ref_times, ref_counts))
    assert len(ref_times) == len(ref_counts) == len(latencies) == len(wl.specs)
    assert ref_counts == [reference.chunks_for(t) for t in latencies]
    assert all(t > 0 for t in ref_times)
