"""``uniqueness_probe`` pinned on six committed probes.

``golden/probe_seeds.json`` holds one probe per (dimension, seed count)
stratum of the benchmark's ``probe_seeds`` workload: its spec text, its
seed list, and the report the probe gave.  Each outcome is its error,
its convergence flag and its limit with ``is_diagonal``; the report adds
the clusters, the diameters and the edge violations.  Floats are written
with ``float.hex``, so the comparison is bitwise.  An output change must
be made on purpose; rewrite the outputs from the committed inputs with

    PYTHONPATH=src python tests/test_probe_golden.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from coupled_fpi import build_instance, parse_spec, solver, uniqueness_probe
from coupled_fpi.problem_spec import build_solve_config

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "probe_seeds.json"


def _hex(point) -> list[str]:
    return [float(c).hex() for c in point]


def probe_outputs(spec_text: str, seeds: list) -> dict:
    """The report of one probe, as the golden file records it."""
    spec = parse_spec(spec_text)
    instance = build_instance(spec)
    report = uniqueness_probe(instance.map, instance.space, instance.graph, seeds,
                              build_solve_config(spec))
    return {
        "outcomes": [[o.error, o.converged, None if o.point is None
                      else [_hex(o.point.x), _hex(o.point.y), o.point.is_diagonal]]
                     for o in report.outcomes],
        "clusters": [list(c) for c in report.clusters],
        "diameters": [float(d).hex() for d in report.diameters],
        "edge_violations": [[*v["seeds"], float(v["distance"]).hex()]
                            for v in report.edge_violations],
    }


def _dump(probes: list) -> str:
    """The golden text: one line per seed and per outcome, so a diff shows
    which ones moved."""
    def rows(items):
        return "[\n" + ",\n".join(json.dumps(item) for item in items) + "\n]"

    return "[\n" + ",\n".join(
        "{\n" + ",\n".join(f"{json.dumps(key)}: "
                            + (rows(value) if key in ("seeds", "outcomes") else json.dumps(value))
                            for key, value in probe.items()) + "\n}"
        for probe in probes) + "\n]\n"


def test_probes_match_golden():
    probes = json.loads(GOLDEN.read_text())
    assert len(probes) == 6
    for probe in probes:
        fresh = json.loads(json.dumps(probe_outputs(probe["spec"], probe["seeds"])))
        assert fresh == {key: probe[key] for key in fresh}


def test_probes_hand_no_seed_to_solve_coupled(monkeypatch):
    # The lockstep batch finishes every golden probe itself.  It hands a seed
    # to solve_coupled when a batched call raises, so a bug in the batch path
    # shows here, where the outcomes alone would still match.
    calls = []
    solve = solver.solve_coupled
    monkeypatch.setattr(solver, "solve_coupled",
                        lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    for probe in json.loads(GOLDEN.read_text()):
        probe_outputs(probe["spec"], probe["seeds"])
    assert calls == []


# The on_floats column calls of each golden probe when the batch advanced one
# step at a time: the seed call, one per step before the last seed stopped,
# and one at the final pairs.
_STEPWISE_CALLS = [51, 52, 52, 52, 52, 51]


@pytest.mark.parametrize("block", [1, 3, 8])
def test_probes_make_at_most_a_block_of_extra_map_calls(block, monkeypatch):
    # A block steps its rows on past their stops, so a probe makes up to
    # _STEP_BLOCK - 1 batched map calls more than a step-by-step loop.
    monkeypatch.setattr(solver, "_STEP_BLOCK", block)
    for probe, stepwise in zip(json.loads(GOLDEN.read_text()), _STEPWISE_CALLS):
        spec = parse_spec(probe["spec"])
        instance = build_instance(spec)
        calls = []
        hook = instance.map.on_floats
        instance.map.on_floats = lambda columns: calls.append(len(columns[0])) or hook(columns)
        uniqueness_probe(instance.map, instance.space, instance.graph, probe["seeds"],
                         build_solve_config(spec))
        assert stepwise <= len(calls) <= stepwise + block - 1


if __name__ == "__main__":
    probes = json.loads(GOLDEN.read_text())
    for probe in probes:
        probe.update(probe_outputs(probe["spec"], probe["seeds"]))
    GOLDEN.write_text(_dump(probes))
