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

from coupled_fpi import build_instance, parse_spec, uniqueness_probe
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


if __name__ == "__main__":
    probes = json.loads(GOLDEN.read_text())
    for probe in probes:
        probe.update(probe_outputs(probe["spec"], probe["seeds"]))
    GOLDEN.write_text(_dump(probes))
