from __future__ import annotations

import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from coupled_fpi import HypothesisReport, IterationTrace, TraceStep, parse_spec, step_bound
from coupled_fpi.cli import (
    EXIT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PREFLIGHT_FAILED,
    _print_table,
    main,
    report_document,
    run,
    trace_to_csv,
)

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
SINGLE = str(SPEC_DIR / "single_sum_fifth.json")
MULTI = str(SPEC_DIR / "multi_sum_fifth.json")
PROJECTION = str(SPEC_DIR / "single_projection_x.json")
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
CORPUS_DIR = GOLDEN_DIR / "corpus"


def read_report(out_dir):
    return json.loads((pathlib.Path(out_dir) / "report.json").read_text())


def csv_rows(out_dir):
    lines = (pathlib.Path(out_dir) / "trace.csv").read_text().splitlines()
    return lines[0], lines[1:]


def test_trace_csv_golden():
    steps = (
        TraceStep(n=0, x=np.array([0.0]), y=np.array([1.0]), step_x=0.2, step_y=0.8,
                  bound=0.5, diag=1.0, edge_ok_x=True, edge_ok_y=True),
        TraceStep(n=1, x=np.array([0.2]), y=np.array([0.2]), step_x=0.12, step_y=0.12,
                  bound=0.2, diag=0.0, edge_ok_x=None, edge_ok_y=False),
    )
    trace = IterationTrace(steps=steps, D0=1.0, converged=True, residual=1e-12)
    assert trace_to_csv(trace) == (
        "n,x,y,step_x,step_y,bound,diag,edge_ok_x,edge_ok_y\n"
        "0,0.0,1.0,0.2,0.8,0.5,1.0,true,true\n"
        "1,0.2,0.2,0.12,0.12,0.2,0.0,,false\n"
    )


def test_trace_csv_joins_coordinates_with_semicolons():
    step = TraceStep(n=0, x=np.array([1.0, 2.0]), y=np.array([3.0, 4.0]),
                     step_x=0.5, step_y=0.5, bound=1.0, diag=2.0)
    trace = IterationTrace(steps=(step,), D0=2.0, converged=False, residual=0.5)
    assert trace_to_csv(trace).splitlines()[1] == "0,1.0;2.0,3.0;4.0,0.5,0.5,1.0,2.0,,"


def test_printed_table_elides_the_middle_of_a_long_trace():
    # up to 24 steps print in full; a longer trace shows its first 20, a
    # "..." row and its last 3
    def trace(n):
        steps = tuple(TraceStep(n=i, x=np.array([0.0]), y=np.array([1.0]), step_x=0.5,
                                step_y=0.5, bound=1.0, diag=1.0) for i in range(n))
        return IterationTrace(steps=steps, D0=1.0, converged=True, residual=0.0)

    for n, ns in ((24, list(range(24))), (30, [*range(20), "...", 27, 28, 29])):
        out = io.StringIO()
        _print_table(trace(n), out)
        lines = out.getvalue().splitlines()
        assert lines[0].split() == ["n", "x", "y", "step_sum", "bound", "diag"]
        assert [line.split()[0] for line in lines[1:]] == [str(i) for i in ns]
    assert lines[21] == "   ..."


def test_report_document_without_trace():
    report = HypothesisReport(instance_id="deadbeef0000", certificates=(),
                              theorem_applicable="none", seed_edge_ok=False,
                              notes=("seed edge condition FAILED",))
    doc = report_document(report, None, None, EXIT_PREFLIGHT_FAILED, False, None)
    assert doc["exit_code"] == EXIT_PREFLIGHT_FAILED
    assert doc["converged"] is None and doc["iterations"] is None
    assert doc["D0"] is None and doc["residual"] is None and doc["result"] is None
    json.dumps(doc)


def test_solves_shipped_single_spec(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", SINGLE, "--out-dir", str(out), "--quiet"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""

    doc = read_report(out)
    assert doc["exit_code"] == EXIT_OK
    assert doc["converged"] is True
    assert doc["preflight"]["theorem_applicable"] == "thm_3_1"
    assert abs(doc["result"]["x"]) <= 1e-12 and abs(doc["result"]["y"]) <= 1e-12
    assert doc["result"]["is_diagonal"] is True

    header, rows = csv_rows(out)
    assert header == "n,x,y,step_x,step_y,bound,diag,edge_ok_x,edge_ok_y"
    assert len(rows) == doc["iterations"]
    assert rows[1].split(",")[1] == "0.2"
    k, d0 = 2.0 / 3.0, doc["D0"]
    for row in rows:
        cells = row.split(",")
        n, bound = int(cells[0]), float(cells[5])
        assert math.isclose(bound, step_bound(k, d0, n), rel_tol=1e-15)
        assert cells[7] == "true" and cells[8] == "true"  # record_edges is on


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", SINGLE, "--out-dir", str(a), "--quiet"]) == EXIT_OK
    assert main(["solve", SINGLE, "--out-dir", str(b), "--quiet"]) == EXIT_OK
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_seed_and_max_iter_overrides_keep_the_instance_id(tmp_path):
    spec = parse_spec(pathlib.Path(SINGLE).read_text())
    plain = run(spec, str(tmp_path / "plain"), quiet=True)
    overridden = run(spec, str(tmp_path / "overridden"), seed=5, max_iter=50, quiet=True)
    assert plain.report.instance_id == overridden.report.instance_id


GOLDEN_CASES = [
    (SPEC_DIR, GOLDEN_DIR, "single_sum_fifth", EXIT_OK),
    (SPEC_DIR, GOLDEN_DIR, "single_projection_x", EXIT_PREFLIGHT_FAILED),
    (SPEC_DIR, GOLDEN_DIR, "multi_sum_fifth", EXIT_OK),
] + [
    # hand-written corpus specs, kept out of specs/; each expects the exit
    # code its committed report records
    (CORPUS_DIR, CORPUS_DIR, path.stem, read_report(CORPUS_DIR / path.stem)["exit_code"])
    for path in sorted(CORPUS_DIR.glob("*.json"))
]


@pytest.mark.parametrize("spec_dir, golden_dir, stem, exit_code", GOLDEN_CASES,
                         ids=[f"{stem}-{code}" for _, _, stem, code in GOLDEN_CASES])
def test_shipped_specs_match_golden_outputs(tmp_path, spec_dir, golden_dir, stem, exit_code):
    # The committed files are the outputs of the spec under its own
    # sampler.rng_seed; any change to them must be deliberate.
    spec = parse_spec((spec_dir / f"{stem}.json").read_text())
    assert run(spec, str(tmp_path), quiet=True).exit_code == exit_code
    golden = golden_dir / stem
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_solves_shipped_multi_spec(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", MULTI, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    doc = read_report(out)
    assert doc["preflight"]["theorem_applicable"] == "thm_4_1"
    assert abs(doc["result"]["x"]) <= 1e-12
    _, rows = csv_rows(out)
    assert rows[1].split(",")[1] == "-0.2"


def test_preflight_blocks_defective_spec(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", PROJECTION, "--out-dir", str(out)])
    assert code == EXIT_PREFLIGHT_FAILED
    assert "preflight FAILED" in capsys.readouterr().out
    assert not (out / "trace.csv").exists()
    doc = read_report(out)
    assert doc["result"] is None
    bl = [c for c in doc["preflight"]["certificates"] if c["property_name"] == "BL"]
    assert bl and bl[0]["passed"] is False


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_report_is_strict_json_for_nan_map(tmp_path):
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps({
        "space": {"kind": "euclidean", "dimension": 1},
        "graph": {"kind": "order"},
        "map": {"kind": "single", "definition": "(x - x) / (x - x)"},
        "k": 0.5,
        "seed": {"x0": 0.0, "y0": 1.0},
        "sampler": {"low": -10.0, "high": 10.0, "count": 100, "rng_seed": 7},
    }))
    out = tmp_path / "run"
    assert main(["solve", str(spec), "--out-dir", str(out), "--quiet"]) == EXIT_PREFLIGHT_FAILED
    text = (out / "report.json").read_text()
    doc = json.loads(text, parse_constant=reject_constant)
    mono = doc["preflight"]["certificates"][0]
    assert mono["property_name"] == "mixed_monotone" and not mono["passed"]
    assert {mono["violations"][0]["image_from"], mono["violations"][0]["image_to"]} == {"NaN"}
    assert '"NaN"' in text


def test_report_writer_refuses_non_finite_floats(tmp_path):
    from coupled_fpi.cli import _write_report

    with pytest.raises(ValueError):
        _write_report(str(tmp_path), {"residual": float("nan")})
    assert not (tmp_path / "report.json").exists()


def test_force_runs_solver_anyway(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", PROJECTION, "--out-dir", str(out), "--force"])
    assert code == EXIT_OK
    doc = read_report(out)
    assert doc["forced"] is True
    assert doc["converged"] is True
    assert doc["result"] == {"x": 0.0, "y": 1.0, "is_diagonal": False}
    printed = capsys.readouterr().out
    assert "(forced)" in printed and "converged in" in printed


def test_max_iter_override_reports_nonconvergence(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", SINGLE, "--out-dir", str(out), "--max-iter", "3", "--quiet"])
    assert code == EXIT_NO_CONVERGENCE
    doc = read_report(out)
    assert doc["converged"] is False and doc["iterations"] == 3
    assert (out / "trace.csv").exists()


def test_invalid_spec_file_exits_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--quiet"]) == EXIT_ERROR
    assert "invalid spec" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.json"), "--quiet"]) == EXIT_ERROR
    assert "cannot read spec file" in capsys.readouterr().err


def test_unwritable_out_dir_exits_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert main(["solve", SINGLE, "--out-dir", str(taken), "--quiet"]) == EXIT_ERROR
    assert "cannot write outputs" in capsys.readouterr().err
    assert taken.read_text() == "a file, not a directory"


def test_infinite_sampler_box_exits_error(tmp_path, capsys):
    # the width 1e308 - (-1e308) overflows to inf: an input error, not a crash
    spec = json.loads(pathlib.Path(SINGLE).read_text())
    spec["sampler"].update(low=-1e308, high=1e308)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "run"), "--quiet"]) == EXIT_ERROR
    assert "invalid spec: sampler.high - sampler.low must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("definition", [
    " + ".join(f"x / {k}" for k in range(2000, 1001, -1)) + " - y / 5",
    "(" * 250 + "x + y" + ")" * 250 + " / 5",
], ids=["1000-term-chain", "250-parentheses"])
def test_too_deep_expression_exits_error(tmp_path, capsys, definition):
    # Deeper than the nesting limit: an input error with a position, not a RecursionError.
    spec = json.loads(pathlib.Path(SINGLE).read_text())
    spec["map"]["definition"] = definition
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "run"), "--quiet"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "invalid spec: map.definition: expression nests more than 100 levels deep (at position" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode", ["continuous", "property_star"])
def test_inverted_sampler_box_exits_error_in_both_modes(tmp_path, capsys, mode):
    spec = json.loads(pathlib.Path(SINGLE).read_text())
    spec["sampler"].update(low=5, high=-5)
    spec["solve"]["mode"] = mode
    path = tmp_path / "inverted.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "run"), "--quiet"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "invalid spec: sampler.low exceeds sampler.high in coordinate 0: 5.0 > -5.0" in err
    assert not (tmp_path / "run").exists()


def test_solver_error_is_reported(tmp_path, capsys):
    spec = {
        "space": {"kind": "euclidean", "dimension": 1},
        "graph": {"kind": "order"},
        "map": {"kind": "single", "definition": "(x + y) / 5"},
        "k": 2.0 / 3.0,
        "seed": {"x0": 5.0, "y0": 5.0},
        "sampler": {"count": 500, "rng_seed": 1},
    }
    path = tmp_path / "bad_seed.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    # force past the failed preflight so the solver sees the bad seed itself
    code = main(["solve", str(path), "--out-dir", str(out), "--force", "--quiet"])
    assert code == EXIT_ERROR
    assert "solver error" in capsys.readouterr().err
    doc = read_report(out)
    assert doc["error"].startswith("SeedEdgeError")
    assert not (out / "trace.csv").exists()


def test_seed_flag_overrides_spec(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", PROJECTION, "--out-dir", str(out), "--seed", "77"]) == EXIT_PREFLIGHT_FAILED
    certs = read_report(out)["preflight"]["certificates"]
    assert certs and all(c["seed"] == 77 for c in certs)


def test_env_seed_is_fallback_only(tmp_path, monkeypatch):
    out = tmp_path / "a"
    monkeypatch.setenv("COUPLED_FPI_SEED", "321")
    assert main(["solve", PROJECTION, "--out-dir", str(out), "--quiet"]) == EXIT_PREFLIGHT_FAILED
    assert all(c["seed"] == 321 for c in read_report(out)["preflight"]["certificates"])

    out2 = tmp_path / "b"
    assert main(["solve", PROJECTION, "--out-dir", str(out2), "--seed", "77", "--quiet"]) == EXIT_PREFLIGHT_FAILED
    assert all(c["seed"] == 77 for c in read_report(out2)["preflight"]["certificates"])


def test_non_integer_env_seed_exits_error(monkeypatch, capsys):
    monkeypatch.setenv("COUPLED_FPI_SEED", "lots")
    assert main(["solve", SINGLE, "--quiet"]) == EXIT_ERROR
    assert "COUPLED_FPI_SEED must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env", "spec"])
def test_negative_seed_exits_error(tmp_path, monkeypatch, capsys, source):
    spec, args = SINGLE, []
    if source == "flag":
        args = ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("COUPLED_FPI_SEED", "-2")
    else:
        doc = json.loads(pathlib.Path(SINGLE).read_text())
        doc["sampler"]["rng_seed"] = -3
        spec = str(tmp_path / "negative.json")
        pathlib.Path(spec).write_text(json.dumps(doc))
    assert main(["solve", spec, "--out-dir", str(tmp_path / "run"), "--quiet", *args]) == EXIT_ERROR
    err = capsys.readouterr().err
    if source == "spec":
        assert "invalid spec: sampler.rng_seed must be a nonnegative integer, got -3" in err
    else:
        want = -1 if source == "flag" else -2
        assert f"InvalidParameterError: rng seed must be a nonnegative integer, got {want}" in err
    assert not (tmp_path / "run").exists()  # rejected before anything is written


def test_unknown_section_field_exits_error(tmp_path, capsys):
    doc = json.loads(pathlib.Path(SINGLE).read_text())
    doc["solve"]["max_iters"] = 5
    spec = tmp_path / "misspelt.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["solve", str(spec), "--out-dir", str(out), "--quiet"]) == EXIT_ERROR
    assert "invalid spec: unknown solve field 'max_iters'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [SINGLE, PROJECTION], ids=["passes", "fails_preflight"])
def test_invalid_max_iter_exits_error_before_preflight(tmp_path, capsys, spec):
    # checked before preflight, so a spec that fails preflight exits 3 as well
    out = tmp_path / "run"
    assert main(["solve", spec, "--out-dir", str(out), "--max-iter", "0", "--quiet"]) == EXIT_ERROR
    assert "max_iter must be a positive integer, got 0" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_module_entrypoint(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "coupled_fpi.cli", "solve", SINGLE,
         "--out-dir", str(out), "--quiet"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
