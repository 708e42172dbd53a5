"""Batch front end: spec file in, trace.csv + report.json + table out.

    coupled-fpi solve problem.json --out-dir results/

Exit codes:
    0  preflight passed (or --force) and the iteration converged
    2  preflight failed and --force not given (report.json still written)
    3  input or solver error (bad file, bad spec, seed violations,
       unwritable output directory, ...)
    4  iteration ran but did not converge within max_iter (trace written)

The RNG seed for the sampled checks resolves in this order: ``--seed``
flag, ``COUPLED_FPI_SEED`` environment variable, the spec's
``sampler.rng_seed``, then 0.  Identical spec + identical seed gives
byte-identical trace.csv and report.json: floats are serialized with
shortest round-trip repr and reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .certifier import HypothesisReport, solve_instance
# preflight's report and trial iterates, under the name perfbench/tracer.py patches.
from .certifier import _preflight as preflight
from .checks import _json_safe, _point_json
from .errors import CoupledFpiError
from .problem_spec import (
    ProblemSpec,
    build_instance,
    build_sample_spec,
    build_solve_config,
    parse_spec,
)
from .solver import CoupledFixedPoint, IterationTrace
# Not used here; perfbench/tracer.py patches them under these names.
from .solver import solve_coupled, solve_coupled_multi  # noqa: F401

EXIT_OK = 0
EXIT_PREFLIGHT_FAILED = 2
EXIT_ERROR = 3
EXIT_NO_CONVERGENCE = 4

_CSV_HEADER = "n,x,y,step_x,step_y,bound,diag,edge_ok_x,edge_ok_y"


@dataclass(frozen=True)
class RunArtifacts:
    """Everything one CLI run produced."""

    report: HypothesisReport
    trace: IterationTrace | None
    result: CoupledFixedPoint | None
    exit_code: int
    error: str | None = None


_FLAG = {None: "", True: "true", False: "false"}


def trace_to_csv(trace: IterationTrace) -> str:
    """Fixed-header CSV, one row per recorded step; floats as shortest round-trip repr."""
    lines = [_CSV_HEADER]
    for s in trace.steps:
        x = ";".join(map(repr, s.x.tolist()))
        y = ";".join(map(repr, s.y.tolist()))
        lines.append(f"{s.n},{x},{y},{float(s.step_x)!r},{float(s.step_y)!r},{float(s.bound)!r},"
                     f"{float(s.diag)!r},{_FLAG[s.edge_ok_x]},{_FLAG[s.edge_ok_y]}")
    return "\n".join(lines) + "\n"


def report_document(
    report: HypothesisReport,
    trace: IterationTrace | None,
    result: CoupledFixedPoint | None,
    exit_code: int,
    forced: bool,
    error: str | None,
) -> dict:
    doc = {
        "instance_id": report.instance_id,
        "preflight": report.to_dict(),
        "forced": forced,
        "exit_code": exit_code,
        "error": error,
        "converged": None if trace is None else trace.converged,
        "iterations": None if trace is None else len(trace.steps),
        "D0": None if trace is None else _json_safe(float(trace.D0)),
        "residual": None if trace is None else _json_safe(float(trace.residual)),
        "result": None
        if result is None
        else {
            "x": _point_json(result.x),
            "y": _point_json(result.y),
            "is_diagonal": result.is_diagonal,
        },
    }
    return doc


def _write_atomic(out_dir: str, name: str, text: str) -> None:
    path = os.path.join(out_dir, name)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_report(out_dir: str, doc: dict) -> None:
    """report.json as strict JSON: a non-finite float raises, never writes NaN."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomic(out_dir, "report.json", text)


def _print_table(trace: IterationTrace, out) -> None:
    header = f"{'n':>6}  {'x':>14}  {'y':>14}  {'step_sum':>12}  {'bound':>12}  {'diag':>12}"
    print(header, file=out)
    rows = trace.steps
    shown: list = list(rows) if len(rows) <= 24 else [*rows[:20], None, *rows[-3:]]
    for s in shown:
        if s is None:
            print(f"{'...':>6}", file=out)
            continue
        x0 = float(np.asarray(s.x).reshape(-1)[0])
        y0 = float(np.asarray(s.y).reshape(-1)[0])
        more = "" if np.asarray(s.x).size == 1 else ";.."
        print(
            f"{s.n:>6}  {x0:>14.6e}{more}  {y0:>14.6e}{more}  "
            f"{s.step_x + s.step_y:>12.4e}  {2.0 * s.bound:>12.4e}  {s.diag:>12.4e}",
            file=out,
        )


def run(
    spec: ProblemSpec,
    out_dir: str,
    force: bool = False,
    seed: int | None = None,
    max_iter: int | None = None,
    quiet: bool = False,
    stdout=None,
    stderr=None,
) -> RunArtifacts:
    """Preflight, solve, and write artifacts for one parsed spec.

    Never raises on hypothesis or solver failures; the outcome is the
    returned :class:`RunArtifacts` (and the files under *out_dir*).
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    instance = build_instance(spec)
    sample = build_sample_spec(spec, seed)
    cfg = build_solve_config(spec, max_iter)
    report, known = preflight(instance, sample)
    trace = result = error = None
    if not report.passed and not force:
        exit_code = EXIT_PREFLIGHT_FAILED
    else:
        try:
            result, trace = solve_instance(instance, cfg, known=known)
        except CoupledFpiError as exc:
            exit_code, error = EXIT_ERROR, f"{type(exc).__name__}: {exc}"
        else:
            exit_code = EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE

    os.makedirs(out_dir, exist_ok=True)
    if trace is not None:
        _write_atomic(out_dir, "trace.csv", trace_to_csv(trace))
    _write_report(out_dir, report_document(report, trace, result, exit_code, force, error))
    if error is not None:
        print(f"solver error: {error}", file=stderr)
    elif not quiet and trace is None:
        print(f"preflight FAILED (theorem_applicable = none); see {out_dir}/report.json", file=stdout)
        for note in report.notes:
            print(f"  note: {note}", file=stdout)
    elif not quiet:
        print(f"instance {report.instance_id}  theorem {report.theorem_applicable}"
              f"{'  (forced)' if force and not report.passed else ''}", file=stdout)
        _print_table(trace, stdout)
        state = "converged" if trace.converged else "did NOT converge"
        print(
            f"{state} in {len(trace.steps)} step(s); residual {trace.residual:.3e}; "
            f"exit {exit_code}",
            file=stdout,
        )
    return RunArtifacts(report, trace, result, exit_code, error)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="coupled-fpi",
        description="Coupled fixed points of graph-monotone maps: solve and certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run preflight + solver on a JSON problem spec")
    solve.add_argument("spec", help="path to the problem spec (JSON)")
    solve.add_argument("--out-dir", default=".", help="directory for trace.csv and report.json")
    solve.add_argument("--force", action="store_true", help="run the solver even if preflight failed")
    solve.add_argument("--seed", type=int, default=None, help="RNG seed override for sampled checks")
    solve.add_argument("--max-iter", type=int, default=None, help="iteration cap override")
    solve.add_argument("--quiet", action="store_true", help="suppress the convergence table")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    seed = args.seed
    if seed is None:
        env = os.environ.get("COUPLED_FPI_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                print(f"COUPLED_FPI_SEED must be an integer, got {env!r}", file=sys.stderr)
                return EXIT_ERROR

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read spec file: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        spec = parse_spec(text)
    except CoupledFpiError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        artifacts = run(
            spec,
            out_dir=args.out_dir,
            force=args.force,
            seed=seed,
            max_iter=args.max_iter,
            quiet=args.quiet,
        )
    except CoupledFpiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return artifacts.exit_code


if __name__ == "__main__":
    sys.exit(main())
