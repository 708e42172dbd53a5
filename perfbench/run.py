"""coupled-fpi benchmark: certify-and-solve latency on seeded workloads.

    python3 perfbench/run.py --workload single_certify --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload is generated from ``--seed``
(see ``perfbench/workloads.py``); a fresh worker interpreter receives only
the spec texts and serves them in a closed loop (one client, each request
sent when the previous one returned) in as many whole passes as fit in
``--seconds``, and at least 100 requests.  Every outcome is checked against the outcome known by
construction, and the shipped specs the workload uses are also run through
the real ``python -m coupled_fpi solve`` command, whose exit code and
``report.json`` / ``trace.csv`` bytes must match the in-process run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh workers of spawn -> coupled_fpi imported and every spec
parsed and built), per-request latency median and 90th percentile,
requests per second, the share of correct outcomes and the worker's peak
RSS.  The shared host's speed drifts by up to 2x for tens of seconds, so
the worker runs a fixed reference kernel after each request and the
latencies (and requests per second) are reported at the reference speed:
each latency is scaled by nominal over measured kernel time in its second
of the run (``perfbench/reference.py``).  The unscaled figures are printed
next to them and kept in the run record.  ``--trace 1`` runs one untraced and one traced pass in one worker
and reports the per-layer metrics of ``perfbench/tracer.py``, including
the tracing overhead.

Human-readable lines and the environment record go to stdout; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs land under ``perfbench/_out/``.  Exit code 0 when a
result was printed, 1 when the benchmark could not run (for example when
``src/coupled_fpi`` is missing).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, ROOT)

from perfbench import gate, reference, workloads  # noqa: E402

# setup_s is the median over the main worker and this many set-up-only
# workers before it and as many after it.
SETUP_WORKERS_EACH_SIDE = 4
WORKER_TIMEOUT = 150
COMMAND_TIMEOUT = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "problem_ms_p50": "ms",
    "problem_ms_p90": "ms",
    "problems_per_s": "1/s",
    "correct_rate": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    """Environment for worker and command subprocesses.

    The library comes from this checkout's ``src``; numpy/BLAS thread pools
    are capped at one thread so the worker runs single-threaded; the CLI
    seed override is removed so the spec's own rng_seed applies.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + ROOT
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("COUPLED_FPI_SEED", None)
    return env


def run_worker(job: dict) -> tuple[dict, float]:
    """Spawn a fresh worker, send *job*, return its result and the spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker"], cwd=ROOT, env=worker_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(out), spawned


def command_checks(wl: workloads.Workload, work: str) -> list[str]:
    """Run the real CLI on each shipped spec of the workload and compare.

    The exit code must be the expected one and ``report.json`` /
    ``trace.csv`` must be byte-identical to the in-process ``cli.run``
    output for the same spec (both or neither present).
    """
    errors = []
    for index, stem in sorted(wl.shipped.items()):
        out_dir = os.path.join(OUT, "command", stem)
        shutil.rmtree(out_dir, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-m", "coupled_fpi", "solve",
             os.path.join("specs", stem + ".json"), "--out-dir", out_dir, "--quiet"],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=COMMAND_TIMEOUT,
        )
        if proc.returncode != wl.expected[index]["exit"]:
            errors.append(f"{stem}: command exit {proc.returncode} != {wl.expected[index]['exit']}")
        for name in ("report.json", "trace.csv"):
            paths = [os.path.join(out_dir, name), os.path.join(work, str(index), name)]
            blobs = [open(p, "rb").read() if os.path.exists(p) else None for p in paths]
            if blobs[0] != blobs[1]:
                errors.append(f"{stem}: {name} from the command differs from cli.run")
    return errors


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int, requests: int, worker: dict) -> dict:
    """Machine, toolchain and input record for this run."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        caches[f"L{level} {kind}"] = _read(os.path.join(index, "size")).strip()
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        head = _read(os.path.join(ROOT, ".git", head[5:])).strip() or head
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "coupled_fpi", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "worker_threads": worker["threads"],
        "commit": head or None,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "requests": requests,
    }


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """Median and 90th-percentile latency in ms, and requests per second."""
    return {
        "problem_ms_p50": statistics.median(latencies) * 1e3,
        "problem_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "problems_per_s": len(latencies) / sum(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coupled_fpi", "__init__.py")):
        print(f"benchmark needs the coupled_fpi sources under {SRC}", file=sys.stderr)
        return 1

    wl = workloads.generate(args.workload, args.seed)
    work = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    job = {"kind": wl.kind, "specs": wl.specs, "seeds": wl.seeds, "out_dir": work,
           "seconds": args.seconds, "mode": "traced" if args.trace else "timed"}

    def setup_samples(count: int) -> list[float]:
        samples = []
        for _ in range(count if not args.trace else 0):
            res, t0 = run_worker(dict(job, mode="setup"))
            samples.append(res["ready"] - t0)
        return samples

    try:
        # Set-up is sampled before and after the main worker, so the median
        # spans the run instead of one moment of the host's drifting speed.
        setup = setup_samples(SETUP_WORKERS_EACH_SIDE)
        main_result, spawned = run_worker(job)
        # Every worker sets up the same way and only the main worker also
        # serves requests, so the children's peak RSS so far is the main
        # worker's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        setup.append(main_result["ready"] - spawned)
        setup += setup_samples(SETUP_WORKERS_EACH_SIDE)
        command_errors = command_checks(wl, work)
    except (BenchmarkError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    latencies = main_result["latencies"]
    outcomes = main_result["outcomes"]
    wrong_requests = gate.wrong_requests(wl.kind, wl.expected, outcomes)
    wrong = len(wrong_requests)
    for r, reasons in wrong_requests[:10]:
        print(f"WRONG request {r} (spec {r % len(wl.specs)}): {'; '.join(reasons)}")
    for err in command_errors:
        print(f"WRONG command: {err}")

    env = environment(args.seed, len(latencies), main_result)
    print("env " + json.dumps(env, sort_keys=True))
    attempted = len(outcomes) + len(wl.shipped)
    failed = wrong + len(command_errors)

    if args.trace:
        from perfbench.tracer import LAYER_UNITS
        values = main_result["layers"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        factors = reference.speed_factors(latencies, main_result["ref_times"],
                                          main_result["ref_counts"])
        scaled = [t * f for t, f in zip(latencies, factors)]
        values = {
            "setup_s": statistics.median(setup),
            **latency_metrics(scaled),
            "correct_rate": 1.0 - wrong / len(outcomes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        p90 = values["problem_ms_p90"] / 1e3
        beyond = sum(t > p90 for t in scaled)
        raw = latency_metrics(latencies)
        print(f"requests {len(latencies)} in {main_result['passes']} passes; "
              f"p90 has {beyond} samples beyond it; error_rate {wrong / len(outcomes)!r}; "
              f"setup samples {[round(s, 4) for s in setup]}")
        print(f"host speed factor median {statistics.median(factors):.3f} "
              f"(range {min(factors):.3f}-{max(factors):.3f}); unscaled "
              + ", ".join(f"{name} {value:.4g}" for name, value in raw.items()))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")

    record = {"workload": args.workload, "trace": args.trace, "env": env, "setup_s": setup,
              "latencies_s": latencies, "ref_times_s": main_result.get("ref_times"),
              "ref_counts": main_result.get("ref_counts"), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
