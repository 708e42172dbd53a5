"""Benchmark harness for coupled-fpi: seeded workloads, a correctness gate,
end-to-end latency and set-up metrics, and a traced per-module run.

Run one workload with ``python3 perfbench/run.py --workload single_certify``;
see ``perfbench/run.py`` for the options and ``perfbench/workloads.py`` for
what each workload exercises.
"""
