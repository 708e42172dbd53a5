"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark host is a few vCPUs of a shared machine whose speed drifts:
the same request can take twice as long for tens of seconds while
neighbours are busy, which moves every latency of a 30 s run together.
The worker therefore interleaves :func:`chunk` with the requests (about
:data:`SHARE` of the run), and :func:`speed_factors` turns the chunk
times into one factor per stretch of the run: nominal chunk time over
measured chunk time.  Multiplying a latency by the factor of its stretch
gives the latency at the reference speed, :data:`NOMINAL_S` per chunk.

The kernel is the benchmark's own code and never imports coupled_fpi, so
a change to the library cannot move it.  It mixes the kinds of work the
library does per request: small numpy arrays and ufuncs, Python-level
calls and attribute access, dicts, sorting and float conversion.
"""

from __future__ import annotations

import math

import numpy as np

# Seconds one chunk typically takes on the 2-vCPU shared host it was
# tuned on (Python 3.11, numpy 2.4); the scale of the normalized latencies.
NOMINAL_S = 0.8e-3
# Reference time interleaved after a request, as a share of its latency.
SHARE = 0.15
# Requests are grouped into stretches of at least this much wall time;
# every latency of a stretch is scaled by that stretch's factor.
STRETCH_S = 1.0

_B = np.array([0.25, -0.5])


class _Step:
    __slots__ = ("k", "r")

    def __init__(self, k: int, r: float):
        self.k = k
        self.r = r


def _distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    return float(np.linalg.norm(p - q))


def chunk() -> float:
    """One fixed unit of reference work: a short coupled affine iteration."""
    x = np.array([2.0, -1.0])
    y = np.array([-3.0, 0.5])
    steps = {}
    for k in range(48):
        nx = 0.35 * x - 0.25 * y + _B
        ny = 0.35 * y - 0.25 * x + _B
        r = _distance(nx, x) + _distance(ny, y)
        steps[f"s{k}"] = _Step(k, r)
        x, y = nx, ny
    ordered = sorted(steps.values(), key=lambda s: s.r)
    return math.fsum(s.r for s in ordered) + float(np.abs(x - y).max())


def chunks_for(latency: float) -> int:
    """How many chunks to run after a request that took *latency* seconds."""
    return max(1, round(SHARE * latency / NOMINAL_S))


def speed_factors(latencies, ref_times, ref_counts) -> list[float]:
    """One factor per request: nominal over measured chunk time in its stretch.

    ``ref_times[i]`` is the wall time of the ``ref_counts[i]`` chunks run
    after request ``i``.  Consecutive requests are grouped until their
    latencies add up to :data:`STRETCH_S`; the last, short stretch joins
    the one before it.
    """
    bounds, start, elapsed = [], 0, 0.0
    for i, latency in enumerate(latencies):
        elapsed += latency
        if elapsed >= STRETCH_S:
            bounds.append((start, i + 1))
            start, elapsed = i + 1, 0.0
    if start < len(latencies):
        if bounds:
            bounds[-1] = (bounds[-1][0], len(latencies))
        else:
            bounds.append((start, len(latencies)))
    factors = []
    for lo, hi in bounds:
        per_chunk = sum(ref_times[lo:hi]) / sum(ref_counts[lo:hi])
        factors.extend([NOMINAL_S / per_chunk] * (hi - lo))
    return factors
