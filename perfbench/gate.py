"""Correctness gate: compare each request's outcome with the expected one.

An outcome is the small summary the worker sends back for one request; an
expectation comes from :mod:`perfbench.workloads`.  ``check`` returns the
list of reasons the outcome is wrong, empty when it is right.  A request
that raised is always wrong; a designed preflight refusal is right.
"""

from __future__ import annotations

import math


def _distance(space: str, p, q) -> float:
    diffs = [abs(float(a) - float(b)) for a, b in zip(p, q)]
    if space == "chebyshev":
        return max(diffs)
    return math.sqrt(sum(t * t for t in diffs))


def _pair_error(expected: dict, x, y) -> float:
    """Summed distance of (x, y) from the diagonal fixed pair."""
    fixed = expected["fixed"]
    return _distance(expected["space"], x, fixed) + _distance(expected["space"], y, fixed)


def check_certify(expected: dict, outcome: dict) -> list[str]:
    """Reasons a ``cli.run`` outcome differs from the expected one."""
    if "raised" in outcome:
        return [f"raised {outcome['raised']}"]
    errors = []
    if outcome["exit"] != expected["exit"]:
        errors.append(f"exit {outcome['exit']} != {expected['exit']}")
    if outcome["theorem"] != expected["theorem"]:
        errors.append(f"theorem {outcome['theorem']} != {expected['theorem']}")
    if expected["exit"] != 0:
        return errors
    if not outcome.get("converged"):
        errors.append("did not converge")
        return errors
    tol = expected["tol"]
    if "fixed" in expected:
        err = _pair_error(expected, outcome["x"], outcome["y"])
        if not err <= tol:
            errors.append(f"distance {err!r} from closed form exceeds tol {tol!r}")
    elif not outcome["residual"] <= tol:
        errors.append(f"residual {outcome['residual']!r} exceeds tol {tol!r}")
    return errors


def check_probe(expected: dict, outcome: dict) -> list[str]:
    """Reasons a ``uniqueness_probe`` outcome differs from the expected one."""
    if "raised" in outcome:
        return [f"raised {outcome['raised']}"]
    errors = []
    failed = [index for index, _ in outcome["failures"]]
    if failed != expected["failing"]:
        errors.append(f"seed failures at {failed} != designed {expected['failing']}")
    kinds = {kind for _, kind in outcome["failures"]}
    if kinds - {"SeedEdgeError"}:
        errors.append(f"unexpected failure kinds {sorted(kinds)}")
    if len(outcome["clusters"]) != 1:
        errors.append(f"{len(outcome['clusters'])} clusters != 1")
    if outcome["edge_violations"]:
        errors.append(f"{outcome['edge_violations']} edge violations")
    worst = max((_pair_error(expected, x, y) for x, y in outcome["points"]), default=math.inf)
    if not worst <= expected["tol"]:
        errors.append(f"distance {worst!r} from closed form exceeds tol {expected['tol']!r}")
    return errors


def check(kind: str, expected: dict, outcome: dict) -> list[str]:
    return (check_probe if kind == "probe" else check_certify)(expected, outcome)


def wrong_requests(kind: str, expected: list, outcomes: list) -> list[tuple[int, list[str]]]:
    """(request index, reasons) for every wrong outcome of a run.

    Request ``r`` is spec ``r % len(expected)``; an outcome of ``None``
    stands for the first pass's outcome of the same spec.
    """
    wrong = []
    for r, outcome in enumerate(outcomes):
        spec = r % len(expected)
        reasons = check(kind, expected[spec], outcomes[spec] if outcome is None else outcome)
        if reasons:
            wrong.append((r, reasons))
    return wrong
