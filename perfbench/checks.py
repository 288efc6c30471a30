"""Output checks. Each returns a list of failure messages; empty is a pass.

The tolerances are the ones the library's own solver tests use: the
objective may not fall by more than 1e-8 * (1 + |J|) from one state to the
next, and W^T W may differ from the identity by at most 1e-8.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

MONOTONE_TOL = 1e-8
ORTH_TOL = 1e-8


def check_trace(objective, w_orth_error) -> list[str]:
    failures = []
    for i in range(1, len(objective)):
        a, b = objective[i - 1], objective[i]
        if b < a - MONOTONE_TOL * (1.0 + abs(a)):
            failures.append(f"objective fell at state {i}: {a!r} -> {b!r}")
    for i, err in enumerate(w_orth_error):
        if not err <= ORTH_TOL:
            failures.append(f"w_orth_error {err!r} at state {i}")
    return failures


def check_w(w: np.ndarray) -> list[str]:
    w = np.asarray(w, dtype=np.float64)
    err = float(np.linalg.norm(w.T @ w - np.eye(w.shape[1])))
    if not err <= ORTH_TOL:
        return [f"W is not orthonormal: ||W^T W - I|| = {err!r}"]
    return []


def check_solve(result) -> list[str]:
    """Trace and final W of a `ufcm.SolverResult`."""
    tr = result.trace
    return check_trace(tr.objective, tr.w_orth_error) + check_w(result.w)


def check_floor(name: str, value: float, floor: float) -> list[str]:
    if not value >= floor:
        return [f"{name} {value!r} is below its floor {floor!r}"]
    return []


def check_cli_output(out: Path, load_record, n_rows: int) -> list[str]:
    """Records load through `load_record` and have sound traces; the summary
    has `n_rows` rows."""
    failures = []
    records = sorted(out.glob("record_gp*.json"))
    if not records:
        failures.append(f"no record_gp*.json in {out}")
    for path in records:
        try:
            record, _ = load_record(path)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            failures.append(f"{path.name} does not load: {exc!r}")
            continue
        tr = record["trace"]
        failures += [
            f"{path.name}: {f}"
            for f in check_trace(tr["objective"], tr["w_orth_error"])
        ]
    try:
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return failures + [f"summary.csv unreadable: {exc!r}"]
    if len(rows) != n_rows:
        failures.append(f"summary.csv has {len(rows)} rows, expected {n_rows}")
    return failures
