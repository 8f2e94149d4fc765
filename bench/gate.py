"""Exact-value reference gate.

Every value that ``limitlab`` computes exactly must reproduce the stored
reference to a relative error of ``TOLERANCE``:

- all of ``observed``, ``predicted`` and ``ratio`` for the exact experiments;
- the exact-moment ``predicted`` column of the Monte Carlo experiments, whose
  ``observed`` column is gated by the experiment's own z-score and TV checks.

FFT and direct folds agree to about 6e-13, so 1e-9 leaves room for a faster
algorithm while still catching a wrong one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOLERANCE = 1e-9
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

_EXACT = ("horizon", "observed", "predicted", "ratio")
_MONTE_CARLO = ("horizon", "predicted")


def exact_columns(report: dict) -> dict[str, list]:
    """The columns of a report that hold exact values."""
    names = report["columns"]
    keep = _EXACT if report["config"]["replicates"] is None else _MONTE_CARLO
    return {c: [row[names.index(c)] for row in report["rows"]] for c in keep}


def rel_err(value, reference) -> float:
    """|value - reference| / |reference|; absolute error against 0; inf for NaN."""
    a, b = float(value), float(reference)
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def compare(values: dict[str, list], reference: dict[str, list],
            tol: float = TOLERANCE) -> tuple[float, list[str]]:
    """Largest relative error against the reference, and a line per miss."""
    worst, misses = 0.0, []
    if set(values) != set(reference):
        return math.inf, [f"columns {sorted(values)} differ from reference {sorted(reference)}"]
    for col, ref in reference.items():
        got = values[col]
        if len(got) != len(ref):
            misses.append(f"{col}: {len(got)} rows, reference has {len(ref)}")
            worst = math.inf
            continue
        for i, (a, b) in enumerate(zip(got, ref)):
            err = rel_err(a, b)
            worst = max(worst, err)
            if not err <= tol:
                misses.append(f"{col}[{i}] = {a!r}, reference {b!r} (rel err {err:.3g})")
    return worst, misses


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())["workloads"]


def write_reference(workloads: dict, path: Path = REFERENCE_PATH) -> None:
    doc = {"tolerance": TOLERANCE, "workloads": workloads}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
