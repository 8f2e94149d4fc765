"""The benchmark's workloads: which registry experiments each one runs, and at what size.

Each workload stresses a different layer of ``limitlab`` so that a change to
one layer shows on the workload that uses it and stays flat on the others.
Sizes deviate from the registry defaults only where a default would not fit
several passes into one timed run (see README.md in this directory).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

_TO_1E5_FROM_100 = "100, 1000, 10000, 100000"
_TO_1E5_FROM_1000 = "1000, 10000, 100000"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple[tuple[str, dict], ...]  # (registry id, config overrides)
    sweep: str  # layer group that the traced run sweeps


WORKLOADS = {w.name: w for w in (
    Workload(
        "fold",
        "eight distance-kernel experiments, all at horizons up to 1e5: time goes to the FFT fold "
        "engine; psi_curve and the simulators stay idle",
        (
            ("prpd-summable", {"horizons": _TO_1E5_FROM_100}),
            ("prpd-rv", {"horizons": _TO_1E5_FROM_1000}),
            ("rzr-i", {"horizons": _TO_1E5_FROM_100}),
            ("rzr-ii", {"horizons": _TO_1E5_FROM_1000}),
            ("rzr-iii", {"horizons": _TO_1E5_FROM_1000}),
            ("rzr-iv", {"horizons": _TO_1E5_FROM_1000}),
            ("thbb-geo", {"horizons": _TO_1E5_FROM_100}),
            ("thbb-exp", {"horizons": _TO_1E5_FROM_1000}),
        ),
        sweep="fold",
    ),
    Workload(
        "pairwise",
        "thg and tha-gamma up to n = 1e4: time goes to the O(n^2) psi_curve loop over "
        "cond_column; the fold engine stays idle",
        (
            ("thg", {"horizons": "1000, 10000"}),
            ("tha-gamma", {"horizons": "1000, 10000"}),
        ),
        sweep="pairwise",
    ),
    Workload(
        "bpve",
        "thz-bpve-ii with 2 chunks of replicates: time goes to sim_bpve negative-binomial "
        "draws, which threads can split",
        (
            ("thz-bpve-ii", {"replicates": 16384, "horizons": "100, 200"}),
        ),
        sweep="simulate",
    ),
    Workload(
        "small-mc",
        "thy-gw (2e4 replicates), c3-cutsphere and c4-gbm: shrinking populations make simulate "
        "bound by Python overhead; also scale kernels and TV distance",
        (
            ("thy-gw", {"replicates": 20000, "horizons": "1000, 2000"}),
            ("c3-cutsphere", {}),
            ("c4-gbm", {}),
        ),
        sweep="simulate",
    ),
)}


def config_text(experiment: str, overrides: dict, seed: int) -> str:
    """A ``key = value`` config file for one experiment of a workload."""
    lines = [f"experiment = {experiment}", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    return "\n".join(lines) + "\n"


def plan(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """(experiment id, config text) in the order one pass runs them.

    The run seed fixes each Monte Carlo experiment's seed and the order of the
    experiments within a pass; the exact experiments take no random input.
    """
    base = (seed % 2**31) * 16
    items = [(exp, config_text(exp, overrides, base + i))
             for i, (exp, overrides) in enumerate(workload.experiments)]
    random.Random(seed).shuffle(items)
    return items
