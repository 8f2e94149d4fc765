"""Layer sweep of the traced run: one layer at several sizes, public calls only.

These are the numbers for retuning ``_FFT_THRESHOLD`` (fold direct vs FFT),
the pairwise Psi cost per family, and ``_CHUNK`` and the default thread count
(each simulator at 1 thread and at nproc threads).  Each workload's traced
run sweeps the layer that workload stresses; every size is timed once.
"""

from __future__ import annotations

import os
import time

from layers import fold_cells, psi_pairs

FOLD_SIZES = (1_000, 10_000, 100_000)
FOLD_Q = 3
PSI_SIZES = (5_000, 20_000)
PSI_M = 2
SIM_REPLICATES = 16_384
SIM_N = 200


def _timed(func, *args, **kwargs):
    t0 = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - t0, result


def sweep_fold(seed: int) -> dict[str, float]:
    from limitlab import WeightSequence, phi_curve

    w = WeightSequence(weight=lambda i: (1.0 + i) ** 2, label="(1+n)^2")
    out = {}
    for n in FOLD_SIZES:
        values = {}
        for method in ("direct", "fft"):
            dt, values[method] = _timed(phi_curve, w, [n], FOLD_Q, method=method)
            out[f"phi_curve.{method}.n{n}.s"] = dt
            out[f"phi_curve.{method}.n{n}.ns_per_cell"] = dt / fold_cells(n, FOLD_Q) * 1e9
        out[f"phi_curve.fft_vs_direct.n{n}.rel_err"] = float(
            abs(values["fft"][0] - values["direct"][0]) / abs(values["direct"][0]))
    return out


def sweep_pairwise(seed: int) -> dict[str, float]:
    from limitlab import OffspringSchedule, ScaleSpec, kernel_branching, kernel_power, kernel_scale, psi_curve

    families = {
        "power": lambda: kernel_power(2.0, 1.0),
        "branching": lambda: kernel_branching(OffspringSchedule.harmonic_drift(0.5)),
        "scale": lambda: kernel_scale(ScaleSpec.from_dimension(3.0, 1.0, 2.0)),
    }
    out = {}
    for family, make in families.items():
        for n in PSI_SIZES:
            dt, _ = _timed(psi_curve, make(), [n], PSI_M)
            out[f"psi_curve.{family}.n{n}.s"] = dt
            out[f"psi_curve.{family}.n{n}.ns_per_pair"] = dt / psi_pairs(n, PSI_M) * 1e9
    return out


def sweep_simulate(seed: int) -> dict[str, float]:
    from limitlab import OffspringSchedule, ScaleSpec, sim_bpve, sim_gw, sim_levelwalk

    sims = {
        "sim_bpve": lambda t: sim_bpve(OffspringSchedule.harmonic_drift(0.5), SIM_N,
                                       replicates=SIM_REPLICATES, seed=seed, threads=t),
        "sim_gw": lambda t: sim_gw(SIM_N, replicates=SIM_REPLICATES, seed=seed, threads=t),
        "sim_levelwalk": lambda t: sim_levelwalk(ScaleSpec.from_dimension(3.0, 1.0, 2.0), SIM_N,
                                                 replicates=SIM_REPLICATES, seed=seed, threads=t),
    }
    out = {}
    for threads in sorted({1, os.cpu_count() or 1}):
        for name, call in sims.items():
            dt, _ = _timed(call, threads)
            out[f"{name}.threads{threads}.ns_per_rep_gen"] = dt / (SIM_REPLICATES * SIM_N) * 1e9
    return out


SWEEPS = {"fold": sweep_fold, "pairwise": sweep_pairwise, "simulate": sweep_simulate}
