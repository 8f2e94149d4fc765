"""Spans around limitlab's layers, installed from outside the package.

``install`` replaces each public layer function with a wrapper that records a
span, in every ``limitlab`` module that binds it, so calls through
``limitlab.experiments`` and calls between modules are both seen.
``Patch.undo`` restores the originals.  ``layer_metrics`` turns one traced
pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

from spans import Tracer, self_times

FOLD = ("phi", "phi_curve", "phi_fold_curves", "u_sum", "u_sum_curve")
SIMS = ("sim_bpve", "sim_gw", "sim_levelwalk")

# name -> (unit, better); the per_layer list of BENCHMARK.json matches this.
PER_LAYER = {
    "multisum.fold.calls": ("count", "lower"),
    "multisum.fold.self_s": ("s", "lower"),
    "multisum.fold.cells": ("count", "lower"),
    "multisum.fold.ns_per_cell": ("ns", "lower"),
    "multisum.psi_curve.calls": ("count", "lower"),
    "multisum.psi_curve.self_s": ("s", "lower"),
    "multisum.psi_curve.pairs": ("count", "lower"),
    "multisum.psi_curve.ns_per_pair": ("ns", "lower"),
    "kernels.cond_column.calls": ("count", "lower"),
    "kernels.cond_column.self_s": ("s", "lower"),
    "moments.count_moment_curve.calls": ("count", "lower"),
    "moments.MomentTable.build.calls": ("count", "lower"),
    **{f"simulate.{s}.{m}": (u, "lower") for s in SIMS for m, u in (("s", "s"), ("ns_per_rep_gen", "ns"))},
    "simulate.threads": ("count", "higher"),
    "simulate.chunks": ("count", "higher"),
    "simulate.sim_gw.cap_hits": ("count", "lower"),
    "special.zeta_tail.calls": ("count", "lower"),
    "special.zeta_tail.s": ("s", "lower"),
    "stats.tv_distance_integer.s": ("s", "lower"),
    "experiments.load_config.s": ("s", "lower"),
    "experiments.run.self_s": ("s", "lower"),
    "experiments.write_outputs.s": ("s", "lower"),
    "experiments.write_outputs.bytes": ("bytes", "lower"),
    "experiments.exact_max_rel_err": ("ratio", "lower"),
    "setup.import.numpy_s": ("s", "lower"),
    "setup.import.scipy_signal_s": ("s", "lower"),
    "setup.import.limitlab_self_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def fold_cells(n: int, m: int) -> int:
    """Table cells one fold builds: (n + 1) per fold, m folds."""
    return (int(n) + 1) * int(m)


def psi_pairs(n: int, m: int) -> int:
    """Kernel pairs the pairwise Psi recursion visits: sum over q = 2..m, j = q..n of j - 1."""
    n = int(n)
    return sum(n * (n - 1) // 2 - (q - 2) * (q - 1) // 2 for q in range(2, int(m) + 1))


class Patch:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Patch:
    """Wrap the layer functions of the imported ``limitlab`` modules."""
    from limitlab import experiments, kernels, moments, multisum, simulate, special, stats

    patch = Patch()
    modules = [m for name, m in list(sys.modules.items())
               if name == "limitlab" or name.startswith("limitlab.")]

    def rebind(func, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is func:
                    patch.replace(mod, attr, wrapper)

    def spanned(func, name, before=None, after=None):
        sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = before(bound.arguments)
            idx = tracer.begin(name, **attrs)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                tracer.spans[idx].attrs.update(after(result))
            return result

        return wrapper

    def aggregated(func, name):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.add(name, time.perf_counter() - t0)

        return wrapper

    def fold_before(a):
        # u_sum and u_sum_curve call the fold count k (their m is a log depth)
        m = a["k"] if "k" in a else a["m"]
        n = a["n"] if "n" in a else max(int(h) for h in a["horizons"])
        return {"n": int(n), "m": int(m)}

    for name in FOLD:
        func = getattr(multisum, name)
        rebind(func, spanned(func, f"multisum.{name}", before=fold_before))

    def psi_before(a):
        n = max(int(h) for h in a["horizons"])
        return {"n": n, "m": int(a["m"]), "pairs": psi_pairs(n, a["m"])}

    rebind(multisum.psi_curve, spanned(multisum.psi_curve, "multisum.psi_curve", before=psi_before))

    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.RhoKernel) and "cond_column" in vars(cls):
            patch.replace(cls, "cond_column", aggregated(vars(cls)["cond_column"], "kernels.cond_column"))

    rebind(moments.count_moment_curve,
           spanned(moments.count_moment_curve, "moments.count_moment_curve"))
    build = vars(moments.MomentTable)["build"]
    patch.replace(moments.MomentTable, "build",
                  classmethod(spanned(build.__func__, "moments.MomentTable.build")))

    chunk = getattr(simulate, "_CHUNK", None)

    def sim_before(a):
        reps = int(a["replicates"])
        return {"rep_gens": reps * int(a["n"]), "threads": simulate.resolve_threads(a["threads"]),
                "chunks": math.ceil(reps / chunk) if chunk else 0}

    for name in SIMS:
        func = getattr(simulate, name)
        rebind(func, spanned(func, f"simulate.{name}", before=sim_before,
                             after=lambda batch: {"cap_hits": int(batch.cap_hits)}))

    rebind(special.zeta_tail, spanned(special.zeta_tail, "special.zeta_tail"))
    rebind(stats.tv_distance_integer, spanned(stats.tv_distance_integer, "stats.tv_distance_integer"))
    for name in ("load_config", "run"):
        func = getattr(experiments, name)
        rebind(func, spanned(func, f"experiments.{name}"))
    rebind(experiments.write_outputs, spanned(
        experiments.write_outputs, "experiments.write_outputs",
        after=lambda paths: {"bytes": sum(os.path.getsize(p) for p in paths)}))
    return patch


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and aggregates."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        for key in ("pairs", "rep_gens", "chunks", "cap_hits", "bytes"):
            if key in span.attrs:
                attr_sum[span.name, key] = attr_sum.get((span.name, key), 0) + span.attrs[key]
        # the entry points that build fold tables; u_sum and u_sum_curve delegate
        if span.name in ("multisum.phi", "multisum.phi_curve", "multisum.phi_fold_curves"):
            attr_sum["fold", "cells"] = attr_sum.get(("fold", "cells"), 0) + fold_cells(
                span.attrs["n"], span.attrs["m"])

    def per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    fold_names = [f"multisum.{n}" for n in FOLD]
    fold_self = sum(self_s.get(n, 0.0) for n in fold_names)
    cells = attr_sum.get(("fold", "cells"), 0)
    psi = "multisum.psi_curve"
    pairs = attr_sum.get((psi, "pairs"), 0)
    cond = tracer.aggregates.get("kernels.cond_column")
    out = {
        "multisum.fold.calls": sum(calls.get(n, 0) for n in fold_names),
        "multisum.fold.self_s": fold_self,
        "multisum.fold.cells": cells,
        "multisum.fold.ns_per_cell": per(fold_self, cells),
        "multisum.psi_curve.calls": calls.get(psi, 0),
        "multisum.psi_curve.self_s": self_s.get(psi, 0.0),
        "multisum.psi_curve.pairs": pairs,
        # per pair with cond_column included, so a path without columns compares
        "multisum.psi_curve.ns_per_pair": per(total.get(psi, 0.0), pairs),
        "kernels.cond_column.calls": cond.calls if cond else 0,
        "kernels.cond_column.self_s": cond.total_s if cond else 0.0,
        "moments.count_moment_curve.calls": calls.get("moments.count_moment_curve", 0),
        "moments.MomentTable.build.calls": calls.get("moments.MomentTable.build", 0),
    }
    for name in SIMS:
        key = f"simulate.{name}"
        out[f"{key}.s"] = total.get(key, 0.0)
        out[f"{key}.ns_per_rep_gen"] = per(total.get(key, 0.0), attr_sum.get((key, "rep_gens"), 0))
    sim_threads = [s.attrs["threads"] for s in spans if s.name.startswith("simulate.")]
    if not sim_threads:
        from limitlab import simulate
        sim_threads = [simulate.resolve_threads()]
    out["simulate.threads"] = max(sim_threads)
    out["simulate.chunks"] = sum(attr_sum.get((f"simulate.{n}", "chunks"), 0) for n in SIMS)
    out["simulate.sim_gw.cap_hits"] = attr_sum.get(("simulate.sim_gw", "cap_hits"), 0)
    out["special.zeta_tail.calls"] = calls.get("special.zeta_tail", 0)
    out["special.zeta_tail.s"] = total.get("special.zeta_tail", 0.0)
    out["stats.tv_distance_integer.s"] = total.get("stats.tv_distance_integer", 0.0)
    out["experiments.load_config.s"] = total.get("experiments.load_config", 0.0)
    out["experiments.run.self_s"] = self_s.get("experiments.run", 0.0)
    out["experiments.write_outputs.s"] = total.get("experiments.write_outputs", 0.0)
    out["experiments.write_outputs.bytes"] = attr_sum.get(("experiments.write_outputs", "bytes"), 0)
    return out
