"""Desk-scale experiment runner: configuration, execution, persistence.

Each experiment reproduces one limit statement with baked-in defaults,
emits a trend table (horizon, observed, predicted, ratio, stderr) and a
list of pass/fail checks with their declared tolerances.  Limits here are
asymptotic with rates as slow as iterated logarithms, so the checks are
exact-moment comparisons, Monte Carlo z-scores and trend bands rather
than tight limiting tolerances; every bound is declared in the registry.

Config files are flat key = value text, one key per line, ``#`` comments.
Reports are JSON (timestamps and wall clock live only here); tables are
RFC-4180-style CSV with 17-significant-digit floats so a reload is
bit-faithful.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import OffspringSchedule, ScaleSpec, kernel_branching, kernel_distance, kernel_power, kernel_scale
from .moments import MomentTable, geo_limit_moments
from .multisum import WeightSequence, _u_weights, phi_curve, phi_fold_curves, predict, psi_curve
from .simulate import resolve_threads, sim_bpve, sim_gw, sim_levelwalk
from .special import zeta_tail
from .stats import LimitLaw, tv_distance_integer

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "describe",
    "emit_plotdata",
    "list_experiments",
    "load_config",
    "parse_config",
    "run",
    "write_outputs",
]

COLUMNS = ("horizon", "observed", "predicted", "ratio", "stderr")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    replicates: int | None
    horizons: tuple[int, ...]
    params: dict
    out_dir: str | None = None


@dataclass(frozen=True)
class ExperimentDef:
    id: str
    summary: str
    detail: str
    seed: int
    replicates: int | None
    horizons: tuple[int, ...]
    params: dict
    runner: Callable[[ExperimentConfig], tuple[list, list]]


def _row(horizon, observed, predicted, stderr=None):
    ratio = observed / predicted if predicted != 0 else math.inf
    return [int(horizon), float(observed), float(predicted), float(ratio), stderr]


def _check(name, value, requirement, passed):
    return {"name": name, "value": float(value), "requirement": requirement,
            "passed": bool(passed)}


def _ratio_checks(horizons, ratios, tol, label="ratio"):
    """Final ratio within tol of 1 plus strictly shrinking |1 - ratio|."""
    errs = np.abs(np.asarray(ratios) - 1.0)
    out = [_check(f"{label} at n={horizons[-1]} within {tol:g} of 1", errs[-1],
                  f"<= {tol:g}", errs[-1] <= tol)]
    if len(horizons) > 1:
        out.append(_check(f"{label} error decreasing over {list(horizons)}",
                          errs[-1] - errs[0], "strictly decreasing",
                          bool(np.all(np.diff(errs) < 0))))
    return out


def _mc_moment_checks(batch, table: MomentTable, zmax=4.0):
    """Empirical mean and second moment vs exact values, per checkpoint."""
    checks = []
    rows = []
    for ci, h in enumerate(batch.checkpoints):
        c = batch.counts[:, ci].astype(float)
        se1 = c.std(ddof=1) / math.sqrt(c.size)
        ex1 = table.values[0, ci]
        rows.append(_row(h, c.mean(), ex1, se1))
        z1 = (c.mean() - ex1) / se1
        checks.append(_check(f"mean z-score at n={h}", z1, f"|z| <= {zmax:g}", abs(z1) <= zmax))
        if len(table.orders) > 1:
            c2 = c**2
            se2 = c2.std(ddof=1) / math.sqrt(c2.size)
            ex2 = table.values[1, ci]
            z2 = (c2.mean() - ex2) / se2
            checks.append(_check(f"second-moment z-score at n={h}", z2,
                                 f"|z| <= {zmax:g}", abs(z2) <= zmax))
    return rows, checks


# ---------------------------------------------------------------- runners

def _run_prpd_summable(cfg: ExperimentConfig):
    m = int(cfg.params["m"])
    zeta = zeta_tail(0, 2.0, 2).value  # sum of (1+n)^-2 over n >= 1
    pred = predict("summable", m, zeta_value=zeta)
    w = WeightSequence(weight=lambda i: (1.0 + i) ** 2, label="(1+n)^2")
    vals = phi_curve(w, cfg.horizons, m)
    rows = [_row(h, v, pred.coefficient) for h, v in zip(cfg.horizons, vals)]
    checks = _ratio_checks(cfg.horizons, [r[3] for r in rows], 0.01)
    checks.append(_check("observed nondecreasing in n", float(np.min(np.diff(vals))) if len(vals) > 1 else 0.0,
                         ">= 0", bool(np.all(np.diff(vals) >= 0))))
    return rows, checks


def _run_prpd_rv(cfg: ExperimentConfig):
    m = int(cfg.params["m"])
    w = WeightSequence(weight=lambda i: np.sqrt(i.astype(float)), label="sqrt(n)")
    pred = predict("regularly_varying", m, tau=0.5, weights=w)
    vals = phi_curve(w, cfg.horizons, m)
    obs = vals / pred.scale(cfg.horizons)
    rows = [_row(h, o, pred.coefficient) for h, o in zip(cfg.horizons, obs)]
    checks = _ratio_checks(cfg.horizons, [r[3] for r in rows], 0.10)
    return rows, checks


def _run_rzr(case: str):
    def runner(cfg: ExperimentConfig):
        m = int(cfg.params["m"])
        sigma = float(cfg.params["sigma"])
        n0 = int(cfg.params["n0"])
        k_show = int(cfg.params["k"])
        k_max = int(cfg.params.get("k_max", k_show))
        tol = {"i": 0.01, "ii": 0.15, "iii": None, "iv": 0.05}[case]
        curves = phi_fold_curves(_u_weights(m, n0, sigma), cfg.horizons, k_max)
        zeta = zeta_tail(m, sigma, n0).value if sigma > 1.0 else None
        rows, checks = [], []
        for k, vals in enumerate(curves, 1):
            pk = predict("rzr", k, m=m, sigma=sigma, zeta_value=zeta)
            predicted = pk.coefficient * pk.scale(cfg.horizons)
            ratios = vals / predicted
            if k == k_show:
                rows = [_row(h, v, p) for h, v, p in zip(cfg.horizons, vals, predicted)]
            if case == "i":
                checks.append(_check(f"k={k}: ratio at n={cfg.horizons[-1]} within 1% of 1",
                                     abs(ratios[-1] - 1.0), "<= 0.01", abs(ratios[-1] - 1.0) <= 0.01))
                checks.append(_check(f"k={k}: observed nondecreasing in n",
                                     float(np.min(np.diff(vals))) if len(vals) > 1 else 0.0,
                                     ">= 0", bool(np.all(np.diff(vals) >= 0))))
            elif case == "iii":
                checks.append(_check(f"k={k}: ratio at n={cfg.horizons[-1]} inside (0.4, 1.2)",
                                     ratios[-1], "in (0.4, 1.2)", 0.4 < ratios[-1] < 1.2))
                errs = np.abs(ratios - 1.0)
                checks.append(_check(f"k={k}: ratio error decreasing", errs[-1] - errs[0],
                                     "strictly decreasing", bool(np.all(np.diff(errs) < 0))))
            else:
                checks.extend(_ratio_checks(cfg.horizons, ratios, tol, label=f"k={k} ratio"))
        return rows, checks

    return runner


def _run_thg(cfg: ExperimentConfig):
    alpha = float(cfg.params["alpha"])
    beta = float(cfg.params["beta"])
    k = int(cfg.params["k"])
    kern = kernel_power(alpha, beta)
    pred = predict("power", k, alpha=alpha, beta=beta)
    psis = psi_curve(kern, cfg.horizons, k)[k - 1]
    predicted = pred.coefficient * pred.scale(cfg.horizons)
    rows = [_row(h, v, p) for h, v, p in zip(cfg.horizons, psis, predicted)]
    checks = _ratio_checks(cfg.horizons, [r[3] for r in rows], 0.20)
    return rows, checks


def _run_thbb_geo(cfg: ExperimentConfig):
    k_max = int(cfg.params["k_max"])
    kern = kernel_distance(lambda i: (1.0 + i) ** 2, "(1+n)^2")
    zeta = zeta_tail(0, 2.0, 2).value
    targets = geo_limit_moments(zeta, k_max)
    table = MomentTable.build(kern, cfg.horizons, k_max)
    rows = [_row(h, v, targets[0]) for h, v in zip(cfg.horizons, table.values[0])]
    checks = [_check(f"k=1 ratio at n={cfg.horizons[-1]} within 1e-3 of 1",
                     abs(rows[-1][3] - 1.0), "<= 0.001", abs(rows[-1][3] - 1.0) <= 1e-3)]
    for ki, k in enumerate(table.orders):
        vals = table.values[ki]
        below = bool(np.all(vals <= targets[ki] + 1e-9))
        checks.append(_check(f"k={k}: exact moments below the limit moment",
                             float(np.max(vals - targets[ki])), "<= 1e-9", below))
        checks.append(_check(f"k={k}: nondecreasing in n",
                             float(np.min(np.diff(vals))) if len(vals) > 1 else 0.0,
                             ">= 0", bool(np.all(np.diff(vals) >= 0))))
    return rows, checks


def _run_thbb_exp(cfg: ExperimentConfig):
    k_max = int(cfg.params["k_max"])
    kern = kernel_distance(lambda i: i + 1.0, "n+1")
    S = kern.weights.partial_sums(max(cfg.horizons))
    law = LimitLaw.exponential(1.0)
    table = MomentTable.build(kern, cfg.horizons, k_max)
    rows, checks = [], []
    for k, vals in zip(table.orders, table.values):
        target = law.moment(k)  # k! for Exp(1)
        obs = [v / S[h] ** k for h, v in zip(cfg.horizons, vals)]
        ratios = [o / target for o in obs]
        if k == k_max:
            rows = [_row(h, o, target) for h, o in zip(cfg.horizons, obs)]
        if k == 1:
            checks.append(_check("k=1: scaled mean equals 1 exactly",
                                 abs(ratios[-1] - 1.0), "<= 1e-12", abs(ratios[-1] - 1.0) <= 1e-12))
        else:
            checks.extend(_ratio_checks(cfg.horizons, ratios, 0.15, label=f"k={k} ratio"))
    return rows, checks


def _run_tha_gamma(cfg: ExperimentConfig):
    alpha = float(cfg.params["alpha"])
    beta = float(cfg.params["beta"])
    k_max = int(cfg.params["k_max"])
    kern = kernel_power(alpha, beta)
    table = MomentTable.build(kern, cfg.horizons, k_max)
    rows, checks = [], []
    for k, vals in zip(table.orders, table.values):
        pred = predict("power", k, alpha=alpha, beta=beta, moment=True)
        scale = pred.scale(cfg.horizons)
        ratios = vals / (pred.coefficient * scale)
        if k == k_max:
            rows = [_row(h, v, pred.coefficient) for h, v in zip(cfg.horizons, vals / scale)]
        checks.extend(_ratio_checks(cfg.horizons, ratios, 0.15, label=f"k={k} ratio"))
    return rows, checks


def _run_levelwalk(gbm: bool):
    def runner(cfg: ExperimentConfig):
        a, b = float(cfg.params["a"]), float(cfg.params["b"])
        if gbm:
            x0 = float(cfg.params["x0"])
            if not 0.0 < x0 < b:
                raise ValueError(f"start x0 must lie in (0, b), got {x0}")
            spec = ScaleSpec.from_gbm(float(cfg.params["mu"]), float(cfg.params["sigma"]), a, b)
        else:
            spec = ScaleSpec.from_dimension(float(cfg.params["d"]), a, b)
        n = max(cfg.horizons)
        kern = kernel_scale(spec)
        table = MomentTable.build(kern, cfg.horizons, 2)
        batch = sim_levelwalk(spec, n, replicates=cfg.replicates, seed=cfg.seed,
                              checkpoints=cfg.horizons)
        rows, checks = _mc_moment_checks(batch, table)
        scale_at = (a / b) * np.log(np.asarray(cfg.horizons, dtype=float))
        exact_ratio = table.values[0] / scale_at
        checks.append(_check(f"mean/((a/b) log n) at n={n} inside (0.5, 1.5)",
                             exact_ratio[-1], "in (0.5, 1.5)", 0.5 < exact_ratio[-1] < 1.5))
        if len(cfg.horizons) > 1:
            drift = abs(exact_ratio[-1] - 1.0) - abs(exact_ratio[0] - 1.0)
            checks.append(_check("scaled mean moves toward 1 across horizons", drift,
                                 "< 0", drift < 0))
        return rows, checks

    return runner


def _run_thy_gw(cfg: ExperimentConfig):
    level = int(cfg.params["level"])
    n = max(cfg.horizons)
    kern = kernel_distance(lambda i: (1.0 + i) ** 2, "(1+n)^2")
    table = MomentTable.build(kern, cfg.horizons, 2)
    batch = sim_gw(n, level=level, replicates=cfg.replicates, seed=cfg.seed,
                   checkpoints=cfg.horizons)
    rows, checks = _mc_moment_checks(batch, table)
    zeta = zeta_tail(0, 2.0, 2).value
    law = LimitLaw.geometric_from_mean(zeta)
    tv = tv_distance_integer(batch.counts[:, -1], law)
    checks.append(_check(f"TV distance to {law} at n={n}", tv, "<= 0.02", tv <= 0.02))
    if len(cfg.horizons) > 1:
        stab = float((batch.counts[:, -1] != batch.counts[:, 0]).mean())
        checks.append(_check(f"fraction still changing between n={cfg.horizons[0]} and n={n}",
                             stab, "<= 0.005", stab <= 0.005))
    return rows, checks


def _run_thz(family: str):
    def runner(cfg: ExperimentConfig):
        if family == "decay":
            q = float(cfg.params["decay_power"])
            sched = OffspringSchedule.from_decay(lambda t: t ** (-q), label=f"p=1/2-t^-{q}/4")
        else:
            sched = OffspringSchedule.harmonic_drift(float(cfg.params["B"]))
        n = max(cfg.horizons)
        kern = kernel_branching(sched)
        table = MomentTable.build(kern, cfg.horizons, 2)
        batch = sim_bpve(sched, n, replicates=cfg.replicates, seed=cfg.seed,
                         checkpoints=cfg.horizons)
        return _mc_moment_checks(batch, table)

    return runner


_REGISTRY: dict[str, ExperimentDef] = {}


def _register(d: ExperimentDef):
    _REGISTRY[d.id] = d


_register(ExperimentDef(
    "prpd-summable",
    "m-fold distance sum with summable weights converges to a constant",
    "Weights (1+n)^2; the gap-constrained m-fold sum tends to (pi^2/6 - 1)^m. "
    "Checks a 1% final ratio and monotone growth.",
    seed=0, replicates=None, horizons=(100, 1000, 10000), params={"m": 3},
    runner=_run_prpd_summable))
_register(ExperimentDef(
    "prpd-rv",
    "m-fold sum with sqrt weights scales like S(n)^m with Gamma-ratio constant",
    "Weights sqrt(n) (partial sums regularly varying, index 1/2); the m-fold sum "
    "over S(n)^m tends to (pi/4)^(m-1). Checks a 10% final band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000), params={"m": 2},
    runner=_run_prpd_rv))
_register(ExperimentDef(
    "rzr-i",
    "iterated-log sums with exponent > 1 converge to zeta-power constants",
    "Weights i^2 (depth 0): the k-fold sum tends to (pi^2/6)^k for k = 1..k_max. "
    "Checks 1% final ratios and monotone growth.",
    seed=0, replicates=None, horizons=(100, 1000, 10000),
    params={"m": 0, "sigma": 2.0, "n0": 1, "k": 2, "k_max": 3}, runner=_run_rzr("i")))
_register(ExperimentDef(
    "rzr-ii",
    "critical exponent: k-fold sums grow like (log n)^k",
    "Weights i (depth 0, exponent 1): the k-fold sum over (log n)^k tends to 1. "
    "Checks a 15% final band with shrinking error (log-rate limit).",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 0, "sigma": 1.0, "n0": 1, "k": 2, "k_max": 2}, runner=_run_rzr("ii")))
_register(ExperimentDef(
    "rzr-iii",
    "deep iterated-log weights: (1-sigma)^k U_n / (log_m n)^{k(1-sigma)} tends to 1",
    "Weights i*sqrt(log i) (depth 1, exponent 1/2, gap 2). The scale carries the "
    "1-sigma exponent (partial sums grow like (log_m n)^(1-sigma)/(1-sigma)). "
    "Iterated-log rates are extremely slow at desk scale, so the check is a "
    "(0.4, 1.2) band plus a strictly shrinking error across decades.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 1, "sigma": 0.5, "n0": 2, "k": 2, "k_max": 2}, runner=_run_rzr("iii")))
_register(ExperimentDef(
    "rzr-iv",
    "sub-unit exponent, depth 0: sums grow like n^(k(1-sigma)) with Beta constant",
    "Weights i^0.5: the k-fold sum over n^(k/2) tends to pi for k = 2 "
    "(Gamma-product constant). Checks a 5% final band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 0, "sigma": 0.5, "n0": 1, "k": 2, "k_max": 2}, runner=_run_rzr("iv")))
_register(ExperimentDef(
    "thg",
    "pairwise power-kernel sums grow like (log n)^k with rising-factorial constant",
    "Kernel rho(i,j) = beta j^(1-alpha)(j^alpha - i^alpha): the k-fold sum over "
    "(log n)^k tends to prod_{j<k}(j+alpha)/(k! alpha^k beta^k). 20% band + trend.",
    seed=0, replicates=None, horizons=(1000, 10000, 30000),
    params={"alpha": 2.0, "beta": 1.0, "k": 2}, runner=_run_thg))
_register(ExperimentDef(
    "thbb-geo",
    "summable distance kernel: count moments rise to geometric-law moments",
    "Kernel (1+n)^2; exact count moments approach the moments of the geometric "
    "law with mean pi^2/6 - 1 from below. Checks monotonicity, the bound, and a "
    "1e-3 final mean ratio.",
    seed=0, replicates=None, horizons=(100, 1000, 10000), params={"k_max": 3},
    runner=_run_thbb_geo))
_register(ExperimentDef(
    "thbb-exp",
    "non-summable distance kernel: scaled count moments reach exponential moments",
    "Kernel n+1 (partial sums ~ log n, index 0): E(count)^k / S(n)^k tends to k!. "
    "k=1 is exact by construction; k=2 gets a 15% band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000), params={"k_max": 2},
    runner=_run_thbb_exp))
_register(ExperimentDef(
    "tha-gamma",
    "power kernel: moments over (log n)^k reach Gamma-law moment constants",
    "Kernel alpha=2, beta=1: E(count)^k/(log n)^k tends to "
    "prod_{j<k}(j+alpha)/(alpha beta)^k (k = 1: 1, k = 2: 1.5). 15% bands with "
    "shrinking error across decades.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"alpha": 2.0, "beta": 1.0, "k_max": 2}, runner=_run_tha_gamma))
_register(ExperimentDef(
    "c3-cutsphere",
    "level walk of a transient 3-d motion: counts match exact kernel moments",
    "gamma = d-2 with d = 3, a = 1, b = 2. Empirical mean/second moment at each "
    "checkpoint within 4 standard errors of the exact kernel moments; the exact "
    "mean over (a/b) log n sits in (0.5, 1.5) and moves toward 1 (Gamma(1,1) mean).",
    seed=20240 , replicates=10000, horizons=(100, 250, 500),
    params={"d": 3.0, "a": 1.0, "b": 2.0}, runner=_run_levelwalk(gbm=False)))
_register(ExperimentDef(
    "c4-gbm",
    "level walk in scale units of exponential growth: same checks as c3-cutsphere",
    "gamma = 2 mu/sigma^2 - 1 with mu = 1, sigma = 1 (gamma = 1), start x0 inside "
    "(0, b); the start level only forces the upward passage and the count law "
    "matches the same scale kernel.",
    seed=20241, replicates=5000, horizons=(100, 250, 500),
    params={"mu": 1.0, "sigma": 1.0, "a": 1.0, "b": 2.0, "x0": 1.0},
    runner=_run_levelwalk(gbm=True)))
_register(ExperimentDef(
    "thy-gw",
    "critical geometric branching: returns to level 1 are geometric-distributed",
    "Counts generations with population 1 up to n = 5000 over 1e5 replicates. "
    "Checks TV distance <= 0.02 to the geometric law with success 6/pi^2, a 4-se "
    "mean match to the exact kernel mean, and stabilization <= 0.005 after n = 1000.",
    seed=20242, replicates=100000, horizons=(1000, 5000), params={"level": 1},
    runner=_run_thy_gw))
_register(ExperimentDef(
    "thz-bpve-i",
    "immigration branching, vanishing drift: zero counts match the kernel mean",
    "Offspring p_t = 1/2 - t^-2/4; empirical regeneration counts at each "
    "checkpoint within 4 se of the exact branching-kernel moments (limit family "
    "Exp(1) on the log n scale).",
    seed=20243, replicates=50000, horizons=(1000, 5000), params={"decay_power": 2.0},
    runner=_run_thz("decay")))
_register(ExperimentDef(
    "thz-bpve-ii",
    "immigration branching, 1/t drift: zero counts match the kernel mean",
    "Offspring p_t = 1/2 - B/(4t) with B = 0.5 (offspring mean 1 + B/t); "
    "empirical counts within 4 se of exact kernel moments (limit family "
    "Gamma(1-B, 1) on the log n scale).",
    seed=20244, replicates=50000, horizons=(1000, 5000), params={"B": 0.5},
    runner=_run_thz("drift")))


def list_experiments() -> list[tuple[str, str]]:
    return [(d.id, d.summary) for d in _REGISTRY.values()]


def describe(experiment: str) -> str:
    if experiment not in _REGISTRY:
        raise ConfigError(f"unknown experiment {experiment!r}")
    d = _REGISTRY[experiment]
    lines = [f"{d.id}: {d.summary}", "", d.detail, "", "defaults:"]
    lines.append(f"  seed = {d.seed}")
    if d.replicates is not None:
        lines.append(f"  replicates = {d.replicates}")
    lines.append(f"  horizons = {', '.join(str(h) for h in d.horizons)}")
    for k, v in d.params.items():
        lines.append(f"  {k} = {v}")
    return "\n".join(lines)


def parse_config(text: str) -> ExperimentConfig:
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = val
    if "experiment" not in data:
        raise ConfigError("config must declare an experiment")
    exp = data.pop("experiment")
    if exp not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown experiment {exp!r} (known: {known})")
    d = _REGISTRY[exp]

    def _int(key, default):
        raw = data.pop(key, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"key {key!r} must be an integer, got {raw!r}") from e

    seed = _int("seed", d.seed)
    env_seed = os.environ.get("LIMITLAB_SEED", "").strip()
    if env_seed:
        try:
            seed = int(env_seed)
        except ValueError as e:
            raise ConfigError(f"LIMITLAB_SEED must be an integer, got {env_seed!r}") from e
    try:
        resolve_threads()
    except ValueError as e:
        raise ConfigError(str(e)) from e
    replicates = _int("replicates", d.replicates)
    if replicates is not None and replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    out_dir = data.pop("out", None)
    raw_h = data.pop("horizons", None)
    if raw_h is None:
        horizons = d.horizons
    else:
        try:
            horizons = tuple(int(tok) for tok in raw_h.replace(",", " ").split())
        except ValueError as e:
            raise ConfigError(f"horizons must be integers, got {raw_h!r}") from e
    if not horizons or horizons[0] < 1 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigError(f"horizons must be strictly increasing integers >= 1, got {list(horizons)}")
    params = dict(d.params)
    for key, val in data.items():
        if key not in params:
            raise ConfigError(f"unknown key {key!r} for experiment {exp}")
        try:
            params[key] = type(params[key])(val) if not isinstance(params[key], float) else float(val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from e
    return ExperimentConfig(experiment=exp, seed=seed, replicates=replicates,
                            horizons=horizons, params=params, out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def run(config: ExperimentConfig) -> dict:
    d = _REGISTRY[config.experiment]
    t0 = time.perf_counter()
    try:
        rows, checks = d.runner(config)
    except ValueError as e:
        # parameters outside a model's domain, e.g. alpha <= 0 or a horizon past a kernel's range
        raise ConfigError(f"{config.experiment}: {e}") from e
    wall = time.perf_counter() - t0
    return {
        "experiment": config.experiment,
        "summary": d.summary,
        "config": {
            "seed": config.seed,
            "replicates": config.replicates,
            "horizons": list(config.horizons),
            "params": config.params,
        },
        "columns": list(COLUMNS),
        "rows": rows,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "wall_clock_s": wall,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _table_text(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(report["columns"])
    for row in report["rows"]:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def write_outputs(report: dict, out_dir) -> tuple[Path, Path]:
    """Write report.json and table.csv atomically; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "table.csv"
    tmp = json_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, json_path)
    tmp = csv_path.with_suffix(".csv.tmp")
    tmp.write_text(_table_text(report))
    os.replace(tmp, csv_path)
    return json_path, csv_path


def emit_plotdata(report_path, out_csv=None) -> Path:
    """Regenerate the flat CSV table from a JSON report."""
    path = Path(report_path)
    report = json.loads(path.read_text())
    target = Path(out_csv) if out_csv else path.with_name("plotdata.csv")
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(_table_text(report))
    os.replace(tmp, target)
    return target
