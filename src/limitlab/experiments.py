"""Desk-scale experiment runner: configuration, execution, persistence.

Each experiment reproduces one limit statement with baked-in defaults,
emits a trend table (horizon, observed, predicted, ratio, stderr) and a
list of pass/fail checks with their declared tolerances.  Limits here are
asymptotic with rates as slow as iterated logarithms, so the checks are
exact-moment comparisons, Monte Carlo z-scores and trend bands rather
than tight limiting tolerances; every bound is declared in the registry.

Runners come in two shapes.  Exact runners build multiple sums, Psi tables
or count moments at every horizon and compare them with a prediction
(``predict`` or a limit law's moments).  Monte Carlo runners go through
``_monte_carlo``: the exact first two count moments of a kernel against a
simulator's counts, as z-scores, plus each model's own checks.  Checks are
written with five helpers: ``_within`` (an error at most a tolerance),
``_band`` (a value inside an interval), ``_zscore`` (a sample mean within 4
standard errors of an exact value), ``_shrinking`` (an error strictly
decreasing across horizons) and ``_nondecreasing`` (a curve that never
falls).  The last two compare horizons, so a run with one horizon omits them.

Config files are flat key = value text, one key per line, ``#`` comments.
Reports are JSON (timestamps and wall clock live only here); tables are
RFC-4180-style CSV with 17-significant-digit floats so a reload is
bit-faithful.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import BranchingKernel, DistanceKernel, OffspringSchedule, PowerKernel, ScaleKernel, ScaleSpec
from .moments import MomentTable, geo_limit_moments
from .multisum import WeightSequence, _u_weights, phi_curve, phi_fold_curves, predict, psi_curve
from .simulate import _SQUARES, resolve_threads, sim_bpve, sim_gw, sim_levelwalk
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


def _within(name, err, tol):
    """The error is at most tol."""
    return _check(name, err, f"<= {tol:g}", err <= tol)


def _band(name, value, lo, hi):
    """The value lies strictly inside (lo, hi)."""
    return _check(name, value, f"in ({lo:g}, {hi:g})", lo < value < hi)


def _shrinking(name, errs):
    """The error strictly decreases from each horizon to the next: [check], or [] for one horizon."""
    if len(errs) < 2:
        return []
    return [_check(name, errs[-1] - errs[0], "strictly decreasing", np.all(np.diff(errs) < 0))]


def _nondecreasing(name, vals):
    """The curve never decreases, valued by its smallest step: [check], or [] for one horizon."""
    steps = np.diff(vals)
    if not steps.size:
        return []
    return [_check(name, np.min(steps), ">= 0", np.all(steps >= 0))]


def _zscore(name, sample, exact):
    """|z| <= 4 for the sample mean against the exact value.

    A sample with variance 0 has no z-score: its check is valued by the
    difference of the means and passes only if they are equal.
    """
    diff = sample.mean() - exact
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    if se == 0:
        return _check(name, diff, "sample variance is 0: mean must equal the exact value", diff == 0)
    z = diff / se
    return _check(name, z, "|z| <= 4", abs(z) <= 4.0)


def _ratio_checks(horizons, ratios, tol, label="ratio"):
    """Final ratio within tol of 1 plus strictly shrinking |1 - ratio|."""
    errs = np.abs(np.asarray(ratios) - 1.0)
    return ([_within(f"{label} at n={horizons[-1]} within {tol:g} of 1", errs[-1], tol)]
            + _shrinking(f"{label} error decreasing over {list(horizons)}", errs))


def _monte_carlo(cfg: ExperimentConfig, kernel, simulate):
    """Simulated counts against the kernel's exact order-2 moments at every horizon.

    ``simulate(n, replicates=, seed=, checkpoints=)`` draws the counts.  Returns
    (rows, checks, table, batch): one row per checkpoint (empirical mean with
    its standard error, against the exact mean), then the z-scores of the
    mean and the second moment, each required within 4.
    """
    table = MomentTable.build(kernel, cfg.horizons, 2)
    batch = simulate(max(cfg.horizons), replicates=cfg.replicates, seed=cfg.seed,
                     checkpoints=cfg.horizons)
    rows, checks = [], []
    for ci, h in enumerate(batch.checkpoints):
        c = batch.counts[:, ci].astype(float)
        rows.append(_row(h, c.mean(), table.values[0, ci], c.std(ddof=1) / math.sqrt(c.size)))
        checks += [_zscore(f"mean z-score at n={h}", c, table.values[0, ci]),
                   _zscore(f"second-moment z-score at n={h}", c**2, table.values[1, ci])]
    return rows, checks, table, batch


# ---------------------------------------------------------------- runners


def _run_prpd_summable(cfg: ExperimentConfig):
    zeta = zeta_tail(0, 2.0, 2).value  # sum of (1+n)^-2 over n >= 1
    pred = predict("summable", cfg.params["m"], zeta_value=zeta)
    vals = phi_curve(_SQUARES, cfg.horizons, cfg.params["m"])
    rows = [_row(h, v, pred.coefficient) for h, v in zip(cfg.horizons, vals)]
    checks = _ratio_checks(cfg.horizons, [r[3] for r in rows], 0.01)
    checks += _nondecreasing("observed nondecreasing in n", vals)
    return rows, checks


def _run_prpd_rv(cfg: ExperimentConfig):
    w = WeightSequence(weight=lambda i: np.sqrt(i.astype(float)), label="sqrt(n)")
    pred = predict("regularly_varying", cfg.params["m"], tau=0.5, weights=w)
    vals = phi_curve(w, cfg.horizons, cfg.params["m"])
    obs = vals / pred.scale(cfg.horizons)
    rows = [_row(h, o, pred.coefficient) for h, o in zip(cfg.horizons, obs)]
    return rows, _ratio_checks(cfg.horizons, [r[3] for r in rows], 0.10)


def _run_rzr(case: str, cfg: ExperimentConfig):
    m, sigma, n0, k_show, k_max = (cfg.params[key] for key in ("m", "sigma", "n0", "k", "k_max"))
    if not 1 <= k_show <= k_max:
        raise ValueError(f"shown order k must lie in [1, k_max = {k_max}], got {k_show}")
    curves = phi_fold_curves(_u_weights(m, n0, sigma), cfg.horizons, k_max)
    zeta = zeta_tail(m, sigma, n0).value if sigma > 1.0 else None
    n = cfg.horizons[-1]
    rows, checks = [], []
    for k, vals in enumerate(curves, 1):
        pk = predict("rzr", k, m=m, sigma=sigma, zeta_value=zeta)
        predicted = pk.coefficient * pk.scale(cfg.horizons)
        ratios = vals / predicted
        if k == k_show:
            rows = [_row(h, v, p) for h, v, p in zip(cfg.horizons, vals, predicted)]
        if case == "i":
            checks += [_within(f"k={k}: ratio at n={n} within 1% of 1", abs(ratios[-1] - 1.0), 0.01),
                       *_nondecreasing(f"k={k}: observed nondecreasing in n", vals)]
        elif case == "iii":
            checks += [_band(f"k={k}: ratio at n={n} inside (0.4, 1.2)", ratios[-1], 0.4, 1.2),
                       *_shrinking(f"k={k}: ratio error decreasing", np.abs(ratios - 1.0))]
        else:
            tol = {"ii": 0.15, "iv": 0.05}[case]
            checks += _ratio_checks(cfg.horizons, ratios, tol, label=f"k={k} ratio")
    return rows, checks


def _run_thg(cfg: ExperimentConfig):
    alpha, beta, k = cfg.params["alpha"], cfg.params["beta"], cfg.params["k"]
    psis = psi_curve(PowerKernel(alpha, beta), cfg.horizons, k)[k - 1]
    pred = predict("power", k, alpha=alpha, beta=beta)
    predicted = pred.coefficient * pred.scale(cfg.horizons)
    rows = [_row(h, v, p) for h, v, p in zip(cfg.horizons, psis, predicted)]
    return rows, _ratio_checks(cfg.horizons, [r[3] for r in rows], 0.20)


def _run_thbb_geo(cfg: ExperimentConfig):
    targets = geo_limit_moments(zeta_tail(0, 2.0, 2).value, cfg.params["k_max"])
    table = MomentTable.build(DistanceKernel(_SQUARES), cfg.horizons, cfg.params["k_max"])
    rows = [_row(h, v, targets[0]) for h, v in zip(cfg.horizons, table.values[0])]
    checks = [_within(f"k=1 ratio at n={cfg.horizons[-1]} within 1e-3 of 1", abs(rows[-1][3] - 1.0), 1e-3)]
    for k, vals, target in zip(table.orders, table.values, targets):
        checks.append(_check(f"k={k}: exact moments below the limit moment",
                             np.max(vals - target), "<= 1e-9", np.all(vals <= target + 1e-9)))
        checks += _nondecreasing(f"k={k}: nondecreasing in n", vals)
    return rows, checks


def _run_thbb_exp(cfg: ExperimentConfig):
    k_max = cfg.params["k_max"]
    kern = DistanceKernel(WeightSequence(weight=lambda i: i + 1.0, label="n+1"))
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
            checks.append(_within("k=1: scaled mean equals 1 exactly", abs(ratios[-1] - 1.0), 1e-12))
        else:
            checks.extend(_ratio_checks(cfg.horizons, ratios, 0.15, label=f"k={k} ratio"))
    return rows, checks


def _run_tha_gamma(cfg: ExperimentConfig):
    alpha, beta, k_max = cfg.params["alpha"], cfg.params["beta"], cfg.params["k_max"]
    table = MomentTable.build(PowerKernel(alpha, beta), cfg.horizons, k_max)
    rows, checks = [], []
    for k, vals in zip(table.orders, table.values):
        pred = predict("power", k, alpha=alpha, beta=beta, moment=True)
        scale = pred.scale(cfg.horizons)
        if k == k_max:
            rows = [_row(h, v, pred.coefficient) for h, v in zip(cfg.horizons, vals / scale)]
        checks.extend(_ratio_checks(cfg.horizons, vals / (pred.coefficient * scale), 0.15,
                                    label=f"k={k} ratio"))
    return rows, checks


def _dimension_spec(params) -> ScaleSpec:
    return ScaleSpec.from_dimension(params["d"], params["a"], params["b"])


def _gbm_spec(params) -> ScaleSpec:
    if not 0.0 < params["x0"] < params["b"]:
        raise ValueError(f"start x0 must lie in (0, b), got {params['x0']}")
    return ScaleSpec.from_gbm(params["mu"], params["sigma"], params["a"], params["b"])


def _run_levelwalk(scale_spec, cfg: ExperimentConfig):
    spec = scale_spec(cfg.params)
    rows, checks, table, _ = _monte_carlo(cfg, ScaleKernel(spec), partial(sim_levelwalk, spec))
    # g_j ~ gamma c / j, so the mean grows like gamma (a/b) log n
    log_n = np.log(np.asarray(cfg.horizons, dtype=float))
    exact_ratio = table.values[0] / (spec.gamma * spec.offset_ratio * log_n)
    scale = "(a/b) log n" if spec.gamma == 1.0 else f"{spec.gamma:g} (a/b) log n"
    checks.append(_band(f"mean/({scale}) at n={max(cfg.horizons)} inside (0.5, 1.5)",
                        exact_ratio[-1], 0.5, 1.5))
    if len(cfg.horizons) > 1:
        drift = abs(exact_ratio[-1] - 1.0) - abs(exact_ratio[0] - 1.0)
        checks.append(_check("scaled mean moves toward 1 across horizons", drift, "< 0", drift < 0))
    return rows, checks


def _run_thy_gw(cfg: ExperimentConfig):
    n = max(cfg.horizons)
    rows, checks, _, batch = _monte_carlo(cfg, DistanceKernel(_SQUARES), sim_gw)
    law = LimitLaw.geometric_from_mean(zeta_tail(0, 2.0, 2).value)
    tv = tv_distance_integer(batch.counts[:, -1], law)
    checks.append(_within(f"TV distance to {law} at n={n}", tv, 0.02))
    if len(cfg.horizons) > 1:
        stab = (batch.counts[:, -1] != batch.counts[:, 0]).mean()
        checks.append(_within(f"fraction still changing between n={cfg.horizons[0]} and n={n}", stab, 0.005))
    return rows, checks


def _decay_schedule(params) -> OffspringSchedule:
    q = params["decay_power"]
    return OffspringSchedule.from_decay(lambda t: t ** (-q), label=f"p=1/2-t^-{q}/4")


def _drift_schedule(params) -> OffspringSchedule:
    return OffspringSchedule.harmonic_drift(params["B"])


def _run_thz(schedule, cfg: ExperimentConfig):
    sched = schedule(cfg.params)
    return _monte_carlo(cfg, BranchingKernel(sched), partial(sim_bpve, sched))[:2]


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
    params={"m": 0, "sigma": 2.0, "n0": 1, "k": 2, "k_max": 3}, runner=partial(_run_rzr, "i")))
_register(ExperimentDef(
    "rzr-ii",
    "critical exponent: k-fold sums grow like (log n)^k",
    "Weights i (depth 0, exponent 1): the k-fold sum over (log n)^k tends to 1. "
    "Checks a 15% final band with shrinking error (log-rate limit).",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 0, "sigma": 1.0, "n0": 1, "k": 2, "k_max": 2}, runner=partial(_run_rzr, "ii")))
_register(ExperimentDef(
    "rzr-iii",
    "deep iterated-log weights: (1-sigma)^k U_n / (log_m n)^{k(1-sigma)} tends to 1",
    "Weights i*sqrt(log i) (depth 1, exponent 1/2, gap 2). The scale carries the "
    "1-sigma exponent (partial sums grow like (log_m n)^(1-sigma)/(1-sigma)). "
    "Iterated-log rates are extremely slow at desk scale, so the check is a "
    "(0.4, 1.2) band plus a strictly shrinking error across decades.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 1, "sigma": 0.5, "n0": 2, "k": 2, "k_max": 2}, runner=partial(_run_rzr, "iii")))
_register(ExperimentDef(
    "rzr-iv",
    "sub-unit exponent, depth 0: sums grow like n^(k(1-sigma)) with Beta constant",
    "Weights i^0.5: the k-fold sum over n^(k/2) tends to pi for k = 2 "
    "(Gamma-product constant). Checks a 5% final band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 0, "sigma": 0.5, "n0": 1, "k": 2, "k_max": 2}, runner=partial(_run_rzr, "iv")))
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
    "mean over gamma (a/b) log n sits in (0.5, 1.5) and moves toward 1.",
    seed=20240 , replicates=10000, horizons=(100, 250, 500),
    params={"d": 3.0, "a": 1.0, "b": 2.0}, runner=partial(_run_levelwalk, _dimension_spec)))
_register(ExperimentDef(
    "c4-gbm",
    "level walk in scale units of exponential growth: same checks as c3-cutsphere",
    "gamma = 2 mu/sigma^2 - 1 with mu = 1, sigma = 1 (gamma = 1), start x0 inside "
    "(0, b); the start level only forces the upward passage and the count law "
    "matches the same scale kernel, whose exact mean grows like gamma (a/b) log n.",
    seed=20241, replicates=5000, horizons=(100, 250, 500),
    params={"mu": 1.0, "sigma": 1.0, "a": 1.0, "b": 2.0, "x0": 1.0},
    runner=partial(_run_levelwalk, _gbm_spec)))
_register(ExperimentDef(
    "thy-gw",
    "critical geometric branching: returns to level 1 are geometric-distributed",
    "Counts generations with population 1 up to n = 5000 over 1e5 replicates. "
    "Checks TV distance <= 0.02 to the geometric law with success 6/pi^2, a 4-se "
    "mean match to the exact kernel mean, and stabilization <= 0.005 after n = 1000.",
    seed=20242, replicates=100000, horizons=(1000, 5000), params={},
    runner=_run_thy_gw))
_register(ExperimentDef(
    "thz-bpve-i",
    "immigration branching, vanishing drift: zero counts match the kernel mean",
    "Offspring p_t = 1/2 - t^-2/4; empirical regeneration counts at each "
    "checkpoint within 4 se of the exact branching-kernel moments (limit family "
    "Exp(1) on the log n scale).",
    seed=20243, replicates=50000, horizons=(1000, 5000), params={"decay_power": 2.0},
    runner=partial(_run_thz, _decay_schedule)))
_register(ExperimentDef(
    "thz-bpve-ii",
    "immigration branching, 1/t drift: zero counts match the kernel mean",
    "Offspring p_t = 1/2 - B/(4t) with B = 0.5 (offspring mean 1 + B/t); "
    "empirical counts within 4 se of exact kernel moments (limit family "
    "Gamma(1-B, 1) on the log n scale).",
    seed=20244, replicates=50000, horizons=(1000, 5000), params={"B": 0.5},
    runner=partial(_run_thz, _drift_schedule)))


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
    if replicates is not None and replicates < 2:
        # a standard error needs two replicates
        raise ConfigError(f"replicates must be >= 2, got {replicates}")
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
    except (ValueError, OverflowError) as e:
        # parameters outside a model's domain, e.g. alpha <= 0 or a horizon past a kernel's range,
        # or sizes past a closed form's floating-point range
        raise ConfigError(f"{config.experiment}: {e}") from e
    except MemoryError as e:  # e.g. replicates = 1e13: numpy refuses the counts array at once
        sizes = f"horizons up to {config.horizons[-1]}"
        if config.replicates is not None:
            sizes = f"replicates = {config.replicates} at {sizes}"
        raise ConfigError(f"{config.experiment}: {sizes} need more memory than can be allocated ({e})") from e
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


def _write_atomically(path: Path, text: str) -> None:
    """Write text to path through a temporary file, which no failure leaves behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_outputs(report: dict, out_dir) -> tuple[Path, Path]:
    """Write report.json and table.csv atomically; returns their paths.

    A NaN or infinite value raises ValueError before anything is written:
    JSON has no spelling for it.
    """
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "table.csv"
    _write_atomically(json_path, text)
    _write_atomically(csv_path, _table_text(report))
    return json_path, csv_path


def emit_plotdata(report_path, out_csv=None) -> Path:
    """Regenerate the flat CSV table from a JSON report."""
    path = Path(report_path)
    report = json.loads(path.read_text())
    if not isinstance(report, dict) or not {"columns", "rows"} <= report.keys():
        raise ConfigError(f"{path} is not a limitlab report: it has no 'columns' and 'rows'")
    target = Path(out_csv) if out_csv else path.with_name("plotdata.csv")
    _write_atomically(target, _table_text(report))
    return target
