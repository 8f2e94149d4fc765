"""Desk-scale experiment runner: configuration, execution, persistence.

Each experiment reproduces one limit statement with baked-in defaults,
emits a trend table (horizon, observed, predicted, ratio, stderr) and a
list of pass/fail checks with their declared tolerances.  Limits here are
asymptotic with rates as slow as iterated logarithms, so the checks are
exact-moment comparisons, Monte Carlo z-scores and trend bands rather
than tight limiting tolerances; every bound is declared in the registry.

Every experiment is declared by one of two specs, and calling the spec with
a config runs it.  An exact experiment is an ``ExactSpec``: a model (weights
or a kernel), a quantity (Psi tables, which for weights are their multiple
sums, or count moments, of orders 1..top at every horizon), a ``Claim`` and
a policy (the checks of one order).  A Monte Carlo experiment is a
``MonteCarloSpec``: a model (the kernel or weights whose exact count moments
the counts must match), a sampler (a ``sim_*`` simulator), a claim (the
limit the policy compares with, or none) and a policy (its own checks, from
the exact moments and the counts); its runner adds one row per horizon and
the z-scores of the first two moments.  Both build the claim from the params
and never from the model, and both refuse horizons where a claim's scale is
not finite and positive, before any table or draw.  A sweep over a
theorem's range is ``dataclasses.replace`` on a config's params, for any
experiment.

A claim lives beside the experiment that declares it.  A ``Claim`` names a
scaling and gives, for each order k, the coefficient and the scale at the
horizons; order k tends to their product.  The scales are ``_log_power``
((log applied depth times to n)^(k power), the constant 1 at power 0) and
``_sum_power`` (S(n)^k, from a weight's partial sums).  A count experiment
declares its limit law once, with ``_law``: the coefficients are the law's
moments, or its moments over k! for the Psi tables, whose order k is
E binom(C, k).  The laws are Geo(zeta(2) - 1) on 1 (``thbb-geo``,
``thy-gw``), Exp(1) on S(n) (``thbb-exp``), Gamma(alpha, alpha beta) on
log n (``tha-gamma``, ``thg``) and Gamma(gamma, b/a) on log n (``c3``,
``c4``).  The multiple sums' claims hold no law: ``_constant`` (value**k,
for the summable sums), the S(n)^m scale of ``prpd-rv`` and ``_rzr_claim``
(the four (sigma, m) cases of the iterated-log sums).  ``prpd-rv`` and the
sub-unit case of ``_rzr_claim`` sum the same kind of weights, and both read
their constants from ``_dirichlet``.  ``ExactSpec`` refuses an order below 1,
or a top order above the moment tables' ``_SAFE_ORDER``, before it builds any
claim.

Checks are written with five helpers: ``_within`` (an error at most a
tolerance), ``_band`` (a value inside an interval), ``_zscore`` (a sample
mean within 4 standard errors of an exact value), ``_shrinking`` (an error
strictly decreasing across horizons) and ``_nondecreasing`` (a curve that
never falls).  The last two compare horizons, so a run with one horizon
omits them.  One check is shared: ``_poisson_contrast``, that the count is
not Poisson, ends every exact experiment whose claim holds a law and whose
curves reach order 2, and every Monte Carlo experiment.

Config files are flat key = value text, one key per line, ``#`` comments.
A run writes two files, both from one report: ``report.json`` (the rows,
the checks, the config, and the timestamp and wall clock, which live only
here) and ``table.csv`` (the rows alone, RFC-4180-style CSV with
17-significant-digit floats, so a reload is bit-faithful).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import OffspringSchedule, RhoKernel, ScaleSpec, kernel_branching, kernel_power
from .moments import _SAFE_ORDER, MomentTable
from .multisum import WeightSequence, _running_sum, _shared_weights, _u_weights, psi_curve
from .simulate import _SQUARES, _levelwalk_kernel, resolve_threads, sim_bpve, sim_gw, sim_levelwalk
from .special import _shown, zeta_tail
from .stats import LimitLaw, tv_distance_integer

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "describe",
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
    runner: ExactSpec | MonteCarloSpec


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
    """The error strictly decreases from each horizon to the next: [check], or [] for one horizon.

    An error of 0 at the first horizon cannot decrease; it must stay within
    1e-12 at every horizon instead, as an order-1 sum on its own scale does."""
    if len(errs) < 2:
        return []
    if errs[0] == 0:
        return [_check(name, np.max(errs), "<= 1e-12 at every horizon (exact at the first)", np.max(errs) <= 1e-12)]
    return [_check(name, errs[-1] - errs[0], "strictly decreasing", np.all(np.diff(errs) < 0))]


def _nondecreasing(name, vals):
    """The curve never decreases, valued by its smallest step: [check], or [] for one horizon."""
    steps = np.diff(vals)
    if not steps.size:
        return []
    return [_check(name, np.min(steps), ">= 0", np.all(steps >= 0))]


def _zscore(name, sample, exact, variance):
    """|z| <= 4 for the sample mean against the exact value, in exact standard errors.

    z = (mean - exact) / sqrt(variance / size), with the exact variance of
    one draw.  A sample with variance 0 has no z-score: its check is valued
    by the difference of the means and passes only if they are equal.

    The exact variance keeps the left tail of z near normal where the sample
    sd does not: the square of a skewed count has a studentized mean with a
    heavy left tail.  Over experiment seeds 40060-40259 at ``c4-gbm``'s
    defaults (5000 replicates, six checks a run), no check was past 4 with
    the exact variance (smallest z -2.84, largest +3.06) nor with the sample
    sd (-3.12, +2.98).  So one run fails falsely with probability under 1.5%
    (0 of 200 runs, 95% upper bound); a normal tail puts it at
    6 x 6.3e-5 = 3.8e-4, and the registry's 24 z-checks at their defaults at
    1.5e-3 per pass over every experiment.
    """
    diff = sample.mean() - exact
    if sample.min() == sample.max():
        return _check(name, diff, "sample variance is 0: mean must equal the exact value", diff == 0)
    z = diff / math.sqrt(variance / sample.size)
    return _check(name, z, "|z| <= 4", abs(z) <= 4.0)


def _positive_coefficient(claim, k: int):
    """The claim's coefficient of order k; refuses one that is 0, negative or not finite."""
    coefficient = claim.coefficient(k)
    if not (math.isfinite(coefficient) and coefficient > 0):
        raise ValueError(f"the coefficient of {claim.scaling} of order {k} is {float(coefficient):g}, not finite and positive")
    return coefficient


def _positive_scale(name, scale, horizons):
    """The scale of a claim at the horizons; refuses one that is 0, negative or not finite there."""
    bad = np.flatnonzero(~(np.isfinite(scale) & (scale > 0)))
    if bad.size:
        raise ValueError(f"the scale {name} is {scale[bad[0]]:g} at n = {horizons[bad[0]]}, not finite and positive")
    return scale


# ---------------------------------------------------------------- claims


@dataclass(frozen=True)
class Claim:
    """The limit of the curves of orders k = 1, 2, ...: order k tends to ``coefficient(k) * scale(k, n)``.

    ``scaling`` names the scale; ``scale(k, horizons)`` maps horizons n >= 1 to
    its values at order k (a float array).  A count experiment's claim holds
    its limit ``law``, whose moments are the coefficients (``_law``).
    """

    scaling: str
    coefficient: Callable[[int], float] = field(repr=False, compare=False)
    scale: Callable[[int, np.ndarray], np.ndarray] = field(repr=False, compare=False)
    law: LimitLaw | None = None


def _log_power(depth: int, power: float) -> Callable[[int, np.ndarray], np.ndarray]:
    """The scale (k, n) -> (log applied ``depth`` times to n) ** (k * power); power 0 gives the constant 1."""

    def scale(k, horizons) -> np.ndarray:
        n = np.asarray(horizons, dtype=float)
        for _ in range(depth):
            n = np.log(n)
        return n ** (k * power)

    return scale


def _sum_power(weights: WeightSequence) -> Callable[[int, np.ndarray], np.ndarray]:
    """The scale (k, n) -> S(n)^k, with S(n) = sum_{i<=n} 1/D(i) the running sum of the weights' reciprocals."""

    def scale(k, horizons) -> np.ndarray:
        hs = np.asarray(horizons, dtype=int)
        return _running_sum(weights, int(hs.max()))[hs] ** k

    return scale


def _constant(value) -> Claim:
    """Order k tends to the constant value**k."""
    return Claim("constant", lambda k: value**k, _log_power(0, 0))


def _law(law: LimitLaw, scaling: str, scale, factorial=False) -> Claim:
    """The count tends to ``law`` on ``scale``: order k tends to ``law.moment(k)`` times the scale,
    or with ``factorial`` (the Psi tables, E binom(C, k)) to ``law.moment(k) / k!`` times it."""
    return Claim(scaling, lambda k: law.moment(k) / math.factorial(k) if factorial else law.moment(k), scale, law)


def _poisson_contrast(hs, first, second, moments) -> dict:
    """The count is not Poisson: R = 2 Psi(2) / Psi(1)^2 above 1.1 at the last horizon.

    Psi(m) = E binom(C, m), so R = E C(C - 1) / (E C)^2, which is 1 for every
    Poisson law at every mean.  The paper's limits have R = 2 (geometric) and
    (alpha + 1)/alpha (Gamma(alpha, .) on a growing scale), 1.25 at the largest
    alpha = 4 of a declared sweep; the bound 1.1 was fixed from these limits
    alone, before the check first ran.  ``first`` and ``second`` are the curves of
    orders 1 and 2: Psi(1) and Psi(2), or with ``moments`` E C and E C^2,
    whence Psi(2) = (E C^2 - E C) / 2.
    """
    psi2 = (second[-1] - first[-1]) / 2 if moments else second[-1]
    ratio = 2 * psi2 / first[-1] ** 2
    return _check(f"not Poisson: 2 Psi(2)/Psi(1)^2 at n={hs[-1]} above 1.1", ratio, "> 1.1", ratio > 1.1)


# ---------------------------------------------------------------- runners


@dataclass(frozen=True)
class ExactSpec:
    """An exact experiment, declared in four parts; calling it with a config runs it.

    - ``model(params)``: the weights or kernel;
    - ``quantity``: the curves of orders 1..top, one row per order: "psi"
      (``psi_curve``, the multiple sums of weights or the Psi tables of a
      kernel) or "moments" (``MomentTable`` rows).  A name, not a function:
      the runner looks the engine up at each call, so a wrapper bound to the
      module's name (a profiler's, a test's) sees the call;
    - ``claim(params)``: the ``Claim`` of the curves.  It is built once per
      run and never from the model, so a perturbed model meets the same
      claim.  An order below 1 or a top order above ``_SAFE_ORDER`` (20) is
      refused before it is built, and a coefficient or scale that is not
      finite and positive before any table;
    - ``policy(k, horizons, observed, predicted)``: the checks of order k,
      from that order's table columns.

    ``orders(params)`` gives the orders checked, ascending, and the one the
    table shows.  The table shows the curve against coefficient * scale, or
    with ``scaled`` the curve / scale against the coefficient.  When the
    claim holds a law and the curves reach order 2, the Poisson contrast
    (``_poisson_contrast``) is the last check.
    """

    model: Callable[[dict], object]
    quantity: str
    claim: Callable[[dict], Claim]
    policy: Callable[[int, tuple, np.ndarray, np.ndarray], list]
    orders: Callable[[dict], tuple[range, int]]
    scaled: bool = False

    def __call__(self, cfg: ExperimentConfig):
        hs = cfg.horizons
        orders, shown = self.orders(cfg.params)
        if shown not in orders:
            raise ValueError(f"shown order k must lie in [1, k_max = {_shown(orders.stop - 1)}], got {_shown(shown)}")
        if orders.start < 1:
            raise ValueError(f"the order must be >= 1, got {_shown(orders.start)}")
        if orders[-1] > _SAFE_ORDER:
            raise ValueError(f"the top order k={_shown(orders[-1])} is above {_SAFE_ORDER}, the highest an exact experiment checks")
        model, claim = self.model(cfg.params), self.claim(cfg.params)
        with np.errstate(divide="ignore", invalid="ignore"):  # the refusal of a scale that is not finite speaks alone
            preds = [(_positive_coefficient(claim, k), _positive_scale(f"{claim.scaling} of order {k}", claim.scale(k, hs), hs))
                     for k in orders]
        engines = {"psi": psi_curve, "moments": lambda *a: MomentTable.build(*a).values}
        curves = engines[self.quantity](model, hs, orders[-1])
        rows, checks = [], []
        for k, (coefficient, scale) in zip(orders, preds):
            observed, predicted = curves[k - 1], coefficient * scale
            if self.scaled:
                observed, predicted = observed / scale, np.full(len(hs), coefficient)
            if k == shown:
                rows = [_row(h, o, p) for h, o, p in zip(hs, observed, predicted)]
            checks += self.policy(k, hs, observed, predicted)
        if claim.law is not None and orders[-1] >= 2:
            checks.append(_poisson_contrast(hs, curves[0], curves[1], self.quantity == "moments"))
        return rows, checks


@dataclass(frozen=True)
class MonteCarloSpec:
    """A Monte Carlo experiment, declared in four parts; calling it with a config runs it.

    - ``model(params)``: the kernel or weights whose exact count moments the
      simulated counts must match;
    - ``sample(params)``: the simulator, called as
      ``(n, replicates=, seed=, checkpoints=)``.  The registry's samplers
      name their ``sim_*`` function inside the lambda, so it is read from
      this module at each run and a wrapper bound to the module's name (a
      profiler's, a test's) sees the draws;
    - ``claim(params)``: the ``Claim`` the policy compares with, or None.
      It is never built from the model, so a perturbed model meets the same
      claim;
    - ``policy(horizons, moments, counts, claim)``: the experiment's own
      checks, from the exact moments of orders 1..4 (one row per order) and
      the counts (one column per horizon).

    The runner refuses a claim whose coefficient of order 1, or whose mean,
    coefficient times scale at order 1, is not finite and positive at the
    horizons, before any table or draw.
    It writes one row per horizon (the sample mean with its standard error,
    against the exact mean), then the z-scores of the mean and the second
    moment, each divided by its exact variance E C^(2k) - (E C^k)^2, then
    the policy's checks, then the Poisson contrast of the exact moments
    (``_poisson_contrast``).
    """

    model: Callable[[dict], object]
    sample: Callable[[dict], Callable]
    claim: Callable[[dict], Claim | None] = lambda p: None
    policy: Callable[[tuple, np.ndarray, np.ndarray, Claim | None], list] = lambda hs, moments, counts, claim: []

    def __call__(self, cfg: ExperimentConfig):
        hs, claim = cfg.horizons, self.claim(cfg.params)
        if claim is not None:
            _positive_scale(claim.scaling, _positive_coefficient(claim, 1) * claim.scale(1, hs), hs)
        table = MomentTable.build(self.model(cfg.params), hs, 4)
        batch = self.sample(cfg.params)(max(hs), replicates=cfg.replicates, seed=cfg.seed, checkpoints=hs)
        rows, checks = [], []
        m1, m2, _, m4 = table.values
        for ci, h in enumerate(batch.checkpoints):
            c = batch.counts[:, ci].astype(float)
            rows.append(_row(h, c.mean(), m1[ci], c.std(ddof=1) / math.sqrt(c.size)))
            checks += [_zscore(f"mean z-score at n={h}", c, m1[ci], m2[ci] - m1[ci] ** 2),
                       _zscore(f"second-moment z-score at n={h}", c**2, m2[ci], m4[ci] - m2[ci] ** 2)]
        return rows, checks + self.policy(hs, table.values, batch.counts, claim) + [_poisson_contrast(hs, m1, m2, True)]


def _single(key):
    """Orders: check and show the one order params[key]."""
    return lambda p: (range(p[key], p[key] + 1), p[key])


def _ratio(tol, label="k={k} ratio", monotone=False):
    """Policy: the final ratio within tol of 1 and a strictly shrinking |1 - ratio|;
    with ``monotone``, also an observed curve that never falls."""
    def policy(k, hs, observed, predicted):
        errs, name = np.abs(observed / predicted - 1.0), label.format(k=k)
        checks = [_within(f"{name} at n={hs[-1]} within {tol:g} of 1", errs[-1], tol),
                  *_shrinking(f"{name} error decreasing over {list(hs)}", errs)]
        return checks + _nondecreasing("observed nondecreasing in n", observed) if monotone else checks
    return policy


def _rzr_i_policy(k, hs, observed, predicted):
    return [_within(f"k={k}: ratio at n={hs[-1]} within 1% of 1", abs(observed[-1] / predicted[-1] - 1.0), 0.01),
            *_nondecreasing(f"k={k}: observed nondecreasing in n", observed)]


def _rzr_iii_policy(k, hs, observed, predicted):
    return [_band(f"k={k}: ratio at n={hs[-1]} inside (0.4, 1.2)", observed[-1] / predicted[-1], 0.4, 1.2),
            *_shrinking(f"k={k}: ratio error decreasing", np.abs(observed / predicted - 1.0))]


def _geo_policy(k, hs, observed, predicted):
    """Moments below their geometric limits and rising; the mean within 1e-3 of its limit."""
    checks = [_within(f"k=1 ratio at n={hs[-1]} within 1e-3 of 1", abs(observed[-1] / predicted[-1] - 1.0),
                      1e-3)] if k == 1 else []
    return checks + [_check(f"k={k}: exact moments below the limit moment", np.max(observed - predicted),
                            "<= 1e-9", np.all(observed <= predicted + 1e-9)),
                     *_nondecreasing(f"k={k}: nondecreasing in n", observed)]


def _exp_policy(k, hs, observed, predicted):
    """The scaled mean is 1 by construction; higher orders get 15% ratio checks."""
    if k == 1:
        return [_within("k=1: scaled mean equals 1 exactly", abs(observed[-1] / predicted[-1] - 1.0), 1e-12)]
    return _ratio(0.15)(k, hs, observed, predicted)


_SQRT_WEIGHTS = WeightSequence(weight=lambda i: np.sqrt(i.astype(float)), label="sqrt(n)")
_LINEAR_WEIGHTS = WeightSequence(weight=lambda i: i + 1.0, label="n+1")


def _dirichlet(sigma: float, k: int) -> float:
    """P_k = prod_{j=2}^{k} Gamma(t) Gamma(1 + (j-1) t) / Gamma(1 + j t) with t = 1 - sigma; P_1 = 1.

    For weights d^sigma with 0 <= sigma < 1 at gap 1, the k-fold sum tends
    to the Dirichlet integral Gamma(t)^k / Gamma(1 + k t) = P_k / t times
    n^(k t), and, since S(n) ~ n^t / t, to t^(k-1) P_k times S(n)^k.  The
    product telescopes to that ratio.  It is not telescoped, so that P_2 is
    Gamma(2 - sigma) Gamma(1 - sigma) / Gamma(3 - 2 sigma) from the three
    Gamma calls whose bits the registry's order-2 rows pin.
    """
    return math.prod(math.gamma(j - (j - 1) * sigma) * math.gamma(1.0 - sigma) / math.gamma(j + 1 - j * sigma)
                     for j in range(2, k + 1))


def _rzr_claim(p):
    """The iterated-log sums of depth m and exponent sigma: the four (sigma, m) cases.

    sigma > 1: the constant zeta_tail(m, sigma, n0)**k.  sigma = 1: the scale
    (log_{m+1} n)^k.  0 <= sigma < 1 and m >= 1: partial sums grow like
    (log_m n)^(1-sigma)/(1-sigma), so the scale carries the 1-sigma exponent
    (it reduces to (log_m n)^k only at sigma = 0).  0 <= sigma < 1 and m = 0:
    n^(k(1-sigma)) with the Dirichlet constant ``_dirichlet(sigma, k)``/(1-sigma).
    """
    m, sigma = p["m"], p["sigma"]
    if sigma > 1.0:
        return _constant(zeta_tail(m, sigma, p["n0"]).value)
    if sigma == 1.0:
        return Claim("(log_{m+1} n)^k", lambda k: 1.0, _log_power(m + 1, 1))
    if 0.0 <= sigma < 1.0 and m >= 1:
        scaling = "(log_m n)^k" if sigma == 0.0 else "(log_m n)^{k(1-sigma)}"
        return Claim(scaling, lambda k: (1.0 - sigma) ** (-k), _log_power(m, 1.0 - sigma))
    if 0.0 <= sigma < 1.0 and m == 0:
        return Claim("n^{k(1-sigma)}", lambda k: _dirichlet(sigma, k) / (1.0 - sigma), _log_power(0, 1.0 - sigma))
    raise ValueError(f"no supported limit for sigma={sigma}, m={m}")


def _gw_claim(p) -> Claim:
    """The geometric law with mean pi^2/6 - 1 on the constant scale 1: the limit of the returns to
    level 1 of kernel (1+n)^2."""
    return _law(LimitLaw.geometric(zeta_tail(0, 2.0, 2).value), "constant", _log_power(0, 0))


def _rzr(policy) -> ExactSpec:
    """The iterated-log sums: the four cases differ only in their policy."""
    return ExactSpec(lambda p: _u_weights(p["m"], p["n0"], p["sigma"]), "psi", _rzr_claim, policy,
                     lambda p: (range(1, p["k_max"] + 1), p["k"]))


def _power(p) -> RhoKernel:
    return kernel_power(p["alpha"], p["beta"])


def _power_gamma(p, factorial=False) -> Claim:
    """The count of the power kernel tends to Gamma(alpha, alpha beta) on the scale log n."""
    return _law(LimitLaw.gamma(p["alpha"], p["alpha"] * p["beta"]), "(log n)^k", _log_power(1, 1), factorial)


def _levelwalk(scale_spec) -> MonteCarloSpec:
    """The level walk of ``scale_spec(params)`` against the exact moments of its ``_levelwalk_kernel``.

    The claim: g_j ~ gamma c / j with c = a/b, so the count tends to
    Gamma(gamma, b/a) on log n, and its mean grows like gamma (a/b) log n.
    """
    def claim(p):
        spec = scale_spec(p)
        gamma = "" if spec.gamma == 1.0 else np.format_float_positional(spec.gamma, trim="-") + " "
        return _law(LimitLaw.gamma(spec.gamma, spec.b / spec.a), f"{gamma}(a/b) log n", _log_power(1, 1))
    return MonteCarloSpec(lambda p: _levelwalk_kernel(scale_spec(p)), lambda p: partial(sim_levelwalk, scale_spec(p)),
                          claim, _levelwalk_policy)


def _levelwalk_policy(hs, moments, counts, claim):
    """The exact mean over the claim inside (0.5, 1.5) at the last horizon, and moving toward 1."""
    ratio = moments[0] / (claim.coefficient(1) * claim.scale(1, hs))
    checks = [_band(f"mean/({claim.scaling}) at n={hs[-1]} inside (0.5, 1.5)", ratio[-1], 0.5, 1.5)]
    if len(hs) > 1:
        drift = abs(ratio[-1] - 1.0) - abs(ratio[0] - 1.0)
        checks.append(_check("scaled mean moves toward 1 across horizons", drift, "< 0", drift < 0))
    return checks


def _gbm_spec(params) -> ScaleSpec:
    if not 0.0 < params["x0"] < params["b"]:
        raise ValueError(f"start x0 must lie in (0, b), got {params['x0']}")
    return ScaleSpec.from_gbm(params["mu"], params["sigma"], params["a"], params["b"])


def _gw_policy(hs, moments, counts, claim):
    """The TV distance of the last counts to the claim's law, and few counts still changing after the first horizon."""
    law = claim.law
    checks = [_within(f"TV distance to {law} at n={hs[-1]}", tv_distance_integer(counts[:, -1], law), 0.02)]
    if len(hs) > 1:
        checks.append(_within(f"fraction still changing between n={hs[0]} and n={hs[-1]}",
                              (counts[:, -1] != counts[:, 0]).mean(), 0.005))
    return checks


def _bpve(schedule) -> MonteCarloSpec:
    """The zero generations of the immigration model with offspring ``schedule(params)``; no claim yet."""
    return MonteCarloSpec(lambda p: kernel_branching(schedule(p)), lambda p: partial(sim_bpve, schedule(p)))


_REGISTRY: dict[str, ExperimentDef] = {}


def _register(d: ExperimentDef):
    _REGISTRY[d.id] = d


_register(ExperimentDef(
    "prpd-summable",
    "m-fold distance sum with summable weights converges to a constant",
    "Weights (1+n)^2; the gap-constrained m-fold sum tends to (pi^2/6 - 1)^m. "
    "Checks a 1% final ratio and monotone growth.",
    seed=0, replicates=None, horizons=(100, 1000, 10000), params={"m": 3},
    runner=ExactSpec(lambda p: _SQUARES, "psi", lambda p: _constant(zeta_tail(0, 2.0, 2).value),
                     _ratio(0.01, "ratio", monotone=True), _single("m"))))
_register(ExperimentDef(
    "prpd-rv",
    "m-fold sum with sqrt weights scales like S(n)^m with a Dirichlet constant",
    "Weights sqrt(n) (partial sums regularly varying, index 1/2); the m-fold sum "
    "over S(n)^m tends to Gamma(1/2)^m / (2^m Gamma(1 + m/2)): pi/4, pi/6 and "
    "pi^2/32 at m = 2, 3, 4. Checks a 10% final band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000), params={"m": 2},
    runner=ExactSpec(lambda p: _SQRT_WEIGHTS, "psi",
                     lambda p: Claim("S(n)^m", lambda k: 0.5 ** (k - 1) * _dirichlet(0.5, k), _sum_power(_SQRT_WEIGHTS)),
                     _ratio(0.10, "ratio"), _single("m"), scaled=True)))
_register(ExperimentDef(
    "rzr-i",
    "iterated-log sums with exponent > 1 converge to zeta-power constants",
    "Weights i^2 (depth 0): the k-fold sum tends to (pi^2/6)^k for k = 1..k_max. "
    "Checks 1% final ratios and monotone growth.",
    seed=0, replicates=None, horizons=(100, 1000, 10000),
    params={"m": 0, "sigma": 2.0, "n0": 1, "k": 2, "k_max": 3}, runner=_rzr(_rzr_i_policy)))
_register(ExperimentDef(
    "rzr-ii",
    "critical exponent: k-fold sums grow like (log n)^k",
    "Weights i (depth 0, exponent 1): the k-fold sum over (log n)^k tends to 1. "
    "Checks a 15% final band with shrinking error (log-rate limit).",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 0, "sigma": 1.0, "n0": 1, "k": 2, "k_max": 2}, runner=_rzr(_ratio(0.15))))
_register(ExperimentDef(
    "rzr-iii",
    "deep iterated-log weights: (1-sigma)^k U_n / (log_m n)^{k(1-sigma)} tends to 1",
    "Weights i*sqrt(log i) (depth 1, exponent 1/2, gap 2). The scale carries the "
    "1-sigma exponent (partial sums grow like (log_m n)^(1-sigma)/(1-sigma)). "
    "Iterated-log rates are extremely slow at desk scale, so the check is a "
    "(0.4, 1.2) band plus a strictly shrinking error across decades.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 1, "sigma": 0.5, "n0": 2, "k": 2, "k_max": 2}, runner=_rzr(_rzr_iii_policy)))
_register(ExperimentDef(
    "rzr-iv",
    "sub-unit exponent, depth 0: sums grow like n^(k(1-sigma)) with a Dirichlet constant",
    "Weights i^0.5: the k-fold sum over n^(k/2) tends to the Dirichlet constant "
    "Gamma(1/2)^k / Gamma(1 + k/2): pi, 4 pi/3 and pi^2/2 at k = 2, 3, 4. "
    "Checks a 5% final band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"m": 0, "sigma": 0.5, "n0": 1, "k": 2, "k_max": 2}, runner=_rzr(_ratio(0.05))))
_register(ExperimentDef(
    "thg",
    "pairwise power-kernel sums grow like (log n)^k with rising-factorial constant",
    "Kernel rho(i,j) = beta j^(1-alpha)(j^alpha - i^alpha): the k-fold sum over "
    "(log n)^k tends to prod_{j<k}(j+alpha)/(k! alpha^k beta^k). 20% band + trend.",
    seed=0, replicates=None, horizons=(1000, 10000, 30000),
    params={"alpha": 2.0, "beta": 1.0, "k": 2},
    runner=ExactSpec(_power, "psi", partial(_power_gamma, factorial=True), _ratio(0.20, "ratio"), _single("k"))))
_register(ExperimentDef(
    "thbb-geo",
    "summable distance kernel: count moments rise to geometric-law moments",
    "Kernel (1+n)^2; exact count moments approach the moments of the geometric "
    "law with mean pi^2/6 - 1 from below. Checks monotonicity, the bound, and a "
    "1e-3 final mean ratio.",
    seed=0, replicates=None, horizons=(100, 1000, 10000), params={"k_max": 3},
    runner=ExactSpec(lambda p: _SQUARES, "moments", _gw_claim, _geo_policy,
                     lambda p: (range(1, p["k_max"] + 1), 1))))
_register(ExperimentDef(
    "thbb-exp",
    "non-summable distance kernel: scaled count moments reach exponential moments",
    "Kernel n+1 (partial sums ~ log n, index 0): E(count)^k / S(n)^k tends to k!. "
    "k=1 is exact by construction; k=2 gets a 15% band with shrinking error.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000), params={"k_max": 2},
    runner=ExactSpec(lambda p: _LINEAR_WEIGHTS, "moments",
                     lambda p: _law(LimitLaw.gamma(1.0, 1.0), "S(n)^m", _sum_power(_LINEAR_WEIGHTS)),
                     _exp_policy,
                     lambda p: (range(1, p["k_max"] + 1), p["k_max"]), scaled=True)))
_register(ExperimentDef(
    "tha-gamma",
    "power kernel: moments over (log n)^k reach Gamma-law moment constants",
    "Kernel alpha=2, beta=1: E(count)^k/(log n)^k tends to "
    "prod_{j<k}(j+alpha)/(alpha beta)^k (k = 1: 1, k = 2: 1.5). 15% bands with "
    "shrinking error across decades.",
    seed=0, replicates=None, horizons=(1000, 10000, 100000),
    params={"alpha": 2.0, "beta": 1.0, "k_max": 2},
    runner=ExactSpec(_power, "moments", _power_gamma, _ratio(0.15),
                     lambda p: (range(1, p["k_max"] + 1), p["k_max"]), scaled=True)))
_register(ExperimentDef(
    "c3-cutsphere",
    "level walk of a transient 3-d motion: counts match exact kernel moments",
    "gamma = d-2 with d = 3, a = 1, b = 2. Empirical mean/second moment at each "
    "checkpoint within 4 standard errors of the exact kernel moments; the exact "
    "mean over gamma (a/b) log n sits in (0.5, 1.5) and moves toward 1.",
    seed=20240 , replicates=10000, horizons=(100, 250, 500),
    params={"d": 3.0, "a": 1.0, "b": 2.0},
    runner=_levelwalk(lambda p: ScaleSpec.from_dimension(p["d"], p["a"], p["b"]))))
_register(ExperimentDef(
    "c4-gbm",
    "level walk in scale units of exponential growth: same checks as c3-cutsphere",
    "gamma = 2 mu/sigma^2 - 1 with mu = 1, sigma = 1 (gamma = 1), start x0 inside "
    "(0, b); the start level only forces the upward passage and the count law "
    "matches the same scale kernel, whose exact mean grows like gamma (a/b) log n.",
    seed=20241, replicates=5000, horizons=(100, 250, 500),
    params={"mu": 1.0, "sigma": 1.0, "a": 1.0, "b": 2.0, "x0": 1.0},
    runner=_levelwalk(_gbm_spec)))
_register(ExperimentDef(
    "thy-gw",
    "critical geometric branching: returns to level 1 are geometric-distributed",
    "Counts generations with population 1 up to n = 5000 over 1e5 replicates. "
    "Checks TV distance <= 0.02 to the geometric law with success 6/pi^2, a 4-se "
    "mean match to the exact kernel mean, and stabilization <= 0.005 after n = 1000.",
    seed=20242, replicates=100000, horizons=(1000, 5000), params={},
    runner=MonteCarloSpec(lambda p: _SQUARES, lambda p: sim_gw, _gw_claim, _gw_policy)))
_register(ExperimentDef(
    "thz-bpve-i",
    "immigration branching, vanishing drift: zero counts match the kernel mean",
    "Offspring p_t = 1/2 - t^-2/4; empirical regeneration counts at each "
    "checkpoint within 4 se of the exact branching-kernel moments (limit family "
    "Exp(1) on the log n scale).",
    seed=20243, replicates=50000, horizons=(1000, 5000), params={"decay_power": 2.0},
    runner=_bpve(lambda p: OffspringSchedule.from_decay(lambda t: t ** (-p["decay_power"]),
                                                        label=f"p=1/2-t^-{p['decay_power']}/4"))))
_register(ExperimentDef(
    "thz-bpve-ii",
    "immigration branching, 1/t drift: zero counts match the kernel mean",
    "Offspring p_t = 1/2 - B/(4t) with B = 0.5 (offspring mean 1 + B/t); "
    "empirical counts within 4 se of exact kernel moments (limit family "
    "Gamma(1-B, 1) on the log n scale).",
    seed=20244, replicates=50000, horizons=(1000, 5000), params={"B": 0.5},
    runner=_bpve(lambda p: OffspringSchedule.harmonic_drift(p["B"]))))


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
            raise ConfigError(f"line {lineno}: expected 'key = value', got {_shown(raw.strip())}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {_shown(key)}")
        data[key] = val
    if "experiment" not in data:
        raise ConfigError("config must declare an experiment")
    exp = data.pop("experiment")
    if exp not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown experiment {_shown(exp)} (known: {known})")
    d = _REGISTRY[exp]

    def _int(key, default):
        raw = data.pop(key, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"key {key!r} must be an integer, got {_shown(raw)}") from e

    seed = _int("seed", d.seed)
    if seed < 0:  # numpy's SeedSequence would refuse it only once a Monte Carlo run starts
        raise ConfigError(f"key 'seed' must be >= 0, got {_shown(seed)}")
    env_seed = os.environ.get("LIMITLAB_SEED", "").strip()
    if env_seed:
        try:
            seed = int(env_seed)
        except ValueError as e:
            raise ConfigError(f"LIMITLAB_SEED must be an integer, got {_shown(env_seed)}") from e
        if seed < 0:
            raise ConfigError(f"LIMITLAB_SEED must be >= 0, got {_shown(env_seed)}")
    try:
        resolve_threads()
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if d.replicates is None and "replicates" in data:
        raise ConfigError(f"{exp} is exact: it takes no replicates")
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
            raise ConfigError(f"horizons must be integers, got {_shown(raw_h)}") from e
    if not horizons or horizons[0] < 1 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigError(f"horizons must be strictly increasing integers >= 1, got {_shown(list(horizons))}")
    params = dict(d.params)
    for key, val in data.items():
        if key not in params:
            raise ConfigError(f"unknown key {_shown(key)} for experiment {exp}")
        try:
            params[key] = type(params[key])(val) if not isinstance(params[key], float) else float(val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {_shown(val)}") from e
        try:
            finite = math.isfinite(params[key])
        except OverflowError:  # an integer past the float range: the runners read it as a float
            finite = False
        if not finite:  # a report could not echo it: JSON has no inf or nan
            raise ConfigError(f"{key!r} must be finite, got {_shown(val)}")
    return ExperimentConfig(experiment=exp, seed=seed, replicates=replicates,
                            horizons=horizons, params=params, out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def run(config: ExperimentConfig) -> dict:
    d = _REGISTRY[config.experiment]
    t0 = time.perf_counter()
    try:
        with _shared_weights():  # each weight sequence is evaluated once per run
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
