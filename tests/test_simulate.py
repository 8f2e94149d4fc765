"""Seeded tests of the three simulators: counts that do not depend on the
thread count, and moments within four standard errors of the exact kernel
moments.  The step-by-step level-walk oracle is held to the same standard.
Both samplers behind ``_sim_chain`` are checked against the exact law of the
count (``oracles.count_pmf``): the Cauchy-chain scan of ``sim_bpve`` and
``sim_levelwalk`` on five kernels, and the renewal sampler of ``sim_gw`` on
three distance kernels, (1+n)^2 among them; so are the two literal chains
the scan replaces.  The renewal sampler is checked twice more for ``sim_gw``:
its first-return law against exact rational arithmetic on the offspring
generating function, and its counts against the generation-by-generation
chain."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitlab.experiments import ConfigError, parse_config, run
from limitlab.kernels import (DistanceKernel, OffspringSchedule, PowerKernel, RhoKernel, ScaleSpec,
                              kernel_branching, kernel_distance, kernel_scale)
from limitlab.moments import MomentTable
from limitlab.multisum import WeightSequence
from limitlab.simulate import (_CHUNK, _SQUARES, _cauchy_chain_worker, _first_return_law, _run_chunked,
                               _sim_chain, resolve_threads, sim_bpve, sim_gw, sim_levelwalk)

from oracles import bpve_generations, count_pmf, gw_generations, levelwalk_steps, tv_to_pmf

SPEC = ScaleSpec.from_dimension(3.0, 1.0, 2.0)
SCHEDULE = OffspringSchedule.harmonic_drift(0.5)
# simulator and the kernel whose exact moments its counts follow
MODELS = {
    "gw": (sim_gw, lambda: kernel_distance(lambda i: (1.0 + i) ** 2)),
    "bpve": (lambda **kw: sim_bpve(SCHEDULE, **kw), lambda: kernel_branching(SCHEDULE)),
    "levelwalk": (lambda **kw: sim_levelwalk(SPEC, **kw), lambda: kernel_scale(SPEC)),
}
CHECKPOINTS = (10, 25, 50)


def zscore(sample, exact):
    return (sample.mean() - exact) / (sample.std(ddof=1) / math.sqrt(sample.size))


@pytest.mark.parametrize("model", list(MODELS))
def test_counts_do_not_depend_on_thread_count(model):
    sim, _ = MODELS[model]
    kw = dict(n=50, replicates=2 * _CHUNK + 1, seed=3, checkpoints=CHECKPOINTS)
    one, two = sim(threads=1, **kw), sim(threads=2, **kw)
    assert one.counts.shape == (2 * _CHUNK + 1, len(CHECKPOINTS))
    assert np.array_equal(one.counts, two.counts)


@pytest.mark.parametrize("model", list(MODELS))
def test_moments_match_the_exact_table(model):
    sim, kernel = MODELS[model]
    batch = sim(n=50, replicates=20_000, seed=11, checkpoints=CHECKPOINTS)
    table = MomentTable.build(kernel(), CHECKPOINTS, 2)
    for ci in range(len(CHECKPOINTS)):
        c = batch.counts[:, ci].astype(float)
        assert abs(zscore(c, table.values[0, ci])) <= 4.0
        assert abs(zscore(c**2, table.values[1, ci])) <= 4.0


@pytest.mark.parametrize("x0", [None, 1.0])
def test_steps_oracle_matches_the_exact_mean(x0):
    n = 10
    counts = levelwalk_steps(SPEC, n, replicates=2000, seed=5, x0=x0)
    exact = MomentTable.build(kernel_scale(SPEC), range(1, n + 1), 1).values[0]
    for k in range(n):
        assert abs(zscore(counts[:, k].astype(float), exact[k])) <= 4.0
        # about 3x the expected TV distance of 2000 exact draws (at most 0.023 here)
        assert tv_to_pmf(counts[:, k], count_pmf(kernel_scale(SPEC), k + 1)) <= 0.07


DECAY = OffspringSchedule.from_decay(lambda t: t**-2.0)
# Cauchy-chain simulator and the kernel whose chain it draws
CHAIN_CASES = {
    "bpve-drift": (lambda **kw: sim_bpve(SCHEDULE, **kw), lambda: kernel_branching(SCHEDULE)),
    "bpve-decay": (lambda **kw: sim_bpve(DECAY, **kw), lambda: kernel_branching(DECAY)),
    **{f"levelwalk-gamma{g}": (
        lambda g=g, **kw: sim_levelwalk(ScaleSpec(g, 1.0, 2.0), **kw),
        lambda g=g: kernel_scale(ScaleSpec(g, 1.0, 2.0)),
    ) for g in (0.5, 1.0, 3.0)},
}


def _renewal_case(weight, label, gap=1):
    def kernel():
        return DistanceKernel(WeightSequence(weight=weight, gap=gap, label=label))

    def sim(n, replicates, seed, checkpoints):
        return _sim_chain(kernel(), n, replicates, seed, checkpoints, None)

    return sim, kernel


# distance kernels, drawn by the renewal sampler; n+1 has a first-return law summing toward 1
RENEWAL_CASES = {
    "renewal-squares": (sim_gw, lambda: DistanceKernel(_SQUARES)),
    "renewal-linear": _renewal_case(lambda i: i + 1.0, "n+1"),
    "renewal-power1.5-gap2": _renewal_case(lambda i: (1.0 + i) ** 1.5, "(1+n)^1.5", gap=2),
}
LAW_CASES = {**CHAIN_CASES, **RENEWAL_CASES}


@pytest.mark.parametrize("case", list(LAW_CASES))
def test_count_pmf_has_the_exact_moments(case):
    kernel = LAW_CASES[case][1]()
    table = MomentTable.build(kernel, CHECKPOINTS, 2)
    for ci, n in enumerate(CHECKPOINTS):
        pmf, k = count_pmf(kernel, n), np.arange(n + 1)
        assert pmf.sum() == pytest.approx(1.0, rel=1e-12)
        assert pmf @ k == pytest.approx(table.values[0, ci], rel=1e-12)
        assert pmf @ k**2 == pytest.approx(table.values[1, ci], rel=1e-12)


@pytest.mark.parametrize("case", list(LAW_CASES))
def test_sampler_matches_the_exact_count_pmf(case):
    # The whole law of the count, not two moments.  The bound is about 3x the
    # expected TV distance of 2e5 exact draws (at most 0.0032 here).
    sim, kernel = LAW_CASES[case]
    batch = sim(n=50, replicates=200_000, seed=31, checkpoints=CHECKPOINTS)
    for ci, n in enumerate(CHECKPOINTS):
        assert tv_to_pmf(batch.counts[:, ci], count_pmf(kernel(), n)) <= 0.01


@pytest.mark.parametrize("schedule", [SCHEDULE, DECAY], ids=["bpve-drift", "bpve-decay"])
def test_generation_chain_matches_the_exact_count_pmf(schedule):
    # about 3x the expected TV distance of 4e4 exact draws (at most 0.0063 here)
    counts = bpve_generations(schedule, 50, 40_000, seed=32, checkpoints=CHECKPOINTS)
    for ci, n in enumerate(CHECKPOINTS):
        assert tv_to_pmf(counts[:, ci], count_pmf(kernel_branching(schedule), n)) <= 0.02


@pytest.mark.parametrize("replicates", [1, _CHUNK, _CHUNK + 1, 10_000, 3 * _CHUNK - 1])
def test_chunks_are_equal_to_within_one_row(replicates):
    sizes = []
    _run_chunked(lambda rng, rows: sizes.append(rows) or np.zeros((rows, 1)), replicates, 0, 1, threads=1)
    assert len(sizes) == -(-replicates // _CHUNK)
    assert sum(sizes) == replicates and max(sizes) - min(sizes) <= 1 and max(sizes) <= _CHUNK


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_kernels_meet_the_sampler_preconditions(case):
    _cauchy_chain_worker(CHAIN_CASES[case][1](), (5000,))  # raises when x stalls or a_j (x_j - y_j) misses 1


def test_chain_sampler_refuses_the_power_kernel():
    # x = y, so a_j (x_j - y_j) = 0: the scan would not draw this kernel's law
    with pytest.raises(ValueError, match="off by 1 at generation 1"):
        _sim_chain(PowerKernel(2.0, 1.0), 50, 10, 0, None, 1)


def test_renewal_sampler_refuses_a_kernel_with_no_chain():
    # u(k) = 1/k is not log-convex at k = 1 (Kaluza): f(2) = u(2) - u(1)^2 = -0.5
    with pytest.raises(ValueError, match="at gap 2,"):
        _sim_chain(kernel_distance(lambda i: i.astype(float), "n"), 50, 10, 0, None, 1)


class _FlatKernel(RhoKernel):
    """a_j (x_j - y_j) = 1, but x_3 = x_2."""

    description = "flat"

    def _cauchy_arrays(self, n):
        x, y = np.array([2.0, 3.0, 3.0, 5.0])[:n], np.array([1.0, 2.0, 2.5, 4.0])[:n]
        return 1.0 / (x - y), x, y


def test_chain_sampler_refuses_an_x_that_does_not_rise():
    with pytest.raises(ValueError, match="generation 3"):
        _sim_chain(_FlatKernel(), 4, 10, 0, None, 1)
    assert _sim_chain(_FlatKernel(), 2, 10, 0, None, 1).counts.shape == (10, 1)


@pytest.mark.parametrize("case", ["bpve-drift", "levelwalk-gamma1.0"])
def test_moments_match_the_exact_table_where_most_rows_retire(case):
    # By n = 2000 most rows have a running maximum past x_n and have left the scan.
    sim, kernel = CHAIN_CASES[case]
    cps = (500, 2000)
    batch = sim(n=2000, replicates=20_000, seed=41, checkpoints=cps)
    table = MomentTable.build(kernel(), cps, 2)
    for ci in range(len(cps)):
        c = batch.counts[:, ci].astype(float)
        assert abs(zscore(c, table.values[0, ci])) <= 4.0
        assert abs(zscore(c**2, table.values[1, ci])) <= 4.0


def test_sim_bpve_refuses_a_schedule_past_its_breakdown():
    schedule = OffspringSchedule.constant(0.4)
    with pytest.raises(ValueError, match="generation 90") as kernel_error:
        kernel_branching(schedule).cauchy(200)
    with pytest.raises(ValueError) as sim_error:
        sim_bpve(schedule, 200, replicates=10)
    assert str(sim_error.value) == str(kernel_error.value)


def test_levelwalk_start_must_lie_below_the_first_level():
    for x0 in (0.0, 2.0, 3.0):  # c4-gbm has b = 2
        cfg = parse_config(f"experiment = c4-gbm\nreplicates = 10\nhorizons = 10\nx0 = {x0}\n")
        with pytest.raises(ConfigError, match="x0"):
            run(cfg)


def test_threads_default_to_every_usable_cpu(monkeypatch):
    monkeypatch.delenv("LIMITLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert resolve_threads() == 3
    assert resolve_threads(1) == 1
    monkeypatch.setenv("LIMITLAB_THREADS", "2")
    assert resolve_threads() == 2
    monkeypatch.setenv("LIMITLAB_THREADS", "-3")
    with pytest.raises(ValueError, match="positive integer"):
        resolve_threads()
    monkeypatch.delenv("LIMITLAB_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert resolve_threads() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_threads() == 1


def _series_mul(a, b, deg):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(deg + 1)]


def _series_inv(a, deg):
    out = [1 / a[0]]
    for k in range(1, deg + 1):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def exact_return_laws(level, n):
    """(u, f, g) on 0..n in rationals, from the offspring generating function alone.

    A_k(s) = E[s^Z_k | Z_0 = 1] satisfies A_k = 1/(2 - A_{k-1}) with A_0 = s;
    coefficients up to s^level of that quotient need only those of A_{k-1}.
    Then u(k) = [s^L] A_k^L, v(k) = [s^L] A_k (k >= 1), F = 1 - 1/U, G = V/U.
    """
    a = [Fraction(0), Fraction(1)] + [Fraction(0)] * (level - 1)
    u, v = [Fraction(1)], [Fraction(0)]
    for _ in range(n):
        a = _series_inv([2 - a[0]] + [-c for c in a[1:]], level)
        power = [Fraction(1)] + [Fraction(0)] * level
        for _ in range(level):
            power = _series_mul(power, a, level)
        u.append(power[level])
        v.append(a[level])
    inv_u = _series_inv(u, n)
    f = [Fraction(0)] + [-c for c in inv_u[1:]]
    g = _series_mul(v, inv_u, n)
    return u, f, g


# sim_gw counts visits to level 1 only: the chain of the distance kernel (1+n)^2
@pytest.mark.parametrize("level", [1])
def test_return_laws_match_exact_rationals(level):
    n = 60
    u, ef, eg = exact_return_laws(level, n)
    assert u == [Fraction(1, (k + 1) ** 2) for k in range(n + 1)]
    assert eg == ef  # from one ancestor the first visit and every return share one law
    f = _first_return_law(DistanceKernel(_SQUARES), n)
    assert f[0] == ef[0] == 0
    for k in range(1, n + 1):
        assert f[k] == pytest.approx(float(ef[k]), rel=1e-13, abs=0)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 300).map(lambda c: c / 100), n=st.integers(1, 400))
def test_first_return_law_is_a_defective_law_that_renews_u(s, n):
    # weights (1+n)^s with s in (0, 3]; u = (1+k)^-s is log-convex, so f is a law
    kernel = kernel_distance(lambda i: (1.0 + i) ** s)
    f = _first_return_law(kernel, n)
    u = kernel.marginal_probs(n)
    u[0] = 1.0
    assert np.all(f[1:] > 0)
    assert f.sum() < 1.0
    # renewal equation: u(k) = sum_{j=1..k} f(j) u(k-j) for k >= 1
    renewed = np.convolve(f, u)[1 : n + 1]
    assert renewed == pytest.approx(u[1:], rel=1e-12, abs=0)


CHAIN_N, CHAIN_REPS, CHAIN_CPS = 200, 1_000_000, (50, 200)


@pytest.fixture(scope="module")
def chain_counts():
    """Generation-chain counts at level 1, from one run of the chain."""
    return gw_generations(CHAIN_N, (1,), CHAIN_REPS, seed=22, checkpoints=CHAIN_CPS)


@pytest.mark.parametrize("level", [1])
def test_renewal_sampler_matches_the_generation_chain(level, chain_counts):
    # The mean and the whole pmf of the counts against the literal chain.
    # With 1e6 replicates a side, 40 same-law pairs gave TV distances of at
    # most 0.0018 (mean 0.001); a 1% error in the exponent of u gives about 0.005.
    reps, cps = CHAIN_REPS, CHAIN_CPS
    fast = sim_gw(CHAIN_N, replicates=reps, seed=21, checkpoints=cps).counts
    slow = chain_counts[level - 1]
    for c in range(len(cps)):
        x, y = fast[:, c], slow[:, c]
        se = math.sqrt(x.var(ddof=1) / reps + y.var(ddof=1) / reps)
        assert abs(x.mean() - y.mean()) / se <= 4.0
        size = int(max(x.max(), y.max())) + 1
        tv = 0.5 * np.abs(np.bincount(x, minlength=size) - np.bincount(y, minlength=size)).sum() / reps
        assert tv <= 0.003
