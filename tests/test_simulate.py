"""Seeded tests of the three simulators: counts that do not depend on the
thread count, and moments within four standard errors of the exact kernel
moments.  The step-by-step level-walk oracle is held to the same standard.
Both samplers behind ``_sim_chain`` are checked against the exact law of the
count (``oracles.count_pmf``): the Cauchy-chain scan of ``sim_bpve`` and
``sim_levelwalk`` on four kernels, and the renewal sampler on three distance
kernels, (1+n)^2 of ``sim_gw`` among them, and on the gamma = 1 level walk,
which ``sim_levelwalk`` draws by its renewal gaps; so are the two literal
chains the scan replaces.  The block skip of that scan is checked against the
generation-by-generation scan (``oracles.cauchy_chain_scan``) by two
samples, at checkpoints that end no 16-generation block and below one
block, and by the uniforms it draws, counted, not timed.  Both chunk
workers keep the bytes of their masked, one-generation-at-a-time forms
(``oracles.masked_cauchy_chain_worker``, ``oracles.masked_renewal_worker``)
and draw as many uniforms, and the scan's counts do not depend on its
tile of generations or on when retired rows leave its arrays.  On D(k) = 1 + k,
which is both a distance and a branching kernel, and on the gamma = 1 scale
kernel, the distance kernel D(k) = 1 + k/c at three offset ratios c, the two
samplers are checked against each other by two samples.  That distance
kernel, which the level walk's exact side also reads, gives the exact
moments of ``kernel_scale`` within 1e-13 relative at horizons up to 2e4,
and its Psi the multiple sums of ``oracles.phi_recursion``.  The renewal
sampler is checked twice more for ``sim_gw``: its first-return law against
exact rational arithmetic on the offspring generating function, and its
counts against the generation-by-generation chain.  The block solve of that
law is checked against the per-entry recursion at the block edges, against
exact rationals and a long-double recursion, and for the same bytes at one
and two BLAS threads."""

import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitlab import experiments, simulate
from limitlab.experiments import ConfigError, parse_config, run
from limitlab.kernels import OffspringSchedule, RhoKernel, ScaleSpec, kernel_branching, kernel_power, kernel_scale
from limitlab.moments import MomentTable
from limitlab.multisum import WeightSequence, psi_curve
from limitlab.simulate import (_CHUNK, _SQUARES, _cauchy_chain_worker, _first_return_law, _levelwalk_kernel,
                               _renewal_worker, _run_chunked, _sim_chain, resolve_threads, sim_bpve, sim_gw,
                               sim_levelwalk)

from oracles import (bpve_generations, cauchy_chain_scan, constant_schedule, count_pmf, first_return_recursion,
                     gw_generations, levelwalk_steps, marginals, masked_cauchy_chain_worker, masked_renewal_worker,
                     phi_recursion, tv_to_pmf)

SPEC = ScaleSpec.from_dimension(3.0, 1.0, 2.0)
SCHEDULE = OffspringSchedule.harmonic_drift(0.5)
# simulator and the kernel whose exact moments its counts follow
MODELS = {
    "gw": (sim_gw, lambda: WeightSequence(weight=lambda i: (1.0 + i) ** 2)),
    "bpve": (lambda **kw: sim_bpve(SCHEDULE, **kw), lambda: kernel_branching(SCHEDULE)),
    "levelwalk": (lambda **kw: sim_levelwalk(SPEC, **kw), lambda: kernel_scale(SPEC)),
}
CHECKPOINTS = (10, 25, 50)


def zscore(sample, exact):
    return (sample.mean() - exact) / (sample.std(ddof=1) / math.sqrt(sample.size))


# a chunk size small enough that a test can run several chunks cheaply
SMALL_CHUNK = 1024


@pytest.mark.parametrize("model", list(MODELS))
def test_counts_do_not_depend_on_thread_count(model, monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", SMALL_CHUNK)
    sim, _ = MODELS[model]
    replicates = 2 * SMALL_CHUNK + 1  # three chunks
    kw = dict(n=50, replicates=replicates, seed=3, checkpoints=CHECKPOINTS)
    one = sim(threads=1, **kw)
    assert one.counts.shape == (replicates, len(CHECKPOINTS))
    for threads in (2, 3, 4):  # 4: more threads than chunks
        assert np.array_equal(one.counts, sim(threads=threads, **kw).counts)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("built a thread pool")


@pytest.mark.parametrize("model", list(MODELS))
def test_one_chunk_runs_without_a_thread_pool(model, monkeypatch):
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", _NoPool)
    sim, _ = MODELS[model]
    batch = sim(n=10, replicates=_CHUNK, seed=3, threads=2)
    assert batch.counts.shape == (_CHUNK, 1)
    with pytest.raises(AssertionError, match="thread pool"):  # one row more is two chunks
        sim(n=10, replicates=_CHUNK + 1, seed=3, threads=2)


def test_chunks_run_concurrently_on_the_thread_pool(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", 4)
    barrier = threading.Barrier(2, timeout=10)

    def worker(rng, rows):
        barrier.wait()  # breaks after 10 s unless both chunks run at the same time
        return np.full((rows, 1), rows)

    counts = _run_chunked(worker, 8, seed=0, ncols=1, threads=2)
    assert np.array_equal(counts, np.full((8, 1), 4))


@pytest.mark.parametrize("model", list(MODELS))
def test_moments_match_the_exact_table(model):
    sim, kernel = MODELS[model]
    batch = sim(n=50, replicates=20_000, seed=11, checkpoints=CHECKPOINTS)
    table = MomentTable.build(kernel(), CHECKPOINTS, 2)
    for ci in range(len(CHECKPOINTS)):
        c = batch.counts[:, ci].astype(float)
        assert abs(zscore(c, table.values[0, ci])) <= 4.0
        assert abs(zscore(c**2, table.values[1, ci])) <= 4.0


@pytest.mark.parametrize("x0, gamma", [
    pytest.param(x0, gamma, id=str(x0) if gamma == 1.0 else f"{x0}-gamma{gamma}")
    for gamma in (0.5, 1.0, 2.0) for x0 in (None, 1.0)])
def test_steps_oracle_matches_the_exact_mean(x0, gamma):
    n = 10
    spec = ScaleSpec(gamma, SPEC.a, SPEC.b)
    counts = levelwalk_steps(spec, n, replicates=2000, seed=5, x0=x0)
    exact = MomentTable.build(kernel_scale(spec), range(1, n + 1), 1).values[0]
    for k in range(n):
        assert abs(zscore(counts[:, k].astype(float), exact[k])) <= 4.0
        # about 3x the expected TV distance of 2000 exact draws (at most 0.023 for these gammas)
        assert tv_to_pmf(counts[:, k], count_pmf(kernel_scale(spec), k + 1)) <= 0.07


DECAY = OffspringSchedule.from_decay(lambda t: t**-2.0)
# simulator of a Cauchy kernel, and that kernel; at gamma = 1 sim_levelwalk draws its renewal gaps
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
        return WeightSequence(weight=weight, gap=gap, label=label)

    def sim(n, replicates, seed, checkpoints):
        return _sim_chain(kernel(), n, replicates, seed, checkpoints, None)

    return sim, kernel


# distance kernels, drawn by the renewal sampler; n+1 has a first-return law summing toward 1
RENEWAL_CASES = {
    "renewal-squares": (sim_gw, lambda: _SQUARES),
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


@pytest.mark.parametrize("checkpoints", [(1,), (2, 5), (7, 250, 333)])
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_checkpoints_off_the_block_ends_match_the_exact_law(case, checkpoints):
    # Horizons below one 16-generation block, and checkpoints that end blocks
    # of their own.  TV where count_pmf is cheap (n <= 50), with the bound of
    # the test above; the mean within 4 exact standard errors everywhere.
    sim, kernel = CHAIN_CASES[case]
    batch = sim(n=checkpoints[-1], replicates=200_000, seed=33, checkpoints=checkpoints)
    table = MomentTable.build(kernel(), checkpoints, 2)
    for ci, n in enumerate(checkpoints):
        c = batch.counts[:, ci]
        mean, second = table.values[:, ci]
        assert abs(c.mean() - mean) <= 4.0 * math.sqrt((second - mean**2) / c.size)
        if n <= 50:
            assert tv_to_pmf(c, count_pmf(kernel(), n)) <= 0.01


def assert_one_law(first, second):
    """Two samples of counts (rows x checkpoints, equal rows) drawn from one law.

    At each checkpoint the means lie within 4 standard errors of their
    difference, and the TV distance is at most 3x its expectation for two
    samples of one law, sum_k sqrt(p_k (1 - p_k) / (pi R)), read from the
    pooled frequencies p.
    """
    reps = first.shape[0]
    for x, y in zip(first.T, second.T):
        se = math.sqrt((x.var(ddof=1) + y.var(ddof=1)) / reps)
        assert abs(x.mean() - y.mean()) <= 4.0 * se
        size = int(max(x.max(), y.max())) + 1
        px, py = np.bincount(x, minlength=size) / reps, np.bincount(y, minlength=size) / reps
        pooled = (px + py) / 2
        assert 0.5 * np.abs(px - py).sum() <= 3.0 * np.sqrt(pooled * (1 - pooled) / (math.pi * reps)).sum()


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_block_skip_matches_the_generation_scan(case):
    # Two samples of 1e5 rows, one from the skip and one from the scan it
    # replaced (oracles.cauchy_chain_scan).
    kernel, cps, reps = CHAIN_CASES[case][1](), (7, 250, 333), 100_000
    skip = _cauchy_chain_worker(kernel, cps)(np.random.default_rng(34), reps)
    scan = cauchy_chain_scan(kernel, cps)(np.random.default_rng(35), reps)
    assert_one_law(skip, scan)


def test_renewal_and_cauchy_chain_samplers_agree_on_one_kernel():
    # D(k) = 1 + k is the distance kernel i + 1 and the branching kernel
    # harmonic_drift(0), so the two samplers draw one law
    cps, reps = (7, 100, 1000), 100_000
    renewal = _renewal_worker(WeightSequence(weight=lambda i: i + 1.0), cps)(np.random.default_rng(36), reps)
    chain = _cauchy_chain_worker(kernel_branching(OffspringSchedule.harmonic_drift(0.0)), cps)(
        np.random.default_rng(37), reps)
    assert_one_law(renewal, chain)


@pytest.mark.parametrize("c", [0.01, 0.5, 0.99])
def test_levelwalk_at_gamma_1_draws_the_law_of_the_chain_scan(c, monkeypatch):
    # At gamma = 1, 1/rho(i, j) = c/(j - i + c), and sim_levelwalk draws renewal gaps of D(k) = 1 + k/c
    spec, cps, reps = ScaleSpec(1.0, c, 1.0), (7, 100, 500), 100_000
    routed = []
    monkeypatch.setattr(simulate, "_sim_chain",
                        lambda kernel, *args: routed.append(kernel) or _sim_chain(kernel, *args))
    renewal = sim_levelwalk(spec, cps[-1], replicates=reps, seed=42, checkpoints=cps).counts
    chain = _cauchy_chain_worker(kernel_scale(spec), cps)(np.random.default_rng(43), reps)
    assert_one_law(renewal, chain)
    (weights,) = routed
    assert isinstance(weights, WeightSequence)
    # 1/D(k) against c/(k + c) in rationals from the float c, then against the Cauchy form
    # 1/(a_j (x_j - y_i)), whose x_j = j + c rounds at ulp(j): relative to x_j - y_i that is
    # up to x_j / (x_j - y_i) times one rounding (9.1e-15 at c = 0.01, i = 161, j = 162)
    r = weights.reciprocals(200)
    exact = np.array([float(Fraction(c) / (k + Fraction(c))) for k in range(1, 201)])
    assert np.all(np.abs(r[1:] - exact) <= 1e-15 * exact)
    a, x, y = kernel_scale(spec).cauchy(200)
    j, i = np.tril_indices(201, -1)
    form = 1.0 / (a[j] * (x[j] - y[i]))
    assert np.all(np.abs(r[j - i] - form) <= 1e-15 * form * x[j] / (x[j] - y[i]))
    _first_return_law(weights, 20_000)  # raises if f goes negative or sums past 1


def same_moments(model, want, hs):
    """Orders 1..4 of ``model`` at the horizons hs within 1e-13 relative of the table ``want``."""
    got = MomentTable.build(model, hs, 4).values
    return bool(np.all(np.abs(got - want) <= 1e-13 * want))


@pytest.mark.parametrize("hs", [(100, 250, 500), (1000, 5000, 20_000)])
@pytest.mark.parametrize("c", [0.01, 0.5, 0.99])
def test_levelwalk_at_gamma_1_has_the_moments_of_kernel_scale(c, hs):
    # The exact side reads D(k) = 1 + k/c by the fold; kernel_scale derives the same moments through
    # the Cauchy tables, whose matvec budget is 2.3e-14 relative per term over at most 4 products.
    # D built with 1.1 c is the control.
    spec = ScaleSpec(1.0, c, 1.0)
    want = MomentTable.build(kernel_scale(spec), hs, 4).values
    assert same_moments(_levelwalk_kernel(spec), want, hs)
    assert not same_moments(WeightSequence(weight=lambda k: 1.0 + k / (1.1 * c)), want, hs)


def test_levelwalk_model_is_a_distance_kernel_at_gamma_1_only():
    c3 = experiments._REGISTRY["c3-cutsphere"]
    assert isinstance(c3.runner.model(c3.params), WeightSequence)
    assert isinstance(c3.runner.model({**c3.params, "d": 4.0}), RhoKernel)


def test_levelwalk_psi_at_gamma_1_is_the_multiple_sum_of_its_distance_kernel():
    # At c = 0.01 kernel_scale's 1/rho is up to 9.1e-15 off near the diagonal, and 1 + k/c 1.2e-16.
    # The bound, 2e-14 relative (180 roundings), is the worst case over three orders of positive
    # terms: the oracle rounds 1 + k/c (2), its quotient and its fsum (5 per order); the direct fold
    # rounds the reciprocal (3), each product (1) and sums of at most 30 terms (29), 33 per order,
    # plus a running sum of 30 (143 in all).
    c, hs = 0.01, range(1, 31)
    got = psi_curve(_levelwalk_kernel(ScaleSpec(1.0, c, 1.0)), hs, 3)
    want = np.array([[phi_recursion(lambda k: 1.0 + k / c, h, m) for h in hs] for m in (1, 2, 3)])
    assert np.all(np.abs(got - want) <= 2e-14 * want)


class _CountingRng:
    """A Generator's ``random`` that counts the uniforms it hands out."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), 0

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        self.drawn += np.size(u)
        return u


def test_block_skip_draws_under_half_the_uniforms_of_the_scan():
    # c3-cutsphere's size: a far row crosses a block with one uniform, where
    # the scan draws one per generation (the skip draws 0.30 as many at seed 0)
    kernel, cps, rows = kernel_scale(SPEC), (100, 250, 500), 10_000
    skip, scan = _CountingRng(0), _CountingRng(0)
    _cauchy_chain_worker(kernel, cps)(skip, rows)
    cauchy_chain_scan(kernel, cps)(scan, rows)
    assert 0 < skip.drawn < scan.drawn / 2


BYTE_ROWS = (1, 7, 10_000, 20_000)  # at 20,000 rows every row is near at first, in tiles of 3 generations
BYTE_CHECKPOINTS = [(1, 2, 17), (7, 250, 333)]


@pytest.mark.parametrize("checkpoints", BYTE_CHECKPOINTS)
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_tiled_scan_keeps_the_bits_of_the_masked_scan(case, checkpoints):
    # the same uniforms in the same order through the same float operations
    kernel = CHAIN_CASES[case][1]()
    for rows in BYTE_ROWS:
        tiled, masked = _CountingRng(rows), _CountingRng(rows)
        got = _cauchy_chain_worker(kernel, checkpoints)(tiled, rows)
        want = masked_cauchy_chain_worker(kernel, checkpoints)(masked, rows)
        assert np.array_equal(got, want), rows
        assert tiled.drawn == masked.drawn, rows


@pytest.mark.parametrize("checkpoints", BYTE_CHECKPOINTS)
@pytest.mark.parametrize("weights", [_SQUARES, WeightSequence(weight=lambda i: (1.0 + i) ** 1.5)],
                         ids=["squares", "power1.5"])
def test_renewal_indices_keep_the_bits_of_the_masked_sampler(weights, checkpoints):
    for rows in BYTE_ROWS:
        indexed, masked = _CountingRng(rows), _CountingRng(rows)
        got = _renewal_worker(weights, checkpoints)(indexed, rows)
        want = masked_renewal_worker(weights, checkpoints)(masked, rows)
        assert np.array_equal(got, want), rows
        assert indexed.drawn == masked.drawn, rows


@pytest.mark.parametrize("tile", [1, 1 << 20], ids=["one-generation", "whole-blocks"])
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_counts_do_not_depend_on_the_tile(case, tile, monkeypatch):
    kernel, cps, rows = CHAIN_CASES[case][1](), (7, 250, 333), 20_000
    want = _cauchy_chain_worker(kernel, cps)(np.random.default_rng(38), rows)
    monkeypatch.setattr(simulate, "_TILE", tile)
    got = _cauchy_chain_worker(kernel, cps)(np.random.default_rng(38), rows)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("leave", [0.0, math.inf], ids=["at-every-retire-point", "never"])
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_counts_do_not_depend_on_when_retired_rows_leave(case, leave, monkeypatch):
    # a retired row draws nothing, so dropping it from the arrays moves no uniform
    kernel, cps, rows = CHAIN_CASES[case][1](), (7, 250, 333), 20_000
    default, moved = _CountingRng(39), _CountingRng(39)
    want = _cauchy_chain_worker(kernel, cps)(default, rows)
    monkeypatch.setattr(simulate, "_LEAVE", leave)
    got = _cauchy_chain_worker(kernel, cps)(moved, rows)
    assert got.tobytes() == want.tobytes()
    assert moved.drawn == default.drawn


@pytest.mark.parametrize("schedule", [SCHEDULE, DECAY], ids=["bpve-drift", "bpve-decay"])
def test_generation_chain_matches_the_exact_count_pmf(schedule):
    # about 3x the expected TV distance of 4e4 exact draws (at most 0.0063 here)
    counts = bpve_generations(schedule, 50, 40_000, seed=32, checkpoints=CHECKPOINTS)
    for ci, n in enumerate(CHECKPOINTS):
        assert tv_to_pmf(counts[:, ci], count_pmf(kernel_branching(schedule), n)) <= 0.02


@pytest.mark.parametrize("replicates", [1, 8192, 8193, 10_000, 3 * 8192 - 1])
def test_chunks_are_equal_to_within_one_row(replicates, monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK", 8192)  # the layout rule at several chunk counts
    sizes = []
    _run_chunked(lambda rng, rows: sizes.append(rows) or np.zeros((rows, 1)), replicates, 0, 1, threads=1)
    assert len(sizes) == -(-replicates // 8192)
    assert sum(sizes) == replicates and max(sizes) - min(sizes) <= 1 and max(sizes) <= 8192


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_kernels_meet_the_sampler_preconditions(case):
    _cauchy_chain_worker(CHAIN_CASES[case][1](), (5000,))  # raises when x stalls or a_j (x_j - y_j) misses 1


def test_chain_sampler_refuses_the_power_kernel():
    # x = y, so a_j (x_j - y_j) = 0: the scan would not draw this kernel's law
    with pytest.raises(ValueError, match="off by 1 at generation 1"):
        _sim_chain(kernel_power(2.0, 1.0), 50, 10, 0, None, 1)


def test_renewal_sampler_refuses_a_kernel_with_no_chain():
    # u(k) = 1/k is not log-convex at k = 1 (Kaluza): f(2) = u(2) - u(1)^2 = -0.5
    with pytest.raises(ValueError, match="at gap 2,"):
        _sim_chain(WeightSequence(weight=lambda i: i.astype(float), label="n"), 50, 10, 0, None, 1)


def _flat_arrays(n):
    """a_j (x_j - y_j) = 1, but x_3 = x_2."""
    x, y = np.array([2.0, 3.0, 3.0, 5.0])[:n], np.array([1.0, 2.0, 2.5, 4.0])[:n]
    return 1.0 / (x - y), x, y


def test_chain_sampler_refuses_an_x_that_does_not_rise():
    with pytest.raises(ValueError, match="generation 3"):
        _sim_chain(RhoKernel("flat", _flat_arrays), 4, 10, 0, None, 1)
    assert _sim_chain(RhoKernel("flat", _flat_arrays), 2, 10, 0, None, 1).counts.shape == (10, 1)


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
    schedule = constant_schedule(0.4)
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


@pytest.mark.parametrize("n, checkpoints, value", [
    (200, [100.7, 200], "100.7"), (200.5, None, "200.5"), (200, [float("nan"), 200], "nan"),
    (200, [50, float("inf")], "inf")])
def test_fractional_or_non_finite_horizons_are_refused(n, checkpoints, value):
    with pytest.raises(ValueError, match=f"must be integers, got {value}"):
        sim_gw(n, replicates=5, checkpoints=checkpoints)


def test_integral_float_horizons_run_as_ints():
    assert sim_gw(200.0, replicates=5).checkpoints == (200,)
    assert sim_gw(200, replicates=5, checkpoints=[100.0, 200]).checkpoints == (100, 200)


@pytest.mark.parametrize("threads", [0, -5])
def test_an_explicit_thread_count_below_1_is_refused(threads):
    with pytest.raises(ValueError, match=f"threads must be a positive integer, got {threads}"):
        resolve_threads(threads)
    with pytest.raises(ValueError, match="positive integer"):
        sim_gw(10, replicates=5, seed=0, threads=threads)


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
    f = _first_return_law(_SQUARES, n)
    assert f[0] == ef[0] == 0
    for k in range(1, n + 1):
        assert f[k] == pytest.approx(float(ef[k]), rel=1e-13, abs=0)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(1, 300).map(lambda c: c / 100), n=st.integers(1, 400))
def test_first_return_law_is_a_defective_law_that_renews_u(s, n):
    # weights (1+n)^s with s in (0, 3]; u = (1+k)^-s is log-convex, so f is a law
    kernel = WeightSequence(weight=lambda i: (1.0 + i) ** s)
    f = _first_return_law(kernel, n)
    u = marginals(kernel, n)
    u[0] = 1.0
    assert np.all(f[1:] > 0)
    assert f.sum() < 1.0
    # renewal equation: u(k) = sum_{j=1..k} f(j) u(k-j) for k >= 1
    renewed = np.convolve(f, u)[1 : n + 1]
    assert renewed == pytest.approx(u[1:], rel=1e-12, abs=0)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 2000])
def test_first_return_law_matches_the_per_entry_recursion(s, n):
    # n at the edges of the 64-entry blocks.  The first block is the recursion
    # itself; later blocks sum in another order, each side rounding in float64.
    kernel = WeightSequence(weight=lambda i: (1.0 + i) ** s)
    f, want = _first_return_law(kernel, n), first_return_recursion(marginals(kernel, n))
    assert np.array_equal(f[:64], want[:64])
    assert f[1:] == pytest.approx(want[1:], rel=1e-13, abs=0)


@pytest.mark.parametrize("s", [2, 3])
def test_first_return_law_matches_exact_rationals(s):
    n = 200
    exact = [-c for c in _series_inv([Fraction(1, (k + 1) ** s) for k in range(n + 1)], n)]  # 1 - F = 1/U
    f = _first_return_law(WeightSequence(weight=lambda i: (1.0 + i) ** s), n)
    for k in range(1, n + 1):
        assert f[k] == pytest.approx(float(exact[k]), rel=1e-13, abs=0)


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_first_return_law_matches_a_long_double_recursion(s):
    # the recursion in long double from the same float64 marginals, so only the solve's rounding shows
    n = 20_000
    kernel = WeightSequence(weight=lambda i: (1.0 + i) ** s)
    want = first_return_recursion(marginals(kernel, n).astype(np.longdouble))
    f = _first_return_law(kernel, n).astype(np.longdouble)
    assert np.all(np.abs(f[1:] - want[1:]) <= 1e-12 * want[1:])


def test_first_return_law_does_not_depend_on_the_blas_thread_count():
    # a threaded BLAS splits a dot of more than 10^4 terms among its threads,
    # so a longer dot would round f differently per thread count
    code = ("import hashlib; from limitlab.simulate import _SQUARES, _first_return_law; "
            "print(hashlib.sha256(_first_return_law(_SQUARES, 30_000).tobytes()).hexdigest())")
    # a floating-point warning at either thread count fails the run, and any other warning shows in stderr
    runs = [subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], capture_output=True,
                           text=True, check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t})
            for t in ("1", "2")]
    assert [r.stderr for r in runs] == ["", ""]
    assert runs[0].stdout == runs[1].stdout


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
