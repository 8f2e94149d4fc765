"""Exact-law Monte Carlo for the three counting models.

All simulators share the same reproducibility scheme: replicates are split
into fixed-size chunks, each chunk draws from its own counter-based
substream (Philox seeded through ``SeedSequence(seed).spawn``), and every
chunk writes its rows to a fixed slice of the output.  Results are
therefore a pure function of (seed, parameters) and independent of how
many worker threads execute the chunks (``LIMITLAB_THREADS``).

Models:

- ``sim_gw``: critical branching with geometric(1/2) offspring; counts
  generations where the population equals a given level.  Total offspring
  of a generation of size y is one negative-binomial draw NB(y, 1/2).
- ``sim_bpve``: branching with one immigrant per generation and
  generation-dependent geometric offspring; counts visits to zero.
- ``sim_levelwalk``: transient level walk with scale weight
  w(x) = x^(-gamma); counts levels that are never re-entered after their
  offset partner is first hit.  The default sampler draws, for each new
  running maximum, the minimum level reached before the next maximum
  (a gambler's-ruin quantile in the scale function) plus the geometric
  number of failed escapes from the top; this reproduces the exact joint
  law of all level-visit events at O(n) cost per replicate.  The literal
  step-by-step chain is kept in the test suite (``tests/oracles.py``) as
  the independent check of this sampler.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import OffspringSchedule, ScaleSpec

__all__ = ["ReplicateBatch", "resolve_threads", "sim_bpve", "sim_gw", "sim_levelwalk"]

_CHUNK = 8192
# sim_gw stops evolving populations this large: they never return to a small
# level within desk horizons
_POPULATION_CAP = 10**9


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument wins, then LIMITLAB_THREADS, then 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("LIMITLAB_THREADS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"LIMITLAB_THREADS must be an integer, got {env!r}") from None


@dataclass
class ReplicateBatch:
    """Per-replicate counts at checkpoint horizons from one seeded run."""

    model: str
    params: dict
    seed: int
    replicates: int
    checkpoints: tuple[int, ...]
    counts: np.ndarray  # shape (replicates, len(checkpoints)), int64
    cap_hits: int = 0

    def __post_init__(self):
        if self.counts.shape != (self.replicates, len(self.checkpoints)):
            raise ValueError("counts shape does not match replicates x checkpoints")
        if np.any(np.diff(self.counts, axis=1) < 0):
            raise ValueError("counts must be nondecreasing along the horizon axis")


def _validate_checkpoints(checkpoints, n: int) -> tuple[int, ...]:
    cps = (n,) if checkpoints is None else tuple(int(c) for c in checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, {n}]")
    return cps


def _run_chunked(worker, replicates: int, seed: int, ncols: int, threads: int | None):
    """Run `worker(rng, rows) -> (block, cap_hits)` over fixed chunks; deterministic row placement.

    Returns the counts and the cap hits summed over chunks.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    starts = list(range(0, replicates, _CHUNK))
    children = np.random.SeedSequence(int(seed)).spawn(len(starts))
    counts = np.zeros((replicates, ncols), dtype=np.int64)
    cap_hits = [0] * len(starts)

    def job(ci: int):
        start = starts[ci]
        rows = min(_CHUNK, replicates - start)
        rng = np.random.Generator(np.random.Philox(children[ci]))
        block, cap_hits[ci] = worker(rng, rows)
        counts[start : start + rows] = block

    nthreads = resolve_threads(threads)
    if nthreads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(job, range(len(starts))))
    else:
        for ci in range(len(starts)):
            job(ci)
    return counts, sum(cap_hits)


def sim_gw(n: int, level: int = 1, replicates: int = 10_000, seed: int = 0,
           checkpoints: Sequence[int] | None = None,
           threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with population exactly ``level``.

    Starts from a single ancestor; offspring are i.i.d. geometric(1/2) on
    {0, 1, ...} (P(k) = 2^-(k+1)), so a generation of size y produces
    NB(y, 1/2) children in one draw.  Extinct replicates are absorbed with
    their counts frozen.  Populations reaching ``_POPULATION_CAP`` stop
    evolving and are counted in ``cap_hits``.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    cps = _validate_checkpoints(checkpoints, n)

    def worker(rng: np.random.Generator, rows: int):
        idx = np.arange(rows)
        pop = np.ones(rows, dtype=np.int64)
        visits = np.zeros(rows, dtype=np.int64)
        block = np.zeros((rows, len(cps)), dtype=np.int64)
        caps = 0
        ci = 0
        for t in range(1, n + 1):
            if idx.size:
                pop = rng.negative_binomial(pop, 0.5)
                visits[idx[pop == level]] += 1
                capped = pop >= _POPULATION_CAP
                caps += int(capped.sum())
                keep = (pop > 0) & ~capped
                idx = idx[keep]
                pop = pop[keep]
            if ci < len(cps) and t == cps[ci]:
                block[:, ci] = visits
                ci += 1
        return block, caps

    counts, cap_hits = _run_chunked(worker, replicates, seed, len(cps), threads)
    return ReplicateBatch(
        model="gw", params={"n": n, "level": level},
        seed=seed, replicates=replicates, checkpoints=cps, counts=counts, cap_hits=cap_hits,
    )


def sim_bpve(schedule: OffspringSchedule, n: int, replicates: int = 10_000, seed: int = 0,
             checkpoints: Sequence[int] | None = None,
             threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with zero population in the immigration model.

    Starts empty; generation t receives one immigrant, and every individual
    of generation t-1 plus the immigrant reproduces with geometric(p_t)
    offspring, so Z_t | Z_{t-1} is one NB(Z_{t-1} + 1, p_t) draw.
    """
    cps = _validate_checkpoints(checkpoints, n)
    p = schedule.values(n)

    def worker(rng: np.random.Generator, rows: int):
        z = np.zeros(rows, dtype=np.int64)
        zeros_seen = np.zeros(rows, dtype=np.int64)
        block = np.zeros((rows, len(cps)), dtype=np.int64)
        ci = 0
        for t in range(1, n + 1):
            z = rng.negative_binomial(z + 1, p[t - 1])
            zeros_seen += z == 0
            if ci < len(cps) and t == cps[ci]:
                block[:, ci] = zeros_seen
                ci += 1
        return block, 0

    counts, _ = _run_chunked(worker, replicates, seed, len(cps), threads)
    return ReplicateBatch(
        model="bpve", params={"n": n, "schedule": schedule.label},
        seed=seed, replicates=replicates, checkpoints=cps, counts=counts,
    )


def _level_grid(spec: ScaleSpec, n: int) -> np.ndarray:
    """Interleaved levels k and k+c (units of the spacing b), k = 1..n."""
    c = spec.offset_ratio
    g = np.empty(2 * n)
    ks = np.arange(1, n + 1, dtype=float)
    g[0::2] = ks
    g[1::2] = ks + c
    return g


def sim_levelwalk(spec: ScaleSpec, n: int, replicates: int = 10_000, seed: int = 0,
                  checkpoints: Sequence[int] | None = None, x0: float | None = None,
                  threads: int | None = None) -> ReplicateBatch:
    """Count levels k <= checkpoint that are never re-entered after k*b + a.

    The walk starts at level b (the variant with a start x0 in (0, b)
    inserts x0 as an extra bottom level; its only role is the almost-sure
    upward passage, so it does not change any level-visit law).  Success
    of level k means: after the first visit to k*b + a, the walk never
    visits k*b again; escaping from the top resolves every pending level
    as a success.
    """
    if x0 is not None and not 0.0 < x0 < spec.b:
        raise ValueError(f"start x0 must lie in (0, b), got {x0}")
    cps = _validate_checkpoints(checkpoints, n)
    counts, _ = _run_chunked(_excursion_worker(spec, n, cps), replicates, seed, len(cps), threads)
    return ReplicateBatch(
        model="levelwalk",
        params={"n": n, "gamma": spec.gamma, "a": spec.a, "b": spec.b, "x0": x0},
        seed=seed, replicates=replicates, checkpoints=cps, counts=counts,
    )


def _excursion_worker(spec: ScaleSpec, n: int, cps: tuple[int, ...]):
    g = _level_grid(spec, n)
    wg = g ** (-spec.gamma)
    gaps = wg[:-1] - wg[1:]  # w(g_t) - w(g_{t+1}) > 0
    escape = gaps[-1] / wg[-2]  # never re-enter the top ball after its offset
    inv_gamma = 1.0 / spec.gamma
    cp_idx = np.asarray(cps, dtype=int) - 1

    def worker(rng: np.random.Generator, rows: int):
        # Failed escape attempts at the top are geometric; each one dips to
        # at least level n, with gambler's-ruin law for the deeper record.
        attempts = rng.geometric(escape, size=rows) - 1
        cur_min = np.full(rows, np.inf)
        dipped = attempts > 0
        if np.any(dipped):
            u = rng.random(rows)[dipped]
            # quantile of the min of `attempts` i.i.d. dips: 1 - (1-u)^(1/T)
            u_eff = -np.expm1(np.log1p(-u) / attempts[dipped])
            thr = wg[-1] + gaps[-1] / np.maximum(u_eff, 1e-300)
            cur_min[dipped] = thr**-inv_gamma
        success = np.zeros((rows, n), dtype=bool)
        success[:, n - 1] = cur_min > n
        # Climb transitions t = 2n-2 .. 1 (from g[t] before first hitting
        # g[t+1]); the dip from the bottom (t = 0) cannot precede any
        # activation, so it is skipped.  Min level before the next maximum:
        # P(min <= v) = (w(g_t) - w(g_{t+1})) / (w(v) - w(g_{t+1})).
        for t in range(2 * n - 2, 0, -1):
            u = rng.random(rows)
            thr = wg[t + 1] + gaps[t] / (1.0 - u)
            np.minimum(cur_min, thr**-inv_gamma, out=cur_min)
            if t % 2 == 1:  # t = 2k-1: level k+c was just first hit
                k = (t + 1) // 2
                success[:, k - 1] = cur_min > k
        block = np.cumsum(success, axis=1, dtype=np.int64)[:, cp_idx]
        return block, 0

    return worker

