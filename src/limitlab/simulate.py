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
  step-by-step chain is available as ``method="steps"`` for validation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import OffspringSchedule, ScaleSpec

__all__ = ["ReplicateBatch", "resolve_threads", "sim_bpve", "sim_gw", "sim_levelwalk"]

_CHUNK = 8192


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
    state_records: dict[int, np.ndarray] | None = None
    paths: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if self.counts.shape != (self.replicates, len(self.checkpoints)):
            raise ValueError("counts shape does not match replicates x checkpoints")
        if np.any(np.diff(self.counts, axis=1) < 0):
            raise ValueError("counts must be nondecreasing along the horizon axis")

    def column(self, checkpoint: int) -> np.ndarray:
        return self.counts[:, self.checkpoints.index(checkpoint)]


def _validate_checkpoints(checkpoints, n: int) -> tuple[int, ...]:
    cps = (n,) if checkpoints is None else tuple(int(c) for c in checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, {n}]")
    return cps


def _run_chunked(worker, replicates: int, seed: int, ncols: int, threads: int | None):
    """Run `worker(rng, rows)` over fixed chunks; deterministic row placement."""
    if replicates < 1:
        raise ValueError("need at least one replicate")
    starts = list(range(0, replicates, _CHUNK))
    children = np.random.SeedSequence(int(seed)).spawn(len(starts))
    counts = np.zeros((replicates, ncols), dtype=np.int64)
    extras: list[dict] = [{} for _ in starts]

    def job(ci: int):
        start = starts[ci]
        rows = min(_CHUNK, replicates - start)
        rng = np.random.Generator(np.random.Philox(children[ci]))
        block, extra = worker(rng, rows)
        counts[start : start + rows] = block
        extras[ci] = extra

    nthreads = resolve_threads(threads)
    if nthreads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(job, range(len(starts))))
    else:
        for ci in range(len(starts)):
            job(ci)
    return counts, extras


def sim_gw(n: int, level: int = 1, replicates: int = 10_000, seed: int = 0,
           checkpoints: Sequence[int] | None = None, population_cap: int = 10**9,
           threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with population exactly ``level``.

    Starts from a single ancestor; offspring are i.i.d. geometric(1/2) on
    {0, 1, ...} (P(k) = 2^-(k+1)), so a generation of size y produces
    NB(y, 1/2) children in one draw.  Extinct replicates are absorbed with
    their counts frozen.  Populations reaching ``population_cap`` stop
    evolving and are flagged (a population that large never returns to a
    small level within desk horizons).
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
                capped = pop >= population_cap
                caps += int(capped.sum())
                keep = (pop > 0) & ~capped
                idx = idx[keep]
                pop = pop[keep]
            if ci < len(cps) and t == cps[ci]:
                block[:, ci] = visits
                ci += 1
        return block, {"cap_hits": caps}

    counts, extras = _run_chunked(worker, replicates, seed, len(cps), threads)
    return ReplicateBatch(
        model="gw", params={"n": n, "level": level, "population_cap": population_cap},
        seed=seed, replicates=replicates, checkpoints=cps, counts=counts,
        cap_hits=sum(e.get("cap_hits", 0) for e in extras),
    )


def sim_bpve(schedule: OffspringSchedule, n: int, replicates: int = 10_000, seed: int = 0,
             checkpoints: Sequence[int] | None = None,
             record_states: Sequence[int] = (), threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with zero population in the immigration model.

    Starts empty; generation t receives one immigrant, and every individual
    of generation t-1 plus the immigrant reproduces with geometric(p_t)
    offspring, so Z_t | Z_{t-1} is one NB(Z_{t-1} + 1, p_t) draw.
    ``record_states`` asks for the zero-indicator of Z_t at the given
    generations (used to check conditional success frequencies).
    """
    cps = _validate_checkpoints(checkpoints, n)
    recs = tuple(sorted(set(int(t) for t in record_states)))
    if recs and (recs[0] < 1 or recs[-1] > n):
        raise ValueError(f"record_states must lie in [1, {n}]")
    p = schedule.values(n)

    def worker(rng: np.random.Generator, rows: int):
        z = np.zeros(rows, dtype=np.int64)
        zeros_seen = np.zeros(rows, dtype=np.int64)
        block = np.zeros((rows, len(cps)), dtype=np.int64)
        recorded = {}
        ci = 0
        for t in range(1, n + 1):
            z = rng.negative_binomial(z + 1, p[t - 1])
            at_zero = z == 0
            zeros_seen += at_zero
            if t in recs:
                recorded[t] = at_zero.copy()
            if ci < len(cps) and t == cps[ci]:
                block[:, ci] = zeros_seen
                ci += 1
        return block, {"records": recorded}

    counts, extras = _run_chunked(worker, replicates, seed, len(cps), threads)
    state_records = None
    if recs:
        state_records = {
            t: np.concatenate([e["records"][t] for e in extras]) for t in recs
        }
    return ReplicateBatch(
        model="bpve", params={"n": n, "schedule": schedule.label},
        seed=seed, replicates=replicates, checkpoints=cps, counts=counts,
        state_records=state_records,
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
                  method: str = "excursion", max_steps: int = 10**9,
                  record_paths: int = 0, threads: int | None = None) -> ReplicateBatch:
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
    if method == "excursion":
        worker = _excursion_worker(spec, n, cps)
    elif method == "steps":
        worker = _steps_worker(spec, n, cps, x0, max_steps, record_paths)
    else:
        raise ValueError(f"unknown method {method!r}")

    counts, extras = _run_chunked(worker, replicates, seed, len(cps), threads)
    paths = [p for e in extras for p in e.get("paths", [])]
    return ReplicateBatch(
        model="levelwalk",
        params={"n": n, "gamma": spec.gamma, "a": spec.a, "b": spec.b,
                "x0": x0, "method": method},
        seed=seed, replicates=replicates, checkpoints=cps, counts=counts, paths=paths,
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
        return block, {}

    return worker


def _steps_worker(spec: ScaleSpec, n: int, cps: tuple[int, ...], x0: float | None,
                  max_steps: int, record_paths: int):
    grid = _level_grid(spec, n)
    offset = 0
    if x0 is not None:
        grid = np.concatenate(([x0 / spec.b], grid))
        offset = 1
    wg = grid ** (-spec.gamma)
    size = grid.size
    up = np.ones(size)
    up[1 : size - 1] = (wg[:-2] - wg[1:-1]) / (wg[:-2] - wg[2:])
    escape = (wg[-2] - wg[-1]) / wg[-2]
    # position -> ball level index k (odd grid slots) or sphere activation k
    start_pos = offset  # level b
    cp_idx = np.asarray(cps, dtype=int) - 1

    def worker(rng: np.random.Generator, rows: int):
        block = np.zeros((rows, len(cps)), dtype=np.int64)
        paths: list[list[int]] = []
        buf = rng.random(1 << 16)
        buf_pos = 0

        def draw():
            nonlocal buf, buf_pos
            if buf_pos == buf.size:
                buf = rng.random(1 << 16)
                buf_pos = 0
            buf_pos += 1
            return buf[buf_pos - 1]

        for r in range(rows):
            activated = np.zeros(n + 1, dtype=bool)
            failed = np.zeros(n + 1, dtype=bool)
            record = record_paths > len(paths)
            path = [start_pos] if record else None
            pos = start_pos
            steps = 0
            while True:
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(
                        f"level walk exceeded {max_steps} steps in one replicate "
                        f"(gamma={spec.gamma}, n={n}); budget too small for this horizon"
                    )
                if pos == size - 1:
                    if draw() < escape:
                        break
                    pos -= 1
                elif draw() < up[pos]:
                    pos += 1
                else:
                    pos -= 1
                if record:
                    path.append(pos)
                rel = pos - offset
                if rel >= 0:
                    k = rel // 2 + 1
                    if rel % 2 == 1:
                        activated[k] = True
                    elif activated[k]:
                        failed[k] = True
            success = activated[1:] & ~failed[1:]
            block[r] = np.cumsum(success)[cp_idx]
            if record:
                paths.append(path)
        return block, {"paths": paths}

    return worker
