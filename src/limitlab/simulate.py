"""Exact-law Monte Carlo for the three counting models.

All simulators share the same reproducibility scheme: replicates are split
into ceil(replicates / _CHUNK) chunks whose sizes differ by at most one,
each chunk draws from its own independent stream (numpy's default PCG64,
seeded through ``SeedSequence(seed).spawn``), and every chunk writes its
rows to a fixed slice of the output.  Results are therefore a pure
function of (seed, parameters) and independent of how many worker threads
execute the chunks (``LIMITLAB_THREADS``, by default every CPU the process
may run on).  Each simulator returns a ``ReplicateBatch``, which holds only
the counts at the checkpoints; the caller keeps the model, its parameters
and the seed.

Models:

- ``sim_gw``: critical branching with geometric(1/2) offspring; counts
  generations where the population equals a given level.  The chain starts
  afresh at each visit, so the visits form a renewal process.  The
  linear-fractional offspring law gives the visit probabilities in closed
  form, power-series division turns them into the exact first-passage and
  first-return laws, and the sampler draws whole return times from those
  laws instead of stepping every generation.  The generation-by-generation
  chain is kept in the test suite (``tests/oracles.py``) as the
  independent check of this sampler.
- ``sim_bpve`` and ``sim_levelwalk``: branching with one immigrant per
  generation and geometric offspring, counting generations with zero
  population; and a transient level walk with scale weight w(x) = x^(-gamma),
  counting levels never re-entered after their offset partner is first hit.
  Both counts are Markovian Bernoulli chains whose kernel is in Cauchy form
  with a_j (x_j - y_j) = 1 (``BranchingKernel``, ``ScaleKernel``), and both
  simulators hand their kernel to ``_sim_chain``, which draws that chain by
  one scan, ``_cauchy_chain_worker``.  The scan retires a replicate once
  its running maximum reaches x_n at the last checkpoint n: x increases
  and the maximum never falls, so that replicate has no later success.
  The two models are one problem: by
  the Kesten-Kozlov-Spitzer correspondence, the zeros of a
  geometric-offspring branching process with immigration are the cut levels
  of a nearest-neighbour walk.  The generation chain of the
  branching process (``bpve_generations``) and the literal step-by-step walk
  (``levelwalk_steps``) are kept in the test suite (``tests/oracles.py``) as
  the independent checks of this sampler.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import BranchingKernel, OffspringSchedule, RhoKernel, ScaleKernel, ScaleSpec

__all__ = ["ReplicateBatch", "resolve_threads", "sim_bpve", "sim_gw", "sim_levelwalk"]

_CHUNK = 8192  # most rows in one chunk
_RETIRE_EVERY = 16  # steps between retirements in _cauchy_chain_worker


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument wins, then LIMITLAB_THREADS, then every usable CPU.

    Usable CPUs are those of the process's affinity mask where the platform
    reports one, else ``os.cpu_count()``.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("LIMITLAB_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"LIMITLAB_THREADS must be an integer, got {env!r}") from None


@dataclass
class ReplicateBatch:
    """Per-replicate counts at checkpoint horizons from one seeded run.

    ``counts[r, c]`` is the count of replicate r up to ``checkpoints[c]``.
    """

    replicates: int
    checkpoints: tuple[int, ...]
    counts: np.ndarray  # shape (replicates, len(checkpoints)), int64
    cap_hits: int = 0  # always 0: no simulator caps a population

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
    """Run `worker(rng, rows) -> block` over equal chunks; deterministic row placement.

    The replicates split into ceil(replicates / _CHUNK) chunks whose sizes
    differ by at most one, so the layout, and with it every count, depends
    only on ``replicates`` and never on the thread count.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    nchunks = -(-replicates // _CHUNK)
    bounds = [replicates * ci // nchunks for ci in range(nchunks + 1)]
    children = np.random.SeedSequence(int(seed)).spawn(nchunks)
    counts = np.zeros((replicates, ncols), dtype=np.int64)

    def job(ci: int):
        start, stop = bounds[ci], bounds[ci + 1]
        counts[start:stop] = worker(np.random.default_rng(children[ci]), stop - start)

    nthreads = resolve_threads(threads)
    if nthreads > 1 and nchunks > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(job, range(nchunks)))
    else:
        for ci in range(nchunks):
            job(ci)
    return counts


def _gw_return_laws(level: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visit and return-time laws of critical geometric(1/2) branching, on times 0..n.

    Returns (u, f, g):

    - u(k) = P(Z_k = L | Z_0 = L).  From one ancestor Z_k is 0 with
      probability 1 - pi and otherwise geometric on {1, 2, ...} with success
      pi = 1/(k+1), so with b nonzero lines of descent out of L,
      u(k) = sum_b C(L,b) C(L-1,b-1) pi^(2b) (1-pi)^(2(L-b));
    - f, the first-return law to L, from F = 1 - 1/U;
    - g, the first-passage law to L from Z_0 = 1 at times k >= 1, from
      G = V/U with v(k) = P(Z_k = L | Z_0 = 1) = pi^2 (1-pi)^(L-1) for
      k >= 1 and v(0) = 0; for L = 1, g equals f.

    Both divisions solve a(k) = c(k) - sum_{0<j<k} a(j) u(k-j), O(n^2).
    """
    k = np.arange(1, n + 1, dtype=float)
    log_pi, log_q = -np.log1p(k), np.log(k) - np.log1p(k)
    u = np.zeros(n + 1)
    u[0] = 1.0
    for b in range(1, level + 1):
        log_c = math.log(math.comb(level, b) * math.comb(level - 1, b - 1))
        u[1:] += np.exp(log_c + 2 * b * log_pi + 2 * (level - b) * log_q)
    rhs = np.zeros((2, n + 1))
    rhs[0, 1:] = u[1:]
    rhs[1, 1:] = np.exp(2 * log_pi + (level - 1) * log_q)
    fg = np.zeros((2, n + 1))
    u_rev = u[::-1].copy()  # u_rev[n - i] = u(i)
    for j in range(1, n + 1):
        fg[:, j] = rhs[:, j] - fg[:, 1:j] @ u_rev[n - j + 1 : n]
    return u, fg[0], fg[1]


def sim_gw(n: int, level: int = 1, replicates: int = 10_000, seed: int = 0,
           checkpoints: Sequence[int] | None = None,
           threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with population exactly ``level``.

    Starts from a single ancestor; offspring are i.i.d. geometric(1/2) on
    {0, 1, ...} (P(k) = 2^-(k+1)).  By the Markov property the visits to
    ``level`` form a renewal process: the first visit time has the
    first-passage law g and the gaps between visits the first-return law f
    (see ``_gw_return_laws``).  Each replicate draws its visit times by
    inverse CDF on those laws, truncated at the last checkpoint; a draw past
    the truncated mass means no further visit.  Each round of draws ends a
    replicate with probability at least 1 - F(n) (about 0.61 at level 1),
    so a chunk takes a few dozen vectorised rounds whatever n is.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    cps = _validate_checkpoints(checkpoints, n)
    horizon = cps[-1]
    _, f, g = _gw_return_laws(level, horizon)
    cdf_f, cdf_g = np.cumsum(f[1:]), np.cumsum(g[1:])
    bins = np.searchsorted(np.asarray(cps), np.arange(horizon + 1))  # first checkpoint >= t

    def worker(rng: np.random.Generator, rows: int):
        # a time past the truncated law (searchsorted index = horizon) means no visit
        def draw(cdf, size):
            return np.searchsorted(cdf, rng.random(size), side="right") + 1

        visits = np.zeros((rows, len(cps)), dtype=np.int64)
        idx = np.arange(rows)
        t = draw(cdf_g, rows)
        while True:
            live = t <= horizon
            idx, t = idx[live], t[live]
            if not idx.size:
                return np.cumsum(visits, axis=1)
            visits[idx, bins[t]] += 1
            t += draw(cdf_f, idx.size)

    counts = _run_chunked(worker, replicates, seed, len(cps), threads)
    return ReplicateBatch(replicates=replicates, checkpoints=cps, counts=counts)


def _cauchy_chain_worker(kernel: RhoKernel, cps: tuple[int, ...]):
    """Chunk worker drawing the success chain of a Cauchy kernel with a_j (x_j - y_j) = 1.

    Scans generations t = 1..n (n = cps[-1]) on every live row at once: with
    U_t uniform on (0, 1], theta_t = y_{t-1} + (y_t - y_{t-1}) / U_t, and t
    is a success when max_{s<=t} theta_s < x_t.  For v >= y_s,
    P(theta_s < v) = (v - y_s) / (v - y_{s-1}).  After a success at i the old
    maximum lies below x_i <= x_j and never binds again, so the product
    telescopes: P(success at j | success at i, any earlier history)
    = (x_j - y_j) / (x_j - y_i) = 1 / rho(i, j).  The successes therefore
    renew with exactly the kernel's law.

    A row whose running maximum has reached x_n is retired: x increases and
    the maximum never falls, so it stays >= x_n >= x_t and the row has no
    later success.  Every _RETIRE_EVERY steps such rows write their count
    into the checkpoints still ahead and leave the scan; a row is live at t
    with probability (x_n - y_t) / x_n.  Raises ValueError, naming the first
    bad generation, when x is not strictly increasing or a_j (x_j - y_j)
    misses 1 by more than 1e-8 relative: the scan would draw another law.
    """
    n = cps[-1]
    a, x, y = kernel.cauchy(n)
    stalls = np.flatnonzero(np.diff(x[1:]) <= 0) + 2  # generations t with x_t <= x_{t-1}
    if stalls.size:
        raise ValueError(f"{kernel.description}: the chain sampler needs x strictly increasing, "
                         f"but it is not at generation {stalls[0]}")
    off = np.abs(a[1:] * (x[1:] - y[1:]) - 1.0)
    misses = np.flatnonzero(off > 1e-8) + 1
    if misses.size:
        raise ValueError(f"{kernel.description}: the chain sampler needs a_j (x_j - y_j) = 1, "
                         f"but it is off by {off[misses[0] - 1]:.3g} at generation {misses[0]}")
    steps = np.diff(y)
    x_last = x[n]

    def worker(rng: np.random.Generator, rows: int):
        counts = np.zeros((rows, len(cps)), dtype=np.int64)
        idx = np.arange(rows)  # the live rows
        seen = np.zeros(rows, dtype=np.int64)
        top = np.zeros(rows)  # max of theta so far; every theta_t >= y_t > 0
        theta = np.empty(rows)
        ci = 0
        for t in range(1, n + 1):
            rng.random(out=theta)
            np.subtract(1.0, theta, out=theta)  # U_t on (0, 1]
            np.divide(steps[t - 1], theta, out=theta)
            theta += y[t - 1]
            np.maximum(top, theta, out=top)
            seen += top < x[t]
            if t == cps[ci]:
                counts[idx, ci] = seen
                ci += 1
            if t % _RETIRE_EVERY == 0 and t < n:
                done = top >= x_last
                if done.any():
                    counts[idx[done], ci:] = seen[done, None]
                    live = ~done
                    idx, seen, top = idx[live], seen[live], top[live]
                    if not idx.size:
                        break
                    theta = np.empty(idx.size)
        return counts

    return worker


def _sim_chain(kernel: RhoKernel, n: int, replicates: int, seed: int,
               checkpoints: Sequence[int] | None, threads: int | None) -> ReplicateBatch:
    """Counts of the kernel's success chain, drawn by ``_cauchy_chain_worker``."""
    cps = _validate_checkpoints(checkpoints, n)
    counts = _run_chunked(_cauchy_chain_worker(kernel, cps), replicates, seed, len(cps), threads)
    return ReplicateBatch(replicates=replicates, checkpoints=cps, counts=counts)


def sim_bpve(schedule: OffspringSchedule, n: int, replicates: int = 10_000, seed: int = 0,
             checkpoints: Sequence[int] | None = None,
             threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with zero population in the immigration model.

    Starts empty; generation t receives one immigrant, and every individual
    of generation t-1 plus the immigrant reproduces with geometric(p_t)
    offspring.  The zero generations form the chain of
    ``BranchingKernel(schedule)``, drawn by ``_cauchy_chain_worker``; a
    schedule whose kernel breaks down before the last checkpoint raises
    the kernel's ValueError.
    """
    return _sim_chain(BranchingKernel(schedule), n, replicates, seed, checkpoints, threads)


def sim_levelwalk(spec: ScaleSpec, n: int, replicates: int = 10_000, seed: int = 0,
                  checkpoints: Sequence[int] | None = None,
                  threads: int | None = None) -> ReplicateBatch:
    """Count levels k <= checkpoint that are never re-entered after k*b + a.

    The walk starts at level b.  A start x0 in (0, b) below the first level
    only forces the upward passage, so it changes no level-visit law.
    Success of level k means: after the first visit to k*b + a, the walk
    never visits k*b again.  The successes form the chain of
    ``ScaleKernel(spec)``, drawn by ``_cauchy_chain_worker``.
    """
    return _sim_chain(ScaleKernel(spec), n, replicates, seed, checkpoints, threads)
