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
  generations where the population is 1.  The chain starts afresh at each
  visit, so the visits are the success chain of a distance kernel,
  D(k) = (1+k)^2, the same kernel whose exact moments the ``thy-gw``
  experiment checks.  ``_sim_chain`` hands a distance kernel to
  ``_renewal_worker``, which turns it into its first-return law
  (``_first_return_law``, power-series division of the marginals) and draws
  whole gaps between visits from that law instead of stepping every
  generation.  The generation-by-generation chain is kept in the test suite
  (``tests/oracles.py``) as the independent check of this sampler.
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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import BranchingKernel, DistanceKernel, OffspringSchedule, RhoKernel, ScaleKernel, ScaleSpec
from .multisum import WeightSequence

__all__ = ["ReplicateBatch", "resolve_threads", "sim_bpve", "sim_gw", "sim_levelwalk"]

_CHUNK = 8192  # most rows in one chunk
_RETIRE_EVERY = 16  # steps between retirements in _cauchy_chain_worker
# D(k) = (1+k)^2: the distance kernel of critical geometric branching's visits to 1 (see sim_gw)
_SQUARES = WeightSequence(weight=lambda i: (1.0 + i) ** 2, label="(1+n)^2")


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
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"LIMITLAB_THREADS must be a positive integer, got {env!r}")
    return count


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


def _first_return_law(kernel: DistanceKernel, n: int) -> np.ndarray:
    """First-return law f on times 0..n of a distance kernel's success chain.

    A success renews the chain, so with u(0) = 1 and
    u(k) = ``kernel.marginal_probs(n)[k]`` the gaps between successes have
    the law f(k) = u(k) - sum_{0<j<k} f(j) u(k-j), O(n^2).  By Kaluza's
    theorem a log-convex u, such as (1+k)^(-s), gives a law; otherwise f may
    go negative or sum past 1, and ValueError names the first such gap
    (D(n) = n gives f(2) = -0.5).
    """
    u = kernel.marginal_probs(n)
    u_rev = u[::-1].copy()  # u_rev[n - i] = u(i)
    f = np.zeros(n + 1)
    for k in range(1, n + 1):
        f[k] = u[k] - f[1:k] @ u_rev[n - k + 1 : n]
    bad = np.flatnonzero((f < 0) | (np.cumsum(f) > 1))
    if bad.size:
        raise ValueError(f"{kernel.description}: the first-return law goes negative or sums past 1 "
                         f"at gap {bad[0]}, so no chain has this kernel")
    return f


def _renewal_worker(kernel: DistanceKernel, cps: tuple[int, ...]):
    """Chunk worker drawing the success chain of a distance kernel as a renewal process.

    Every gap between successes, the first one from time 0 included, has
    the first-return law f of ``_first_return_law``.  Each replicate draws
    its success times by inverse CDF on f, truncated at the last checkpoint
    n; a draw past the truncated mass means no further success.  Each round
    of draws ends a replicate with probability at least 1 - F(n), about 0.61
    for D(k) = (1+k)^2, where a chunk takes a few dozen vectorised rounds
    whatever n is.
    """
    n = cps[-1]
    cdf = np.cumsum(_first_return_law(kernel, n)[1:])
    bins = np.searchsorted(np.asarray(cps), np.arange(n + 1))  # first checkpoint >= t

    def worker(rng: np.random.Generator, rows: int):
        visits = np.zeros((rows, len(cps)), dtype=np.int64)
        idx = np.arange(rows)
        t = np.zeros(rows, dtype=np.int64)
        while True:
            # a gap past the truncated law (searchsorted index n) puts t past n: no success
            t += np.searchsorted(cdf, rng.random(idx.size), side="right") + 1
            live = t <= n
            idx, t = idx[live], t[live]
            if not idx.size:
                return np.cumsum(visits, axis=1)
            visits[idx, bins[t]] += 1

    return worker


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
    """Counts of the kernel's success chain, with the worker chosen by the kernel's form.

    A ``DistanceKernel`` renews at every success and goes to
    ``_renewal_worker``; every other kernel goes to the running-max scan
    ``_cauchy_chain_worker``, which refuses a kernel it cannot draw exactly.
    """
    cps = _validate_checkpoints(checkpoints, n)
    make_worker = _renewal_worker if isinstance(kernel, DistanceKernel) else _cauchy_chain_worker
    counts = _run_chunked(make_worker(kernel, cps), replicates, seed, len(cps), threads)
    return ReplicateBatch(replicates=replicates, checkpoints=cps, counts=counts)


def sim_gw(n: int, replicates: int = 10_000, seed: int = 0,
           checkpoints: Sequence[int] | None = None,
           threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with population exactly 1.

    Starts from a single ancestor; offspring are i.i.d. geometric(1/2) on
    {0, 1, ...} (P(k) = 2^-(k+1)).  From one ancestor Z_k is 0 with
    probability 1 - pi and otherwise geometric on {1, 2, ...} with success
    pi = 1/(k+1), so P(Z_k = 1 | Z_0 = 1) = pi^2 = (1+k)^-2.  By the Markov
    property every visit to 1 starts the chain afresh, so the visits form
    the success chain of the distance kernel D(k) = (1+k)^2, drawn by
    ``_renewal_worker``.
    """
    return _sim_chain(DistanceKernel(_SQUARES), n, replicates, seed, checkpoints, threads)


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
