"""Exact-law Monte Carlo for the three counting models.

All simulators share the same reproducibility scheme: replicates are split
into ceil(replicates / _CHUNK) chunks whose sizes differ by at most one,
each chunk draws from its own independent stream (numpy's default PCG64,
seeded through ``SeedSequence(seed).spawn``), and every chunk writes its
rows to a fixed slice of the output.  Results are therefore a pure
function of (seed, parameters) and independent of how many worker threads
execute the chunks (``LIMITLAB_THREADS``, by default every CPU the process
may run on).  A chunk holds up to 65536 rows, because threads split whole
chunks and only calls on arrays this long pay for handing the GIL between
threads.  With 8192-row chunks each numpy call of a worker lasted a few
microseconds, and the chain scan of the ``c3-cutsphere`` kernel (1e4
replicates, n = 500) took 59 ms at 2 threads against 38 ms at 1 on a
2-core host; at 65536 rows it is one chunk, runs without a thread pool and
took 7.3-11.5 ms, and 2e5 replicates took 95-111 ms at 2 threads against
118-167 ms at 1 (medians of 21 and 7 calls, three runs each, on a shared
2-core host).  ``c3-cutsphere`` itself now draws renewal gaps (see
``sim_levelwalk``): 2.4 ms at 1e4 replicates, and 36-38 ms at 1 thread
against 40 ms at 2 for 2e5 (medians of 25 and 7 calls, three runs), since
its rounds of draws shrink to a few rows each.  The chunk
workers select rows by integer indices, never by boolean masks: at 16,384
rows with 15% selected, gathering and scattering two arrays through a mask
took 190-210 us, and through ``np.flatnonzero`` and its indices 31-35 us.
Each simulator returns a ``ReplicateBatch``, which holds only the counts
at the checkpoints; the caller keeps the model, its parameters and the
seed.

Models:

- ``sim_gw``: critical branching with geometric(1/2) offspring; counts
  generations where the population is 1.  The chain starts afresh at each
  visit, so the visits are the success chain of a distance kernel,
  D(k) = (1+k)^2, the same kernel whose exact moments the ``thy-gw``
  experiment checks.  A distance kernel is its ``WeightSequence``:
  ``_sim_chain`` hands the weights to ``_renewal_worker``, which turns their
  reciprocals into the first-return law (``_first_return_law``, the renewal
  equation solved in blocks of 64 entries) and draws whole gaps between
  visits from that law instead of stepping every generation.  The
  generation-by-generation chain is kept in the test suite
  (``tests/oracles.py``) as the independent check of this sampler.
- ``sim_bpve`` and ``sim_levelwalk``: branching with one immigrant per
  generation and geometric offspring, counting generations with zero
  population; and a transient level walk with scale weight w(x) = x^(-gamma),
  counting levels never re-entered after their offset partner is first hit.
  Both counts are Markovian Bernoulli chains whose kernel is in Cauchy form
  with a_j (x_j - y_j) = 1 (``kernel_branching``, ``kernel_scale``).  At
  gamma = 1 the level walk's kernel is the distance kernel D(k) = 1 + k/c
  with c = a/b: ``_levelwalk_kernel`` returns that ``WeightSequence``, and
  both ``sim_levelwalk``, which draws renewal gaps as ``sim_gw`` does, and
  the exact moments of ``experiments`` read it.  Otherwise both
  simulators hand their Cauchy kernel to ``_sim_chain``, which draws that
  chain by one running-maximum scan, ``_cauchy_chain_worker``, in blocks of
  at most 16 generations.  A replicate whose running maximum already
  reaches x at the block's end cannot succeed inside the block, and crosses
  it with one uniform that draws the block's largest step exactly; the
  others cross it a tile of generations at a time.  On the ``c3-cutsphere``
  kernel at its size fewer than a third of the scan's uniforms are drawn.
  The scan retires a replicate once its running maximum reaches x_n at the
  last checkpoint n: x increases and the maximum never falls, so that
  replicate has no later success and draws nothing more.  Retired rows
  leave the scan's arrays only once they are a quarter of them.  The two
  models are one problem: by the Kesten-Kozlov-Spitzer correspondence, the
  zeros of a geometric-offspring branching process with immigration are the
  cut levels of a nearest-neighbour walk.  The generation chain of the
  branching process (``bpve_generations``), the literal step-by-step walk
  (``levelwalk_steps``) and the scan without blocks, one uniform per row
  and generation (``cauchy_chain_scan``), are kept in the test suite
  (``tests/oracles.py``) as the independent checks of this sampler.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import OffspringSchedule, RhoKernel, ScaleSpec, kernel_branching, kernel_scale
from .multisum import WeightSequence, _horizons
from .special import _shown

__all__ = ["ReplicateBatch", "resolve_threads", "sim_bpve", "sim_gw", "sim_levelwalk"]

# Most rows in one chunk.  Threads split only whole chunks, and at 65536 rows
# a worker's numpy calls are long enough to pay for the GIL handoff between
# two threads (8192-row chunks ran slower at 2 threads than at 1).
_CHUNK = 65536
# Generations between retirements in _cauchy_chain_worker, and its longest skip
# block: a row that cannot succeed in a block crosses it with one uniform.
_RETIRE_EVERY = 16
# Most floats in one tile of _cauchy_chain_worker's near rows (512 KiB, the budget
# of cauchy._SLICE); one generation of more rows than this is a tile of its own.
_TILE = 1 << 16
# Share of retired rows at which _cauchy_chain_worker drops them from its arrays.
_LEAVE = 0.25
# Entries per block of _first_return_law.  At n = 2000 (medians of 15, two
# cores) blocks of 32, 64 and 128 took 1.19-1.26, 1.00-1.06 and 1.09-1.13 ms;
# at n = 5000, 128 beat 64 by 12%, and at 3e4 neither won on all three kernels.
_BLOCK = 64
# Most terms of one dot in _first_return_law.  OpenBLAS splits a dot of more
# than 10^4 terms among its threads: with 30000-term segments f had other bytes
# at 2 BLAS threads than at 1 (n = 3e4).  At n = 3e4 segments of 4096, 8192
# and 16384 took 0.157, 0.128 and 0.136 s.
_SEGMENT = 8192
# D(k) = (1+k)^2: the distance kernel of critical geometric branching's visits to 1 (see sim_gw)
_SQUARES = WeightSequence(weight=lambda i: (1.0 + i) ** 2, label="(1+n)^2")


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument wins, then LIMITLAB_THREADS, then every usable CPU.

    An explicit count or LIMITLAB_THREADS below 1 raises ValueError.

    Usable CPUs are those of the process's affinity mask where the platform
    reports one, else ``os.cpu_count()``.
    """
    if threads is not None:
        if not isinstance(threads, numbers.Integral) or threads < 1:
            raise ValueError(f"threads must be a positive integer, got {_shown(threads)}")
        return int(threads)
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
        raise ValueError(f"LIMITLAB_THREADS must be a positive integer, got {_shown(env)}")
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
    """Checkpoints as strictly increasing ints in [1, n]; refuses fractional or non-finite values."""
    n = int(_horizons([n])[0])
    cps = (n,) if checkpoints is None else tuple(_horizons(checkpoints).tolist())
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, {n}]")
    return cps


def _run_chunked(worker, replicates: int, seed: int, ncols: int, threads: int | None):
    """Run `worker(rng, rows) -> block` over equal chunks; deterministic row placement.

    The replicates split into ceil(replicates / _CHUNK) chunks whose sizes
    differ by at most one, so the layout, and with it every count, depends
    only on ``replicates`` and never on the thread count.  Threads split
    whole chunks, so a run of one chunk, or at one thread, builds no pool.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    # first, so that a count no machine can hold fails here, before the per-chunk lists are built
    counts = np.zeros((replicates, ncols), dtype=np.int64)
    nchunks = -(-replicates // _CHUNK)
    bounds = [replicates * ci // nchunks for ci in range(nchunks + 1)]
    children = np.random.SeedSequence(int(seed)).spawn(nchunks)

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


def _first_return_law(weights: WeightSequence, n: int) -> np.ndarray:
    """First-return law f on times 0..n of the success chain of the distance kernel D.

    A success renews the chain, so with u(0) = 1 and
    u(k) = 1/D(k) = ``weights.reciprocals(n)[k]`` the gaps between successes
    have the law f(k) = u(k) - sum_{0<j<k} f(j) u(k-j).  By Kaluza's theorem a
    log-convex u, such as (1+k)^(-s), gives a law; otherwise f may go
    negative or sum past 1, and ValueError names the first such gap
    (D(n) = n gives f(2) = -0.5).

    The solve takes the same O(n^2) arithmetic as that recursion, in blocks
    of _BLOCK entries.  f(1..63) come from the recursion itself.  A later
    block k0 <= k < k0 + 64 first takes its right-hand side
    u(k) - sum_{0<j<k0} f(j) u(k-j), one ``np.correlate`` per segment of at
    most _SEGMENT terms j, and then solves its unit lower-triangular
    Toeplitz system in u(0..63) with one product by the inverse matrix.
    Since 1/U(z) = 1 - F(z), that inverse is the Toeplitz matrix of
    (1, -f(1), ..., -f(63)), which the first block gives.  Medians against
    the per-entry recursion (``tests/oracles.first_return_recursion``), one
    range over D(k) = (1+k)^s with s in {1.5, 2, 3}, on a 2-core host:

    ========  ==============  ==============
    n         per entry       blocks
    ========  ==============  ==============
    2000      7.1-7.2 ms      1.00-1.06 ms
    5000      11.8-13.2 ms    3.5-3.8 ms
    3e4       0.16-0.20 s     0.14-0.15 s
    1e5       1.24-1.44 s     1.27-1.37 s
    ========  ==============  ==============

    At 1e5 the recursion's dots are long enough for OpenBLAS to split among
    its threads, which is also why its bytes depend on the thread count.
    Here no dot is that long, so f has the same bytes at any BLAS thread
    count.  f(1..63) equal the recursion's bit for bit.  Every entry lies
    within 1e-13 relative of the exact law at n = 200 and within 3e-15 of a
    long-double recursion at n = 2e4 and 1e5, where the per-entry recursion
    is up to 2.3e-14 off.
    """
    u = weights.reciprocals(n)
    f = np.zeros(n + 1)
    head = min(n, _BLOCK - 1)
    u_rev = u[head::-1].copy()  # u_rev[head - i] = u(i)
    for k in range(1, head + 1):
        f[k] = u[k] - f[1:k] @ u_rev[head - k + 1 : head]
    c = np.zeros(_BLOCK)
    c[0], c[1 : head + 1] = 1.0, -f[1 : head + 1]  # 1 - F(z), unused when n < _BLOCK
    inverse = np.tril(c[np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))])
    for k0 in range(_BLOCK, n + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, n + 1)
        rhs = u[k0:k1].copy()
        for j0 in range(1, k0, _SEGMENT):
            j1 = min(j0 + _SEGMENT, k0)
            rhs -= np.correlate(u[k0 - j1 + 1 : k1 - j0], f[j1 - 1 : j0 - 1 : -1], "valid")  # sum_j f(j) u(k - j)
        f[k0:k1] = inverse[: k1 - k0, : k1 - k0] @ rhs
    bad = np.flatnonzero((f < 0) | (np.cumsum(f) > 1))
    if bad.size:
        raise ValueError(f"{weights.label or 'distance'}: the first-return law goes negative or sums past 1 "
                         f"at gap {bad[0]}, so no chain has this kernel")
    return f


def _renewal_worker(weights: WeightSequence, cps: tuple[int, ...]):
    """Chunk worker drawing the success chain of a distance kernel as a renewal process.

    Every gap between successes, the first one from time 0 included, has
    the first-return law f of ``_first_return_law``.  Each replicate draws
    its success times by inverse CDF on f, truncated at the last checkpoint
    n; a draw past the truncated mass means no further success.  Each round
    of draws ends a replicate with probability at least 1 - F(n), about 0.61
    for D(k) = (1+k)^2, where a chunk takes a few dozen vectorised rounds
    whatever n is.  A draw at or past F(n) ends its row with no search, so
    only the draws that can land go through ``np.searchsorted``.  Visits are
    counted in one flat array at row * len(cps) + bin, and the checkpoints
    are summed by adding each column into the next.
    """
    n, ncps = cps[-1], len(cps)
    cdf = np.cumsum(_first_return_law(weights, n)[1:])
    mass = cdf[-1]  # F(n)
    bins = np.searchsorted(np.asarray(cps), np.arange(n + 1))  # first checkpoint >= t

    def worker(rng: np.random.Generator, rows: int):
        visits = np.zeros(rows * ncps, dtype=np.int64)  # [row * ncps + c]: the row's visits in (cps[c - 1], cps[c]]
        base = np.arange(0, rows * ncps, ncps)  # row * ncps of each live row
        t = np.zeros(rows, dtype=np.int64)
        while True:
            u = rng.random(base.size)
            # a draw at or past F(n) is a gap past n: no success, and nothing to search
            land = np.flatnonzero(u < mass)
            t = t[land] + np.searchsorted(cdf, u[land], side="right") + 1
            live = np.flatnonzero(t <= n)
            base, t = base[land[live]], t[live]
            if not base.size:
                break
            visits[base + bins[t]] += 1
        visits = visits.reshape(rows, ncps)
        for c in range(1, ncps):
            visits[:, c] += visits[:, c - 1]
        return visits

    return worker


def _cauchy_chain_worker(kernel: RhoKernel, cps: tuple[int, ...]):
    """Chunk worker drawing the success chain of a Cauchy kernel with a_j (x_j - y_j) = 1.

    With U_t uniform on (0, 1], theta_t = y_{t-1} + (y_t - y_{t-1}) / U_t,
    and t is a success when max_{s<=t} theta_s < x_t.  For v >= y_s,
    P(theta_s < v) = (v - y_s) / (v - y_{s-1}).  After a success at i the old
    maximum lies below x_i <= x_j and never binds again, so the product
    telescopes: P(success at j | success at i, any earlier history)
    = (x_j - y_j) / (x_j - y_i) = 1 / rho(i, j).  The successes therefore
    renew with exactly the kernel's law.

    The generations 1..n (n = cps[-1]) split into blocks (t0, t1] that end
    at every _RETIRE_EVERY-th generation and at every checkpoint, and each
    block splits the live rows by their running maximum M at t0.  A far row
    has M >= x_{t1} >= x_t for every t in the block, so it has no success
    there, and only its maximum at t1 is needed.  The same telescoping gives
    that maximum in one draw: for v >= y_{t1},
    P(max_{t0<s<=t1} theta_s <= v) = prod_s (v - y_s) / (v - y_{s-1})
    = (v - y_{t1}) / (v - y_{t0}), which is the law of
    y_{t0} + (y_{t1} - y_{t0}) / U, so a far row sets
    M = max(M, y_{t0} + (y_{t1} - y_{t0}) / U) with one uniform.  The
    block's far draws are scattered into a zeroed vector of all rows, and
    one ``np.maximum`` takes that vector into M with no gather: it is exact,
    because M >= 0 and a maximum rounds nothing.  The near rows
    (M < x_{t1}) cross the block a tile of generations at a time, at most
    _TILE floats per tile: one draw fills a (generations, rows) array
    generation by generation, so the stream is the one a scan of one
    generation per call draws; one subtract, divide and add turn it into
    theta; one ``np.maximum`` per generation carries the running maximum
    down the tile, and one comparison with x, written into a reused bool
    buffer and summed over the tile as bytes, counts the successes (a tile
    spans at most 16 generations, so the byte sum cannot wrap).  Rows are
    selected by integer indices, taken once per block.  Counts are written
    at block ends, which include the checkpoints.

    A row whose running maximum has reached x_n is retired: x increases and
    the maximum never falls, so it stays >= x_n >= x_t and the row has no
    later success.  At every _RETIRE_EVERY-th generation such rows write
    their count into the checkpoints still ahead and are retired: their M
    becomes NaN, which compares false with every x, so no later block counts
    them far or near and they draw nothing.  A row is live at t with
    probability (x_n - y_t) / x_n.  The retired rows leave ``idx``, ``seen``
    and M only once they are a share _LEAVE of them, since compacting the
    arrays at every retire point cost more than carrying the retired rows
    (at the ``c3-cutsphere`` size a quarter beat every retire point in 37
    of 40 interleaved calls, and never compacting in 35 of 40).  When
    every row has retired the scan ends.  Raises ValueError,
    naming the first bad generation, when x is not strictly increasing or
    a_j (x_j - y_j) misses 1 by more than 1e-8 relative: the scan would draw
    another law.
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
    # block ends: every _RETIRE_EVERY-th generation before n, every checkpoint
    ends = sorted(set(range(_RETIRE_EVERY, n, _RETIRE_EVERY)).union(cps))

    def worker(rng: np.random.Generator, rows: int):
        counts = np.zeros((rows, len(cps)), dtype=np.int64)
        idx = np.arange(rows)  # the rows still in the arrays
        seen = np.zeros(rows, dtype=np.int64)
        top = np.zeros(rows)  # max of theta so far, NaN once retired; every theta_t >= y_t > 0
        buf = np.empty(max(_TILE, rows))  # the far draw, then each tile of theta
        hits = np.empty(buf.size, dtype=bool)  # each tile's theta < x
        spread = np.zeros(rows)  # the far draw at the far rows, 0 at the others
        retired, ci, t0 = 0, 0, 0
        for t1 in ends:
            far = np.flatnonzero(top >= x[t1])  # NaN compares false: a retired row is neither far nor near
            if far.size:  # one draw of the block's largest theta
                block = buf[: far.size]
                rng.random(out=block)
                np.subtract(1.0, block, out=block)
                np.divide(y[t1] - y[t0], block, out=block)
                block += y[t0]
                cand = spread[: top.size]
                cand[far] = block
                np.maximum(top, cand, out=top)  # exact, and top >= 0 keeps the other rows
                cand.fill(0.0)
            width = top.size - far.size - retired
            if width:  # the near rows cross the block a tile of generations at a time
                near = np.flatnonzero(top < x[t1]) if width < top.size else slice(None)
                near_top, near_seen = top[near], seen[near]  # views when every row is near
                gens = max(1, _TILE // width)  # generations per tile
                for s0 in range(t0, t1, gens):
                    s1 = min(s0 + gens, t1)
                    th = buf[: (s1 - s0) * width].reshape(s1 - s0, width)  # th[r]: theta at s0 + 1 + r
                    rng.random(out=th)  # generation-major, as one generation at a time would draw
                    np.subtract(1.0, th, out=th)  # U on (0, 1]
                    np.divide(steps[s0:s1, None], th, out=th)
                    th += y[s0:s1, None]
                    np.maximum(near_top, th[0], out=th[0])
                    for r in range(1, s1 - s0):  # th[r] becomes the running max
                        np.maximum(th[r - 1], th[r], out=th[r])
                    hit = hits[: th.size].reshape(th.shape)
                    np.less(th, x[s0 + 1 : s1 + 1, None], out=hit)
                    near_seen += hit.view(np.uint8).sum(axis=0, dtype=np.uint8)  # a tile is <= 16 generations
                    near_top[:] = th[-1]
                if width < top.size:
                    top[near], seen[near] = near_top, near_seen
            t0 = t1
            if t1 == cps[ci]:
                counts[idx, ci] = seen
                ci += 1
            if t1 % _RETIRE_EVERY == 0 and t1 < n:
                done = np.flatnonzero(top >= x_last)
                if done.size:
                    counts[idx[done], ci:] = seen[done, None]
                    top[done] = np.nan
                    retired += done.size
                    if retired == top.size:
                        break
                    if retired >= _LEAVE * top.size:
                        live = np.flatnonzero(top < x_last)
                        idx, seen, top = idx[live], seen[live], top[live]
                        retired = 0
        return counts

    return worker


def _sim_chain(kernel: RhoKernel | WeightSequence, n: int, replicates: int, seed: int,
               checkpoints: Sequence[int] | None, threads: int | None) -> ReplicateBatch:
    """Counts of the kernel's success chain, with the worker chosen by the kernel's form.

    A distance kernel, given as its ``WeightSequence``, renews at every
    success and goes to ``_renewal_worker``; a Cauchy-form kernel goes to the
    running-max scan ``_cauchy_chain_worker``, which refuses a kernel it
    cannot draw exactly.
    """
    cps = _validate_checkpoints(checkpoints, n)
    make_worker = _renewal_worker if isinstance(kernel, WeightSequence) else _cauchy_chain_worker
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
    return _sim_chain(_SQUARES, n, replicates, seed, checkpoints, threads)


def sim_bpve(schedule: OffspringSchedule, n: int, replicates: int = 10_000, seed: int = 0,
             checkpoints: Sequence[int] | None = None,
             threads: int | None = None) -> ReplicateBatch:
    """Count generations t <= n with zero population in the immigration model.

    Starts empty; generation t receives one immigrant, and every individual
    of generation t-1 plus the immigrant reproduces with geometric(p_t)
    offspring.  The zero generations form the chain of
    ``kernel_branching(schedule)``, drawn by ``_cauchy_chain_worker``; a
    schedule whose kernel breaks down before the last checkpoint raises
    the kernel's ValueError.
    """
    return _sim_chain(kernel_branching(schedule), n, replicates, seed, checkpoints, threads)


def sim_levelwalk(spec: ScaleSpec, n: int, replicates: int = 10_000, seed: int = 0,
                  checkpoints: Sequence[int] | None = None,
                  threads: int | None = None) -> ReplicateBatch:
    """Count levels k <= checkpoint that are never re-entered after k*b + a.

    The walk starts at level b.  A start x0 in (0, b) below the first level
    only forces the upward passage, so it changes no level-visit law.
    Success of level k means: after the first visit to k*b + a, the walk
    never visits k*b again.  The successes form the chain of
    ``kernel_scale(spec)``, drawn by ``_cauchy_chain_worker``.

    At gamma = 1 (``c3`` and ``c4`` at their defaults) that kernel depends on
    j - i alone: with c = a/b, a_j = 1/c, x_j = j + c and y_i = i, so
    1/rho(i, j) = c/(j - i + c), the distance kernel D(k) = 1 + k/c, which
    ``_levelwalk_kernel`` returns.  Its u(k) = c/(k + c) is log-convex, so the
    cut levels renew with a first-return law, and ``_renewal_worker`` draws
    whole gaps between them instead of scanning every level.  At 1e4
    replicates, one thread, the draw takes 2.4 ms against 7.2-7.6 ms for the
    scan to n = 500 and 4.8 ms against 26 ms to 2000.  The O(n^2)
    first-return law sets the crossover: the gaps still win at n = 2e4
    (57 ms against 167 ms), tie at 5e4 (295 ms against 288 ms) and lose at
    1e5 (1.19 s against 0.57 s).  Medians of 3 to 25 calls on a shared
    2-core host.  With several chunks the gaps run slower at 2 threads than
    at 1, since their rounds shrink to a few rows each and every numpy call
    is too short to pay for handing the GIL between threads: ``c3``'s spec
    at 2e5 replicates (4 chunks) to n = 500 took 36-38 ms at 1 thread and
    40 ms at 2 (medians of 7, three runs).  Only 65537 replicates or more
    make several chunks; no registry default does.
    """
    return _sim_chain(_levelwalk_kernel(spec), n, replicates, seed, checkpoints, threads)


def _levelwalk_kernel(spec: ScaleSpec) -> RhoKernel | WeightSequence:
    """The level walk's kernel: at gamma = 1 the distance kernel D(k) = 1 + k/c, else ``kernel_scale(spec)``."""
    kernel = kernel_scale(spec)
    if spec.gamma == 1.0:  # 1/rho(i, j) = c/(j - i + c): a distance kernel
        c = spec.offset_ratio
        return WeightSequence(weight=lambda k: 1.0 + k / c, label=kernel.description)
    return kernel
