"""Independent brute-force oracles used across the test suite.

Everything here enumerates or sums directly, never sharing code paths with
the implementations it checks.  The point queries ``rho``, ``success_prob``,
``marginals`` and ``column`` read a kernel's data only, in either form: a
distance kernel is a ``WeightSequence`` (rho(i, j) = D(j - i), read from its
reciprocals), any other kernel has Cauchy arrays (rho(i, j) = a_j (x_j - y_i)).
The offspring schedules ``constant_schedule`` and ``table_schedule`` serve
only tests, so they live here and not in ``kernels``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from limitlab.kernels import OffspringSchedule
from limitlab.multisum import WeightSequence


def rho(kernel, i, j):
    """rho(i, j) for j > i >= 0; i and j may be integer arrays, broadcast together.

    A distance kernel gives D(j - i), and inf below its gap, where the
    success probability is 0.
    """
    if isinstance(kernel, WeightSequence):
        gaps = np.asarray(j) - np.asarray(i)
        with np.errstate(divide="ignore"):
            return 1.0 / kernel.reciprocals(int(np.max(gaps)))[gaps]
    a, x, y = kernel.cauchy(int(np.max(j)))
    return a[j] * (x[j] - y[i])


def success_prob(kernel, i: int, j: int) -> float:
    """1 / rho(i, j) for j > i >= 0; equals 1 on the diagonal."""
    if j == i:
        return 1.0
    if j < i or i < 0:
        raise ValueError(f"success_prob needs j >= i >= 0, got ({i}, {j})")
    if isinstance(kernel, WeightSequence):
        return float(kernel.reciprocals(j - i)[j - i])
    return float(1.0 / rho(kernel, i, j))


def marginals(kernel, n: int) -> np.ndarray:
    """Array p with p[j] = success_prob(0, j) for 1 <= j <= n (p[0] = 0)."""
    if isinstance(kernel, WeightSequence):
        return kernel.reciprocals(n)
    p = np.zeros(n + 1)
    p[1:] = 1.0 / rho(kernel, 0, np.arange(1, n + 1))
    return p


def column(kernel, j: int) -> np.ndarray:
    """success_prob(i, j) for i = 1..j-1."""
    return columns(kernel, j)(j)


def columns(kernel, n: int):
    """``column`` for every j <= n, from one read of the kernel's data at n: returns j -> column."""
    if isinstance(kernel, WeightSequence):
        r = kernel.reciprocals(n)
        return lambda j: r[j - 1 : 0 : -1]  # gaps j-1, j-2, ..., 1
    a, x, y = kernel.cauchy(n)
    return lambda j: 1.0 / (a[j] * (x[j] - y[1:j]))


def phi_bruteforce(weight_fn, n: int, m: int, gap: int = 1) -> float:
    """Enumerate all gap-feasible increasing m-tuples in [1, n]."""
    terms = []
    for tup in itertools.combinations(range(1, n + 1), m):
        prev = 0
        prod = 1.0
        feasible = True
        for j in tup:
            if j - prev < gap:
                feasible = False
                break
            prod *= 1.0 / weight_fn(j - prev)
            prev = j
        if feasible:
            terms.append(prod)
    return math.fsum(terms)


def phi_recursion(weight_fn, n: int, m: int, gap: int = 1) -> float:
    """Scalar re-implementation of the level recursion with exact summation."""
    table = [1.0] * (n + 1)
    for _ in range(m):
        nxt = [0.0] * (n + 1)
        for x in range(gap, n + 1):
            nxt[x] = math.fsum(table[x - j] / weight_fn(j) for j in range(gap, x + 1))
        table = nxt
    return table[n]


def count_moment_bruteforce(kernel, n: int, k: int) -> float:
    """E(count^k) by expanding over every index tuple in [1, n]^k.

    Each tuple contributes the joint success probability of its distinct
    sorted indices, which is the product of conditional success
    probabilities along the sorted chain (starting from index 0).
    """
    terms = []
    for tup in itertools.product(range(1, n + 1), repeat=k):
        prev = 0
        prod = 1.0
        for j in sorted(set(tup)):
            prod *= success_prob(kernel, prev, j)
            prev = j
        terms.append(prod)
    return math.fsum(terms)


def psi_bruteforce(kernel, n: int, m: int) -> float:
    """Sum of joint success probabilities over increasing m-tuples."""
    terms = []
    for tup in itertools.combinations(range(1, n + 1), m):
        prev = 0
        prod = 1.0
        for j in tup:
            prod *= success_prob(kernel, prev, j)
            prev = j
        terms.append(prod)
    return math.fsum(terms)


def psi_loop(kernel, n: int, m: int) -> np.ndarray:
    """Tables T[q-1, j] = T_q[j] (0 <= j <= n) by the O(n^2 m) column loop.

    T_1[j] = success_prob(0, j) and T_q[j] = sum_{i<j} T_{q-1}[i] success_prob(i, j),
    each column taken from ``columns``.
    """
    tables = np.zeros((m, n + 1))
    tables[0] = marginals(kernel, n)
    column_at = columns(kernel, n)
    for q in range(1, m):
        for j in range(q + 1, n + 1):
            tables[q, j] = float(np.dot(tables[q - 1, 1:j], column_at(j)))
    return tables


def cauchy_lower_dense(v, x, y) -> np.ndarray:
    """out[j] = sum_{i<j} v[i] / (x[j] - y[i]), row by row with an exact sum of the rounded terms."""
    v, x, y = (np.asarray(a, dtype=float) for a in (v, x, y))
    return np.array([math.fsum(v[:j] / (x[j] - y[:j])) for j in range(v.size)])


def constant_schedule(p: float) -> OffspringSchedule:
    """p_t = p at every generation."""
    return OffspringSchedule(p=lambda t: np.full(t.shape, float(p)), label=f"p={p}")


def table_schedule(p) -> OffspringSchedule:
    """p_t = p[t - 1] from a finite table; a generation past its end raises ValueError."""
    arr = np.asarray(p, dtype=float)

    def pfun(t):
        if t.size and t.max() > arr.size:
            raise ValueError(f"schedule table[{arr.size}] defined up to generation {arr.size}")
        return arr[t - 1]

    return OffspringSchedule(p=pfun, label=f"table[{arr.size}]")


def probability_range(kernel, n: int) -> tuple[float, float]:
    """(min, max) of success_prob over all pairs 0 <= i < j <= n."""
    column_at = columns(kernel, n)
    values = [marginals(kernel, n)[1:]] + [column_at(j) for j in range(2, n + 1)]
    flat = np.concatenate(values)
    return float(flat.min()), float(flat.max())


def scale_success_prob(spec, i: int, j: int) -> float:
    """Level-walk success probability straight from the scale function w(x) = x^-gamma.

    P(success at j | last success at i) = [w(i) / (w(i) - w(j+c))] (w(j) - w(j+c)) / w(j),
    with the first factor 1 for i = 0 and c = a/b.  Plain differences, so keep j small.
    """
    g, c = spec.gamma, spec.a / spec.b

    def w(x):
        return float(x) ** -g

    escape = 1.0 if i == 0 else w(i) / (w(i) - w(j + c))
    return escape * (w(j) - w(j + c)) / w(j)


def levelwalk_steps(spec, n: int, replicates: int, seed: int, x0: float | None = None) -> np.ndarray:
    """Level-walk success counts by the literal step-by-step chain; shape (replicates, n).

    Row r, column k-1 counts the successes among levels 1..k.  The walk moves
    between neighbouring points of the grid b, b + a, 2b, 2b + a, ..., nb + a
    (with x0 below them when given), starting at b.  From an inner point v it
    steps up with the gambler's-ruin probability (w(lo) - w(v)) / (w(lo) - w(hi))
    of the scale function w(x) = x^-gamma, where lo and hi are its neighbours;
    the bottom point steps up; the top point escapes for good with probability
    (w(lo) - w(top)) / w(lo) and otherwise steps down.  Level k succeeds when,
    after the first visit to kb + a, the walk never visits kb again.
    """
    points = [x for k in range(1, n + 1) for x in (k * spec.b, k * spec.b + spec.a)]
    if x0 is not None:
        points.insert(0, x0)
    w = [x**-spec.gamma for x in points]
    top = len(points) - 1
    up = [1.0] + [(w[t - 1] - w[t]) / (w[t - 1] - w[t + 1]) for t in range(1, top)]
    escape = (w[top - 1] - w[top]) / w[top - 1]
    start = 0 if x0 is None else 1
    rng = np.random.default_rng(seed)

    def uniforms():
        while True:
            yield from rng.random(4096)

    u = uniforms()
    counts = np.zeros((replicates, n), dtype=np.int64)
    for r in range(replicates):
        activated = [False] * (n + 1)
        failed = [False] * (n + 1)
        pos = start
        while True:
            if pos == top:
                if next(u) < escape:
                    break
                pos -= 1
            else:
                pos += 1 if next(u) < up[pos] else -1
            if pos >= start:
                k, is_offset = divmod(pos - start, 2)
                if is_offset:
                    activated[k + 1] = True
                elif activated[k + 1]:
                    failed[k + 1] = True
        counts[r] = np.cumsum([activated[k] and not failed[k] for k in range(1, n + 1)])
    return counts


def gw_generations(n: int, levels, replicates: int, seed: int,
                   checkpoints=None, cap: int = 10**9) -> np.ndarray:
    """Critical geometric(1/2) branching counts by stepping every generation.

    Starts from one ancestor; a generation of size y has NB(y, 1/2) children
    (the sum of y geometric(1/2) offspring on {0, 1, ...}).  Entry [i, r, c]
    counts the generations t <= checkpoints[c] of replicate r with
    population exactly ``levels[i]``.  Extinct replicates keep their counts;
    populations of at least ``cap`` stop evolving, since they do not come
    back to a small level within any horizon a test uses.
    """
    cps = (n,) if checkpoints is None else tuple(checkpoints)
    rng = np.random.default_rng(seed)
    idx = np.arange(replicates)
    pop = np.ones(replicates, dtype=np.int64)
    visits = np.zeros((len(levels), replicates), dtype=np.int64)
    counts = np.zeros((len(levels), replicates, len(cps)), dtype=np.int64)
    for t in range(1, max(cps) + 1):
        if idx.size:
            pop = rng.negative_binomial(pop, 0.5)
            for i, level in enumerate(levels):
                visits[i, idx[pop == level]] += 1
            keep = (pop > 0) & (pop < cap)
            idx, pop = idx[keep], pop[keep]
        for c, cp in enumerate(cps):
            if cp == t:
                counts[:, :, c] = visits
    return counts


def bpve_generations(schedule, n: int, replicates: int, seed: int, checkpoints=None) -> np.ndarray:
    """Zero-population counts of branching with immigration, by stepping every generation.

    Starts empty; generation t receives one immigrant, and the Z_{t-1}
    individuals plus the immigrant each have geometric(p_t) offspring on
    {0, 1, ...}, so Z_t is one NB(Z_{t-1} + 1, p_t) draw.  Entry [r, c]
    counts the generations t <= checkpoints[c] of replicate r with Z_t = 0.
    """
    cps = (n,) if checkpoints is None else tuple(checkpoints)
    p = schedule.values(n)
    rng = np.random.default_rng(seed)
    pop = np.zeros(replicates, dtype=np.int64)
    zeros = np.zeros(replicates, dtype=np.int64)
    counts = np.zeros((replicates, len(cps)), dtype=np.int64)
    for t in range(1, max(cps) + 1):
        pop = rng.negative_binomial(pop + 1, p[t - 1])
        zeros += pop == 0
        for c, cp in enumerate(cps):
            if cp == t:
                counts[:, c] = zeros
    return counts


def _chain_arrays(kernel, n: int):
    """x, y and the steps y_t - y_{t-1} of a Cauchy kernel, refused as ``_cauchy_chain_worker`` refuses."""
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
    return x, y, np.diff(y)


def cauchy_chain_scan(kernel, cps: tuple[int, ...]):
    """Chunk worker drawing a Cauchy kernel's success chain generation by generation.

    The scan that ``simulate._cauchy_chain_worker`` replaced, kept as its
    independent check: every live row draws one uniform per generation,
    theta_t = y_{t-1} + (y_t - y_{t-1}) / U_t, and t is a success when
    max_{s<=t} theta_s < x_t.  Every 16 steps the rows whose running maximum
    has reached x_n leave the scan with their count written into the
    checkpoints ahead.  Returns ``worker(rng, rows) -> counts``.
    """
    retire_every = 16
    n = cps[-1]
    x, y, steps = _chain_arrays(kernel, n)
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
            if t % retire_every == 0 and t < n:
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


def masked_cauchy_chain_worker(kernel, cps: tuple[int, ...]):
    """The block-skip scan of ``simulate._cauchy_chain_worker`` with boolean masks, one generation at a time.

    The bookkeeping that the tiled worker replaced, kept so that a test can
    require the same counts, bit for bit, and the same uniforms: blocks end
    at every 16th generation and at every checkpoint, a far row (running
    maximum >= x at the block's end) crosses its block with one uniform, and
    the near rows draw one uniform per generation.  Rows are selected by
    boolean masks and stepped one generation per numpy call.
    """
    retire_every = 16
    n = cps[-1]
    x, y, steps = _chain_arrays(kernel, n)
    x_last = x[n]
    ends = sorted(set(range(retire_every, n, retire_every)).union(cps))

    def worker(rng: np.random.Generator, rows: int):
        counts = np.zeros((rows, len(cps)), dtype=np.int64)
        idx = np.arange(rows)  # the live rows
        seen = np.zeros(rows, dtype=np.int64)
        top = np.zeros(rows)  # max of theta so far; every theta_t >= y_t > 0
        theta = np.empty(rows)
        ci, t0 = 0, 0
        for t1 in ends:
            far = top >= x[t1]
            nfar = np.count_nonzero(far)
            if nfar:  # one draw of the block's largest theta
                block = theta[:nfar]
                rng.random(out=block)
                np.subtract(1.0, block, out=block)
                np.divide(y[t1] - y[t0], block, out=block)
                block += y[t0]
                top[far] = np.maximum(top[far], block)
            if nfar < top.size:  # the near rows step through the block
                near = np.flatnonzero(~far) if nfar else slice(None)
                near_top, near_seen = top[near], seen[near]  # views when every row is near
                step = theta[: near_top.size]
                for t in range(t0 + 1, t1 + 1):
                    rng.random(out=step)
                    np.subtract(1.0, step, out=step)  # U_t on (0, 1]
                    np.divide(steps[t - 1], step, out=step)
                    step += y[t - 1]
                    np.maximum(near_top, step, out=near_top)
                    near_seen += near_top < x[t]
                if nfar:
                    top[near], seen[near] = near_top, near_seen
            t0 = t1
            if t1 == cps[ci]:
                counts[idx, ci] = seen
                ci += 1
            if t1 % retire_every == 0 and t1 < n:
                done = top >= x_last
                if done.any():
                    counts[idx[done], ci:] = seen[done, None]
                    live = ~done
                    idx, seen, top = idx[live], seen[live], top[live]
                    if not idx.size:
                        break
        return counts

    return worker


def masked_renewal_worker(weights: WeightSequence, cps: tuple[int, ...]):
    """``simulate._renewal_worker`` with its live rows kept by a boolean mask.

    The bookkeeping that the index form replaced, kept so that a test can
    require the same counts, bit for bit.  It reads the first-return law
    from ``simulate._first_return_law``: the law is not what it checks.
    """
    from limitlab.simulate import _first_return_law

    n = cps[-1]
    cdf = np.cumsum(_first_return_law(weights, n)[1:])
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


def count_pmf(kernel, n: int) -> np.ndarray:
    """P(count = k), k = 0..n, for the successes in 1..n of a kernel's chain.

    A success at i renews the chain, so u(i, j) = success_prob(i, j) fixes the
    first-passage law by the renewal equation
    f(i, j) = u(i, j) - sum_{i<k<j} f(i, k) u(k, j), and dynamic programming
    over the last success gives the count: with q_k(j) = P(k-th success at j)
    (q_0 = 1 at j = 0), P(count = k) = sum_j q_k(j) (1 - sum_{j<l<=n} f(j, l)).
    O(n^3): meant for n <= 50.
    """
    u = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            u[i, j] = success_prob(kernel, i, j)
    f = np.zeros_like(u)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            f[i, j] = u[i, j] - f[i, i + 1 : j] @ u[i + 1 : j, j]
    stay = 1.0 - f.sum(axis=1)
    q = np.zeros(n + 1)
    q[0] = 1.0
    pmf = np.zeros(n + 1)
    for k in range(n + 1):
        pmf[k] = q @ stay
        q = q @ f
    return pmf


def first_return_recursion(u: np.ndarray) -> np.ndarray:
    """First-return law f(0..n) of the renewal marginals u(1..n), one dot per entry.

    f(k) = u(k) - sum_{0<j<k} f(j) u(k-j): the recursion that
    ``simulate._first_return_law`` solves in blocks, entry by entry.  It
    computes in u's dtype, so a long-double u gives a long-double f; u[0] is
    not read.  O(n^2), with n Python-level dots.
    """
    n = u.size - 1
    u_rev = u[::-1].copy()  # u_rev[n - i] = u(i)
    f = np.zeros_like(u)
    for k in range(1, n + 1):
        f[k] = u[k] - f[1:k] @ u_rev[n - k + 1 : n]
    return f


def tv_to_pmf(counts: np.ndarray, pmf: np.ndarray) -> float:
    """Total-variation distance between the empirical law of integer counts and pmf."""
    freq = np.bincount(counts, minlength=pmf.size) / counts.size
    pad = np.zeros(freq.size)
    pad[: pmf.size] = pmf
    return 0.5 * float(np.abs(freq - pad).sum())


def surjections_by_composition(k: int, m: int) -> int:
    """Sum of multinomials k!/(l_1! ... l_m!) over compositions of k into
    m positive parts."""
    if m == 0:
        return 1 if k == 0 else 0
    total = 0
    for cuts in itertools.combinations(range(1, k), m - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(k - prev)
        term = math.factorial(k)
        for p in parts:
            term //= math.factorial(p)
        total += term
    return total


def geometric_moment_bruteforce(p: float, k: int, tol: float = 1e-14) -> float:
    """Sum i^k (1-p)^i p until the remaining tail bound drops below tol."""
    total = 0.0
    i = 0
    while True:
        w = (1.0 - p) ** i * p
        total += i**k * w
        # crude but safe tail bound: remaining mass times a polynomial cap
        if (1.0 - p) ** (i + 1) * ((i + 1 + k / p) ** k) < tol:
            return total
        i += 1


def power_coefficient(alpha: float, beta: float, k: int, moment: bool) -> float:
    """The power-kernel claims' coefficient, order of operations kept: prod_{j<k}(j + alpha)
    over (alpha beta)^k for the k-th count moment, and that over k! for the k-fold multiple sum."""
    num = 1
    for j in range(k):
        num = num * (j + alpha)
    if moment:
        return num / (alpha * beta) ** k
    return num / (alpha * beta) ** k / math.factorial(k)


def independent_psi(p: np.ndarray, horizons, m: int) -> np.ndarray:
    """Psi_n(1..m) of independent successes with probabilities p[1..n] (p[0] = 0), one row per order.

    Psi_n(k) is the elementary symmetric sum e_k(p_1, ..., p_n), from
    e_k(n) = e_k(n - 1) + p_n e_{k-1}(n - 1) with e_0 = 1.
    """
    rows, prev = [], np.ones(len(p))
    for _ in range(m):
        prev = np.cumsum(p * np.concatenate([[0.0], prev[:-1]]))
        rows.append(prev[list(horizons)])
    return np.array(rows)
