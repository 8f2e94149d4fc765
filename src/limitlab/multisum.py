"""Exact evaluation of gap-constrained multiple sums and pairwise Psi tables.

The central object is the m-fold sum over increasing index tuples

    Phi(n, m) = sum_{1 <= j_1 < ... < j_m <= n, j_i - j_{i-1} >= n0}
                prod_i 1 / D(j_i - j_{i-1}),          j_0 = 0,

evaluated exactly through the density of the last index, r(j) = 1/D(j) for
j >= n0 and 0 below the gap:

    d_1 = r,    d_q(x) = sum_{j = n0}^{x} r(j) d_{q-1}(x - j),
    Phi(n, q) = sum_{x <= n} d_q(x)    (a running sum of the density).

A direct O(n^2)-per-fold convolution is the reference path.  The FFT path
(O(n log n) per fold) convolves at a 5-smooth length that holds the whole
product, 2n + 1 for a full r: q = 1 needs no transform, d_2 = irfft(r_hat^2)
needs one, each later order an rfft and an irfft, and r one rfft per length.
Its round-off is relative to the largest entry of the density it produces, not
to each entry; negative round-off is clamped to zero, so every table is
nondecreasing in n, and the running sum adds the remaining absolute errors.
With method "auto", horizons <= ``_FFT_THRESHOLD`` are read from a direct table
built at the largest of them, and only the larger horizons from the FFT table,
so a small horizon never carries the error scale of a large one.

A run needs Phi at a few horizons only.  Conditioning on the first index gives

    Phi(h, q) = sum_{j <= h} r(j) Phi(h - j, q - 1),

so a table of order m - 1 holds all the top order needs, and for m >= 3 only
the head of r goes into it.  Gaps summing to at most n leave at most one gap
above tau = floor(n/2), since two would sum past n.  So for q >= 3, with
P_{q-1} the running sum of the (q-1)-fold density of r cut to r[0..tau],

    Phi(h, q) = sum_{j <= min(h, tau)} r(j) P_{q-1}(h - j)
                + q sum_{tau < j <= h} r(j) P_{q-1}(h - j).

The first sum counts the tuples with every gap <= tau.  The second counts
those with one gap above tau, which may sit in any of the q places; there
h - j <= n - tau - 1 <= tau, where P_{q-1} = Phi(., q - 1).  Each path builds
the tables of r[0..tau] to order m - 1 and takes each order q >= 3 at each
horizon h from one dot product of h + 1 terms, against r with its entries
above tau scaled by q.  Orders 1 and 2 come from the running sum of the full r
and one dot against r.  The cut product r * r fits in n + 1 entries and each
later one in n + tau + 1, so the FFT lengths are about n and 1.5n, not 2n,
and the direct path's d_2 costs a quarter of the full product.  An order-2 sum
needs no convolution; an FFT table for order m = 3 makes 2 transforms, and
for m >= 4 it makes 2m - 3 (r is transformed at both lengths).  The dots cost
O(m * sum_h h).  With horizons spread over (2048, 1e5] they tie the order-m
transforms they replace at about 450 horizons for m = 2 and 280 for m = 3
(2-core x86-64); a registry run passes 1-4.  A call with more horizons than
that folds to order m and reads its rows instead.

``psi_curve`` computes the analogous sum Psi_n(m) for a pairwise kernel,
from the tables T_1[j] = 1/rho(0, j) and

    T_q[j] = sum_{i<j} T_{q-1}[i] / rho(i, j),    Psi_n(q) = sum_{j<=n} T_q[j].

``psi_curve`` is the one Psi entry point, for weights and kernels alike, and
a kernel is its data.  A distance kernel rho(i, j) = D(j - i) is a
``WeightSequence``, whose Psi is its Phi, so it takes the convolution path.
Every other kernel is in Cauchy form rho(i, j) = a_j (x_j - y_i) (see
``kernels``), and ``psi_curve`` reads only its arrays (a, x, y): each step is
T_q = (T_{q-1} pushed through the strictly lower-triangular matrix
1/(x_j - y_i)) / a_j, one product of the hierarchical matvec of ``cauchy``,
O(n log n) per fold.  The m - 1 steps of a table push through the same
matrix, so they apply one plan of it (``cauchy._Plan``): the first step forms
the blocks of 1/(x_j - y_i) and keeps up to 8 MiB of them, and the later
steps read those and form only the rest.  An order-2 table makes one
product and keeps nothing.  Each step has the bytes of a ``lower_matvec``
call.  Up to n of about 4000 the budget holds the whole plan, and a kept
step costs a fifth of a formed one: an order-4 table takes 39-44% less time
at n = 200 and 500, and 24-36% less at n = 5000 (see ``cauchy``).  Its far-field terms
carry a relative error of at most 2.3e-14 each, interpolated on both sides;
all terms are positive, so each step adds at most that relative error,
plus round-off, to every T_q[j].

A run evaluates each weight sequence once.  ``experiments.run`` enters
``_shared_weights`` around its runner, and each fold call enters it too,
joining the run's block if one is open.  Inside the block
``WeightSequence.reciprocals`` evaluates an object once, at the largest n
asked, and ``_running_sum`` takes its running sum S once; both hand out
read-only prefixes.  So the fold paths, the claims' S(n) and the first-return
law of one run read the same two arrays, and a prefix has the bits of its own
evaluation, since a weight acts entry by entry and a running sum is
sequential.  The arrays are keyed by object identity and hold their object
while the block lasts: a perturbed model is another object and never reads
its claim's arrays.  Nothing is kept once the outermost block ends.

Memory.  A fold call writes in place only into arrays it allocated; r and S
are the run's.  At order m >= 3 the FFT path holds r, the rows of its table
(m - 2, or m - 1 when it folds to order m) and, per order, the transforms:
r's spectrum while the next order reads it, the product's spectrum and the
inverse transform's output, whose head is copied into the table's last row
(see ``_fold_tables``).  The last order
takes its running sum in place in that row, and the top order's dots scale
the reversed r in place.  So an order-3 call peaks at four arrays of n + 1
floats, r, S, its one table row and the reversed r, and its one fold at
about three, r and two transforms of n / 2 complex entries.  Traced at
n = 5e4 (horizons 100, 5000, n, weights (1 + j)^2): 4.0 arrays at order 3,
6.1 at order 4, 8.6 at order 5, and 12.3 with all 5e4 horizons at order 3.

The module computes sums and states no limits: the limit each experiment
claims for them is built beside it, in ``experiments``.
"""

from __future__ import annotations

import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cauchy import LEAF, _Plan
from .special import _shown, lambda_weight, script_O

__all__ = [
    "WeightSequence",
    "phi",
    "phi_curve",
    "phi_fold_curves",
    "psi_curve",
    "u_sum",
    "u_sum_curve",
]

# direct convolution below this horizon, FFT above
_FFT_THRESHOLD = 2048
# the top orders come from dots while sum_h (h + 1) <= this many terms per table
# cell, else from one more fold; the dots tie the fold at about 250 (FFT,
# n = 1e5, m = 2), 140 (m = 3) and 70 (direct, n = 2048; 2-core x86-64)
_DOTS_PER_CELL = 128


class _Shared(threading.local):
    """Per thread, the arrays of each weight sequence shared in a ``_shared_weights`` block, by id.

    Not a ContextVar: one set in the context makes numpy's error-state lookup
    walk the context on every ufunc call, 4% of a 20-entry add.
    """

    arrays: dict | None = None


_SHARED = _Shared()


@contextmanager
def _shared_weights():
    """Within the block, each weight sequence is evaluated once (see ``WeightSequence``).

    A nested block joins the outer one; the arrays die when the outermost ends.
    """
    outermost = _SHARED.arrays is None
    if outermost:
        _SHARED.arrays = {}
    try:
        yield
    finally:
        if outermost:
            _SHARED.arrays = None


@dataclass(frozen=True)
class WeightSequence:
    """A positive distance weight D(n) with its gap and label.

    ``weight`` must accept numpy integer arrays and act entry by entry (all
    the built-in families do); ``gap`` is the minimal allowed spacing n0
    between consecutive indices.  ``reciprocals`` is the one evaluation of the
    weight: the fold tables, the samplers and the claims' scales S(n) all read
    it.  Within a ``_shared_weights`` block (one ``experiments.run``, or one
    fold call) it evaluates each object once, at the largest n asked so far,
    and hands out read-only prefixes; ``_running_sum`` shares S the same way.
    The arrays are keyed by object identity, so a perturbed model never reads
    its claim's arrays; outside a block nothing is kept.
    """

    weight: Callable[[np.ndarray], np.ndarray]
    gap: int = 1
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.gap, numbers.Integral) or self.gap < 1:
            raise ValueError(f"gap must be a positive integer, got {self.gap!r}")

    def reciprocals(self, n: int) -> np.ndarray:
        """Array r with r[j] = 1/D(j) for gap <= j <= n, zero below the gap."""
        shared = _SHARED.arrays
        held = None if shared is None else shared.get(id(self))
        if held is not None and held[1].size > n:
            return held[1][: n + 1]
        # the weight first, so that r is not allocated under its temporaries
        d = np.asarray(self.weight(np.arange(self.gap, n + 1)) if n >= self.gap else (), dtype=float)
        if not (d > 0).all():  # NaN fails too; +inf is a zero probability
            raise ValueError(f"weights must be positive ({self.label or 'weight'})")
        r = np.zeros(n + 1)
        np.divide(1.0, d, out=r[self.gap:])
        if shared is not None:
            r.flags.writeable = False
            shared[id(self)] = [self, r, None]  # holding self keeps its id from being reused
        return r


@_shared_weights()
def _running_sum(weights: WeightSequence, n: int) -> np.ndarray:
    """Read-only S[x] = sum_{j <= x} 1/D(j) for 0 <= x <= n, shared as ``reciprocals`` is."""
    weights.reciprocals(n)
    held = _SHARED.arrays[id(weights)]
    if held[2] is None:
        held[2] = np.cumsum(held[1])
        held[2].flags.writeable = False
    return held[2][: n + 1]


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length the FFT handles at full speed."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            pow2 = 1 << (-(-n // odd) - 1).bit_length()  # smallest 2^a >= n / odd
            best = min(best, odd * pow2)
            odd *= 3
        odd5 *= 5
    return best


def _fold_tables(weights: WeightSequence, n: int, m: int, method: str, r: np.ndarray) -> np.ndarray:
    """Tables T[q-2, x] = Phi(x, q) for 0 <= x <= n, 2 <= q <= m; method "direct" or "fft".

    Each row is the running sum of the density d_q = r * d_{q-1}, d_1 = r, with
    ``r`` = ``weights.reciprocals(n)`` or a head of it; a shorter ``r`` is read
    as zero beyond its end.  Order 1, the running sum of r itself, is not a
    fold and is not built here.  Each fold convolves only the supports: d_q is
    zero past s_q = min(n, s_r + s_{q-1}), and the FFT length is the 5-smooth
    length >= max(n, s_r + s_{q-1}) + 1.  d_q is also zero below q * gap; the
    FFT's round-off there is set to zero, else the dots of the top order would
    pick it up where no tuple fits.

    Memory: besides r and the table, one order holds r's spectrum, the
    product's spectrum and the inverse transform's output.  Every order copies
    the head of that output into the table's last row, clamped: the long
    buffer is freed before the next order's transforms, and the last row
    holds d_q until order q + 1 has transformed it, when its own row already
    holds the running sum.  The last order's row is that copy, summed in
    place.  r's spectrum is kept only while the next order convolves at the
    same length: else order 2 squares it in place and a later order frees it
    before its inverse transform.  The table is allocated after order 2's
    transforms, so that their peak, the highest when r's spectrum is kept
    (a full r), holds no row of it.
    """
    if m < 2:
        return np.empty((0, n + 1))
    s_r = r.size - 1
    r_hat = None  # the spectrum of r, kept while the next order convolves at the same length
    dens, s = r, s_r  # d_{q-1} and the last index where it may be nonzero
    for q in range(2, m + 1):
        end = s_r + s  # last index of the full product r * d_{q-1}
        if method == "fft":
            size = _smooth_length(max(n, end) + 1)  # no wrap-around into indices 0..n
            r_hat = np.fft.rfft(r, size) if r_hat is None else r_hat
            reread = q < m and _smooth_length(max(n, s_r + min(n, end)) + 1) == size
            # d_1 = r has spectrum r_hat, squared in place unless order 3 reads it
            spec = np.fft.rfft(dens, size) if q > 2 else r_hat.copy() if reread else r_hat
            spec *= r_hat
            r_hat = r_hat if reread else None  # freed before the inverse transform
            head = np.fft.irfft(spec, size)[: n + 1]
            del spec
            np.maximum(head, 0.0, out=head)  # FFT round-off may graze below zero
            head[: q * weights.gap] = 0.0  # no tuple fits below q gaps
        else:
            head = np.convolve(r, dens[: s + 1])[: n + 1]
        if q == 2:  # after order 2's transforms, so that their peak holds no table
            tables = np.empty((m - 1, n + 1))
        dens = tables[-1]  # d_q until order q + 1 has read it; the last order's own row
        dens[: head.size] = head
        dens[head.size:] = 0.0
        del head  # every order copies: the long buffer is freed before the next order's transforms
        s = min(n, end)
        np.cumsum(dens, out=tables[q - 2])  # in place for the last order
    return tables


@_shared_weights()
def _fold_curves(weights: WeightSequence, horizons, m: int, method: str) -> np.ndarray:
    """F[q-1, i] = Phi(horizons[i], q) for q = 1..m, from one table per path.

    With method "auto" the horizons <= ``_FFT_THRESHOLD`` take the direct path
    and the others the FFT path; "direct" or "fft" forces one path for all.
    Both paths read prefixes of one evaluation of r and of its running sum S,
    shared for the call or the run (``_shared_weights``), and order 1 is S.
    The FFT path runs first and S is taken after its folds, so S does not
    sit in memory under their long temporaries.
    Each path builds a table only when m >= 3: orders 2..m - 1, from
    r[0..n // 2], with no row for order 1.  Every order q >= 2 comes from the
    first-index identity Phi(h, q) = sum_{i <= h} Phi(i, q - 1) r(h - i), one
    contiguous dot product per horizon against a reversed copy of r, read from
    S for q = 2; for q >= 3 the table is the cut one and the entries of r
    above n // 2 count q times (see the module docstring).  The same formula
    serves every order whatever m is, and the cut depends on n only, so a
    lower order is bit-identical to its own run.  The dots cost
    sum_h (h + 1) multiply-adds per order.  When that exceeds
    ``_DOTS_PER_CELL`` (n + 1), the path instead folds the full r to order m
    and reads orders 2..m from its rows; the choice depends on the horizons
    only, never on m, so lower orders still match their own runs.
    """
    if method not in ("auto", "direct", "fft"):
        raise ValueError(f"unknown method {method!r}")
    if m < 1:
        raise ValueError("fold count m must be >= 1")
    hs = _horizons(horizons)
    direct = hs <= _FFT_THRESHOLD if method == "auto" else np.full(hs.shape, method == "direct")
    r_top = weights.reciprocals(int(hs.max()))  # one evaluation for both paths
    curves = np.empty((m, hs.size))
    for sel, path in ((~direct, "fft"), (direct, "direct")):  # the long folds end before S is taken
        if not sel.any():
            continue
        h_sel = hs[sel]
        n = int(h_sel.max())
        r = r_top[: n + 1]
        if (h_sel + 1).sum() > _DOTS_PER_CELL * (n + 1):  # many horizons: one more fold is cheaper
            curves[1:, sel] = _fold_tables(weights, n, m, path, r)[:, h_sel]
            curves[0, sel] = _running_sum(weights, n)[h_sel]
            continue
        tau = n // 2  # two gaps above tau sum past n, so a tuple has at most one
        if m > 2:  # orders >= 3 need only the tables of r cut to r[0..tau]
            tables = _fold_tables(weights, n, m - 1, path, r[: tau + 1])
        run = _running_sum(weights, n)
        curves[0, sel] = run[h_sel]
        r_rev = r[::-1].copy()  # r_rev[n - h + i] = r[h - i]: both operands contiguous
        for q in range(2, m + 1):
            row, w = run, r_rev
            if q > 2:  # the one gap above tau may sit in any of the q places
                row, w = tables[q - 3], r_rev if q == m else r_rev.copy()  # the top order scales r_rev itself
                w[: n - tau] *= q
            # einsum, not np.dot: a threaded BLAS dot rounds differently per thread count
            curves[q - 1, sel] = [np.einsum("i,i->", row[: h + 1], w[n - h:]) for h in h_sel]
    return curves


def _horizons(horizons) -> np.ndarray:
    """Horizons as a nonnegative int array; refuses empty, negative or non-integral input."""
    raw = np.asarray(horizons)
    if raw.size == 0:
        raise ValueError("horizons must not be empty")
    if raw.dtype.kind in "iuf":
        bad = ~np.isfinite(raw) | (raw != np.round(raw))
    else:
        bad = np.ones(raw.shape, dtype=bool)
    if bad.any():
        raise ValueError(f"horizons must be integers, got {raw[bad].flat[0].item()!r}")
    hs = raw.astype(int)
    if hs.min() < 0:
        raise ValueError(f"horizons must be nonnegative, got {hs.min()}")
    return hs


def phi(weights: WeightSequence, n: int, m: int) -> float:
    """Exact gap-constrained m-fold sum of products of reciprocal weights."""
    if n < 1 or m < 1:
        raise ValueError("phi requires n >= 1 and m >= 1")
    return float(_fold_curves(weights, [n], m, "auto")[m - 1, 0])


def phi_curve(weights: WeightSequence, horizons, m: int, method: str = "auto") -> np.ndarray:
    """Phi(h, m) for every horizon h; ``_fold_curves`` picks the path for each, or ``method`` forces one."""
    return _fold_curves(weights, horizons, m, method)[m - 1]


def phi_fold_curves(weights: WeightSequence, horizons, m: int) -> np.ndarray:
    """Matrix F[q-1, h] = Phi(h, q) for all fold counts q = 1..m at once."""
    return _fold_curves(weights, horizons, m, "auto")


def u_sum(k: int, m: int, n0: int, s: float, n: int) -> float:
    """k-fold gap-n0 sum with iterated-log weights of depth m and exponent s."""
    return phi(_u_weights(m, n0, s), n, k)


def u_sum_curve(k: int, m: int, n0: int, s: float, horizons) -> np.ndarray:
    return phi_curve(_u_weights(m, n0, s), horizons, k)


def _u_weights(m: int, n0: int, s: float) -> WeightSequence:
    threshold = script_O(m)
    if n0 < threshold:
        raise ValueError(f"gap n0 must be >= script_O({m}) = {threshold}, got {_shown(n0)}")
    return WeightSequence(weight=lambda i: lambda_weight(m, s, i), gap=n0,
                          label=f"lambda(m={m}, s={s})")


def psi_curve(kernel, horizons, m: int) -> np.ndarray:
    """Matrix P[q-1, h] = Psi_h(q) for q = 1..m over the given horizons.

    ``kernel`` is a ``WeightSequence`` (a distance kernel) or a Cauchy-form
    ``kernels.RhoKernel``.
    """
    hs = _horizons(horizons)
    if m < 1:
        raise ValueError("fold count m must be >= 1")
    if isinstance(kernel, WeightSequence):
        return phi_fold_curves(kernel, hs, m)
    return np.cumsum(_psi_tables(kernel, int(hs.max()), m), axis=1)[:, hs]


def _psi_tables(kernel, n: int, m: int) -> np.ndarray:
    """T[q-1, j] = T_q[j] for a Cauchy-form kernel, 0 <= j <= n; the m - 1 steps apply one plan."""
    a, x, y = kernel.cauchy(n)
    tables = np.zeros((m, n + 1))
    tables[0, 1:] = 1.0 / (a[1:] * (x[1:] - y[0]))
    if n <= LEAF:
        # one leaf has no far field: the step is the dense triangle, column by column
        for q in range(1, m):
            for j in range(q + 1, n + 1):
                tables[q, j] = tables[q - 1, 1:j] @ kernel.cond_column(j)
        return tables
    plan = _Plan(x[1:], y[1:], m - 1)
    for q in range(1, m):
        tables[q, 1:] = plan.apply(tables[q - 1, 1:]) / a[1:]
    return tables
