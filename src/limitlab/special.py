"""Special functions and named constants with certified-accuracy tail sums.

Everything here is elementary but load-bearing: iterated logarithms with
their admissibility threshold, the weight ``(log_m i)^s * prod_{j<m} log_j i``
built from them, and truncated series of reciprocal weights carrying a
certified bound on the omitted tail.  The moments of the Gamma limit laws are
``stats.LimitLaw``'s.  ``_shown`` is the one-line form in which every refusal
of the package echoes a rejected value; it lives here because this module
imports nothing from the package, so every other module can read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TailSum",
    "iterated_log",
    "lambda_weight",
    "script_O",
    "zeta_tail",
]

# the most terms zeta_tail sums exactly before it gives up on its tolerance
_MAX_TERMS = 50_000_000
# terms zeta_tail hands to fsum at a time, as Python floats (about 0.5 MiB)
_BLOCK = 1 << 14


def _shown(value) -> str:
    """repr(value) for a one-line refusal; past 40 characters, the repr of its first 40 and its length."""
    text = value if isinstance(value, str) else str(value)
    return repr(value) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def iterated_log(m: int, x: float) -> float:
    """log applied m times; ``iterated_log(0, x) == x``.

    Requires every intermediate value to stay positive, i.e. x >= the
    admissibility threshold ``script_O(m)`` for integer arguments.
    """
    if m < 0:
        raise ValueError("iteration depth must be nonnegative")
    v = float(x)
    for _ in range(m):
        if v <= 0.0:
            raise ValueError(f"iterated log undefined: reached {v} before depth {m} on input {x}")
        v = math.log(v)
    return v


def script_O(m: int) -> int:
    """Smallest integer n with ``iterated_log(m, n) > 0``.

    Equals floor(e^^(m)) + 1 where e^^(m) is the m-fold iterated
    exponential of 0 (0, 1, e, e^e, ...).  Overflows float range for
    m >= 5; no experiment in this package needs depth beyond 2.
    """
    if m < 0:
        raise ValueError("iteration depth must be nonnegative")
    t = 0.0
    for _ in range(m):
        try:
            t = math.exp(t)
        except OverflowError:  # m >= 5: e^^4 = 3.8e6 and exp of that overflows
            raise OverflowError(f"script_O(m={_shown(m)}) overflows the float range; depth m must be <= 4") from None
    return int(math.floor(t)) + 1


def lambda_weight(m: int, s: float, i):
    """The weight ``(log_m i)^s * prod_{j=0}^{m-1} log_j i`` (empty product = 1).

    ``i`` is an integer or an integer array; every entry must be >= script_O(m)
    so that every factor is positive.
    """
    v = np.asarray(i, dtype=float)
    if np.any(v < script_O(m)):
        raise ValueError(f"lambda_weight needs i >= {script_O(m)} at depth m={m}, got i={v.min():g}")
    prod = None
    for _ in range(m):
        prod = v if prod is None else prod * v
        v = np.log(v)
    return v**s if prod is None else v**s * prod


@dataclass(frozen=True)
class TailSum:
    """A series value plus a certified bound on the truncation error.

    The reported ``value`` differs from the exact infinite sum by at most
    ``truncation_bound``.
    """

    value: float
    truncation_bound: float


def zeta_tail(m: int, s: float, n0: int, tol: float = 1e-10) -> TailSum:
    """Sum of f(i) = ``1 / lambda_weight(m, s, i)`` over i >= n0, certified to ``tol``.

    Converges for s > 1; ``n0`` >= script_O(m) is required.  The terms
    n0 <= i < N and the estimate of the tail i >= N form one exact sum
    (``math.fsum``, fed ``_BLOCK`` terms at a time, so memory stays flat in
    N), and the tail is enclosed.  Every factor log_j x of the
    weight is concave and positive, so log f = -s log(log_m x) -
    sum_{j<m} log(log_j x) is convex: f is log-convex, hence convex.  For a
    convex f each trapezoid lies above its strip and each midpoint value below
    its strip's mean, so with the closed-form antiderivative
    I(x) = (log_m x)^(1-s) / (s-1) of f,

        I(N) + f(N)/2 <= sum_{i >= N} f(i) <= I(N - 1/2).

    The tail reported is the Euler-Maclaurin value I(N) + f(N)/2 - f'(N)/12
    kept inside the enclosure, with f'(N) from the five-point central
    difference of f(N-2), ..., f(N+2); the three-point one would leave an error
    f^(3)(N)/72, 3e-15 for zeta(3).  The certified error is the value's larger
    distance to either end, about |f'(N)|/12.  N is the first of
    script_O(m) + 2 doubled until that error is <= tol (1536 for 1/i^2 at
    1e-10), or n0 if larger, so it depends on (m, s, tol) alone and the tails
    of two nearby n0 match.
    """
    if s <= 1.0:
        raise ValueError(f"series of reciprocal weights diverges for s <= 1 (got s={s})")
    threshold = script_O(m)
    if n0 < threshold:
        raise ValueError(f"n0 must be >= script_O({m}) = {threshold}, got {n0}")

    def tail(cut: int) -> tuple[float, float]:
        f = 1.0 / lambda_weight(m, s, np.arange(cut - 2, cut + 3))
        slope = (8.0 * (f[3] - f[1]) - (f[4] - f[0])) / 12.0
        lower = iterated_log(m, cut) ** (1.0 - s) / (s - 1.0) + 0.5 * f[2]
        upper = iterated_log(m, cut - 0.5) ** (1.0 - s) / (s - 1.0)
        est = min(max(lower - slope / 12.0, lower), upper)
        return est, float(max(est - lower, upper - est))

    cutoff = threshold + 2
    est, bound = tail(cutoff)
    while bound > tol:
        cutoff *= 2
        if cutoff - n0 > _MAX_TERMS:
            raise RuntimeError(f"tolerance {tol} not reachable within {_MAX_TERMS} terms (m={m}, s={s})")
        est, bound = tail(cutoff)
    if n0 > cutoff:
        cutoff = n0
        est, bound = tail(cutoff)
    blocks = ((1.0 / lambda_weight(m, s, np.arange(i, min(i + _BLOCK, cutoff)))).tolist()
              for i in range(n0, cutoff, _BLOCK))
    value = math.fsum(itertools.chain.from_iterable(itertools.chain(blocks, [[est]])))
    return TailSum(value=value, truncation_bound=bound)

