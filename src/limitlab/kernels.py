"""Pairwise success-probability kernels for dependent Bernoulli counting.

A kernel assigns to each index pair j > i >= 0 a value rho(i, j) >= 1 whose
reciprocal is the probability of a success at j given the most recent
success at i (i = 0 encodes the unconditional marginal).

The power, branching and scale-function families share one data form, the
Cauchy form

    rho(i, j) = a_j * (x_j - y_i),    0 <= i < j,    y_0 = 0,

held as three arrays built once per horizon:

- power      rho(i, j) = beta j^(1-alpha) (j^alpha - i^alpha):
             a_j = beta j^(1-alpha),  x_j = j^alpha,  y_i = i^alpha.
- branching  rho(i, j) = 1 + sum_{t=i+1}^{j} m_t m_{t+1} ... m_j,
             m_t = (1-p_t)/p_t.  With L_t = sum_{u<=t} log m_u and
             H_t = sum_{u=0}^{t} exp(-L_u) (H_{-1} = 0):
             a_j = exp(L_j),  x_j = H_j,  y_i = H_{i-1}.
- scale      hitting-probability ratios of a transient level walk with
             w(x) = x^(-gamma) and offset ratio c = a/b:
             a_j = 1 / ((j+c)^gamma g_j),  x_j = (j+c)^gamma,  y_i = i^gamma,
             where g_j = (w(j) - w(j+c)) / w(j) is formed via expm1/log1p.

Every query (``rho``, ``success_prob``, ``marginal_probs``, ``cond_column``)
reads these arrays, and ``multisum.psi_curve`` pushes whole tables through
the matrix 1/(x_j - y_i).  The arrays must be finite, with a > 0, y strictly
increasing and x_j > y_{j-1}; where a family's data break down (a branching
schedule with constant p != 1/2 overflows exp(L) or exp(-L) within a few
thousand generations, and its H stops growing in floating point well before
that), a query reaching that generation raises ValueError naming it.

The branching and scale families also satisfy rho(j, j) = a_j (x_j - y_j) = 1
(e^(L_j) (H_j - H_{j-1}) = 1, and (1 - (j/(j+c))^gamma) / g_j = 1), with x
increasing.  Then 1/rho(i, j) = (x_j - y_j)/(x_j - y_i) telescopes into a
product of per-generation factors, which is what lets
``simulate._cauchy_chain_worker`` draw their chains exactly.  The power family
has x = y, so a_j (x_j - y_j) = 0 and that sampler refuses it.

Distance kernels rho(i, j) = D(j - i) are not of this form: they keep their
own queries, their Psi tables come from the convolution engine, and
``simulate._renewal_worker`` draws their chains from the first-return law.

Kernels are total over j > i >= 0: queries never range-check the resulting
probability, because the moment algebra is well defined for any positive
weights and some acceptance sweeps deliberately use boundary families
(e.g. D(n) = n, whose unit-gap value is exactly 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .multisum import WeightSequence

__all__ = [
    "BranchingKernel",
    "DistanceKernel",
    "OffspringSchedule",
    "PowerKernel",
    "RhoKernel",
    "ScaleKernel",
    "ScaleSpec",
    "kernel_branching",
    "kernel_distance",
    "kernel_power",
    "kernel_scale",
]


class RhoKernel:
    """A kernel in Cauchy form; subclasses supply ``_cauchy_arrays``."""

    description = "generic"
    _data: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    _first_bad: int | None = None

    def _cauchy_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, x, y) at indices 1..n."""
        raise NotImplementedError

    def cauchy(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (a, x, y) of length n + 1 with rho(i, j) = a[j] (x[j] - y[i]), 0 <= i < j <= n.

        Index 0 holds y_0 = 0; a[0] and x[0] are NaN, since no pair ends at 0.
        The arrays are cached, and a larger n rebuilds them at exactly n.
        """
        if self._data is None or self._data[0].size <= n:
            with np.errstate(over="ignore", invalid="ignore"):
                a, x, y = self._cauchy_arrays(n)
                y_prev = np.concatenate([[0.0], y[:-1]])
                ok = (np.isfinite(a) & np.isfinite(x) & np.isfinite(y) & (a > 0)
                      & (y > y_prev) & (x > y_prev))
            bad = np.flatnonzero(~ok)
            self._first_bad = int(bad[0]) + 1 if bad.size else None
            self._data = (np.concatenate([[np.nan], a]), np.concatenate([[np.nan], x]),
                          np.concatenate([[0.0], y]))
        if self._first_bad is not None and n >= self._first_bad:
            raise ValueError(
                f"{self.description}: Cauchy data not finite or not increasing at generation "
                f"{self._first_bad}; horizons must stay below it"
            )
        a, x, y = self._data
        return a[: n + 1], x[: n + 1], y[: n + 1]

    def rho(self, i, j):
        """a_j (x_j - y_i); i and j may be integer arrays, broadcast together."""
        a, x, y = self.cauchy(int(np.max(j)))
        return a[j] * (x[j] - y[i])

    def success_prob(self, i: int, j: int) -> float:
        """1 / rho(i, j) for j > i >= 0; equals 1 on the diagonal."""
        if j == i:
            return 1.0
        if j < i or i < 0:
            raise ValueError(f"success_prob needs j >= i >= 0, got ({i}, {j})")
        return float(1.0 / self.rho(i, j))

    def marginal_probs(self, n: int) -> np.ndarray:
        """Array p with p[j] = success_prob(0, j) for 1 <= j <= n (p[0] = 0)."""
        a, x, y = self.cauchy(n)
        p = np.zeros(n + 1)
        p[1:] = 1.0 / (a[1:] * (x[1:] - y[0]))
        return p

    def cond_column(self, j: int) -> np.ndarray:
        """success_prob(i, j) for i = 1..j-1."""
        a, x, y = self.cauchy(j)
        return 1.0 / (a[j] * (x[j] - y[1:j]))

    def __repr__(self):
        return f"<{type(self).__name__} {self.description}>"


class DistanceKernel(RhoKernel):
    """rho(i, j) = D(j - i) for all j > i >= 0 (not in Cauchy form).

    ``weights`` holds D; the convolution engine folds it directly.
    """

    def __init__(self, weights: WeightSequence):
        self.weights = weights
        self.description = weights.label or "distance"
        self._recip = np.zeros(1)

    def _reciprocals(self, n: int) -> np.ndarray:
        if self._recip.size <= n:
            self._recip = self.weights.reciprocals(n)
        return self._recip

    def rho(self, i: int, j: int) -> float:
        """D(j - i); infinite below the weights' gap, where success_prob is 0."""
        with np.errstate(divide="ignore"):
            return 1.0 / self._reciprocals(j - i)[j - i]

    def marginal_probs(self, n: int) -> np.ndarray:
        return self._reciprocals(n)[: n + 1].copy()

    def cond_column(self, j: int) -> np.ndarray:
        r = self._reciprocals(j)
        return r[j - 1 : 0 : -1]  # gaps j-1, j-2, ..., 1 for i = 1..j-1


class PowerKernel(RhoKernel):
    """rho(i, j) = beta * j^(1-alpha) * (j^alpha - i^alpha); rho(0, j) = beta*j."""

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0 or beta <= 0:
            raise ValueError("power kernel requires alpha > 0 and beta > 0")
        self.alpha = alpha
        self.beta = beta
        self.description = f"power(alpha={alpha}, beta={beta})"

    def _cauchy_arrays(self, n: int):
        j = np.arange(1, n + 1, dtype=float)
        x = j**self.alpha
        return self.beta * j ** (1.0 - self.alpha), x, x


@dataclass(frozen=True)
class OffspringSchedule:
    """Per-generation geometric offspring parameter p_t, t = 1, 2, ...

    ``p`` maps integer arrays of generations to parameters in (0, 1); the
    per-individual offspring law is P(k) = p_t (1 - p_t)^k with mean
    m_t = (1 - p_t)/p_t.  Table-backed schedules carry their length in
    ``limit``.
    """

    p: Callable[[np.ndarray], np.ndarray]
    label: str
    limit: int | None = None

    def values(self, n: int) -> np.ndarray:
        if self.limit is not None and n > self.limit:
            raise ValueError(f"schedule {self.label} defined up to generation {self.limit}")
        t = np.arange(1, n + 1)
        p = np.asarray(self.p(t), dtype=float)
        if np.any((p <= 0.0) | (p >= 1.0)):
            raise ValueError(f"offspring parameters must lie in (0, 1) ({self.label})")
        return p

    @staticmethod
    def constant(p: float) -> "OffspringSchedule":
        return OffspringSchedule(p=lambda t: np.full(t.shape, float(p)), label=f"p={p}")

    @staticmethod
    def from_decay(r: Callable[[np.ndarray], np.ndarray], label: str = "") -> "OffspringSchedule":
        """p_t = 1/2 - r_t/4 for a given decay sequence r_t in [0, 1]."""

        def pfun(t):
            rt = np.asarray(r(t), dtype=float)
            if np.any((rt < 0.0) | (rt > 1.0)):
                raise ValueError("decay sequence must lie in [0, 1]")
            return 0.5 - rt / 4.0

        return OffspringSchedule(p=pfun, label=label or "p=1/2-r_t/4")

    @staticmethod
    def harmonic_drift(B: float) -> "OffspringSchedule":
        """p_t = 1/2 - B/(4t): offspring mean 1 + B/t + O(t^-2), B in [0, 1).

        This is the decay family with r_t = B/t; it produces the
        distance asymptotics rho(i, j) ~ j^B (j^(1-B) - i^(1-B)) / (1-B).
        """
        if not 0.0 <= B < 1.0:
            raise ValueError(f"drift strength B must lie in [0, 1), got {B}")
        return OffspringSchedule.from_decay(lambda t: B / t, label=f"p=1/2-{B}/(4t)")

    @staticmethod
    def from_table(p: Sequence[float]) -> "OffspringSchedule":
        arr = np.asarray(p, dtype=float)
        return OffspringSchedule(
            p=lambda t: arr[np.asarray(t) - 1], label=f"table[{arr.size}]", limit=arr.size
        )


class BranchingKernel(RhoKernel):
    """rho(i, j) = 1 + sum_{t=i+1}^{j} m_t m_{t+1} ... m_j with m_t = (1-p_t)/p_t.

    Cauchy form from log-space prefixes: a_j = exp(L_j), x_j = H_j and
    y_i = H_{i-1}, where L_t = sum_{u<=t} log m_u and H_t = sum_{u<=t} exp(-L_u).
    """

    def __init__(self, schedule: OffspringSchedule):
        self.schedule = schedule
        self.description = f"branching({schedule.label})"

    def _cauchy_arrays(self, n: int):
        p = self.schedule.values(n)
        L = np.zeros(n + 1)
        np.cumsum(np.log1p(-p) - np.log(p), out=L[1:])
        H = np.cumsum(np.exp(-L))
        return np.exp(L[1:]), H[1:], H[:-1]


@dataclass(frozen=True)
class ScaleSpec:
    """Exponent and level geometry for a transient level walk.

    ``gamma`` is the scale-function exponent (w(x) = x^(-gamma) decreasing),
    ``a`` the success offset and ``b`` the level spacing; levels live at
    k*b and k*b + a, so b > a > 0 keeps them interleaved.
    """

    gamma: float
    a: float
    b: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"scale exponent gamma must be positive, got {self.gamma}")
        if not self.b > self.a > 0:
            raise ValueError(f"need spacing b > offset a > 0, got a={self.a}, b={self.b}")

    @property
    def offset_ratio(self) -> float:
        return self.a / self.b

    @classmethod
    def from_dimension(cls, d: float, a: float, b: float) -> "ScaleSpec":
        """Brownian motion in dimension d (> 2): gamma = d - 2."""
        if d <= 2:
            raise ValueError(f"transient level walk needs dimension d > 2, got {d}")
        return cls(gamma=d - 2.0, a=a, b=b)

    @classmethod
    def from_gbm(cls, mu: float, sigma: float, a: float, b: float) -> "ScaleSpec":
        """Geometric Brownian motion with drift mu and volatility sigma.

        Requires 2*mu > sigma^2 (otherwise the process is recurrent or
        drifts to zero and no level is ever cut); gamma = 2*mu/sigma^2 - 1.
        """
        if sigma <= 0:
            raise ValueError("volatility sigma must be positive")
        if 2.0 * mu <= sigma**2:
            raise ValueError(f"need 2*mu > sigma^2 for transience, got mu={mu}, sigma={sigma}")
        return cls(gamma=2.0 * mu / sigma**2 - 1.0, a=a, b=b)


class ScaleKernel(RhoKernel):
    """Success probabilities of the level walk in units of the spacing b.

    With c = a/b and w(x) = x^(-gamma):

        success_prob(0, j) = g_j = (w(j) - w(j+c)) / w(j)
        success_prob(i, j) = [w(i) / (w(i) - w(j+c))] * g_j
                           = g_j (j+c)^gamma / ((j+c)^gamma - i^gamma)

    g_j = -expm1(-gamma log1p(c/j)) avoids cancellation at large j.
    """

    def __init__(self, spec: ScaleSpec):
        self.spec = spec
        self.description = f"scale(gamma={spec.gamma}, a={spec.a}, b={spec.b})"

    def _cauchy_arrays(self, n: int):
        g, c = self.spec.gamma, self.spec.offset_ratio
        j = np.arange(1, n + 1, dtype=float)
        x = (j + c) ** g
        gap = -np.expm1(-g * np.log1p(c / j))
        return 1.0 / (x * gap), x, j**g


def kernel_distance(weight, label: str = "") -> DistanceKernel:
    """Distance kernel from a weight callable D (accepting integer arrays)."""
    return DistanceKernel(WeightSequence(weight=weight, label=label))


def kernel_power(alpha: float, beta: float) -> PowerKernel:
    return PowerKernel(alpha, beta)


def kernel_branching(p) -> BranchingKernel:
    """Branching kernel from an OffspringSchedule or a bounded table of p_t."""
    if isinstance(p, OffspringSchedule):
        return BranchingKernel(p)
    return BranchingKernel(OffspringSchedule.from_table(p))


def kernel_scale(spec: ScaleSpec) -> ScaleKernel:
    return ScaleKernel(spec)
