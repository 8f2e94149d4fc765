"""Pairwise success-probability kernels for dependent Bernoulli counting.

A kernel assigns to each index pair j > i >= 0 a value rho(i, j) >= 1 whose
reciprocal is the probability of a success at j given the most recent
success at i (i = 0 encodes the unconditional marginal).

The power, branching and scale-function families share one data form, the
Cauchy form

    rho(i, j) = a_j * (x_j - y_i),    0 <= i < j,    y_0 = 0,

held as three arrays.  A kernel is a value: ``RhoKernel`` is a frozen pair of
a description and the function that builds the arrays, and ``cauchy(n)``
builds them on each call and hands them to the caller, who owns them.  The
factories ``kernel_power``, ``kernel_branching`` and ``kernel_scale`` are the
families' constructors, each checking its parameters and closing over them:

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
             At gamma = 1, a_j = 1/c, x_j = j + c and y_i = i, so
             rho(i, j) = 1 + (j - i)/c depends on j - i alone: the same
             chain as the distance kernel D(k) = 1 + k/c.  There
             ``simulate._levelwalk_kernel`` hands the level walk's sampler
             and its exact moments that ``WeightSequence`` instead.

The engines read these arrays and nothing else: ``multisum.psi_curve``
pushes whole tables through the matrix 1/(x_j - y_i), and ``cond_column``
gives one column of 1/rho.  ``cauchy`` refuses, naming the kernel, arrays
that are not three of length n.  The arrays must be finite, with a > 0, y
strictly increasing and x_j > y_{j-1}; where a family's data break down (a
branching schedule with constant p != 1/2 overflows exp(L) or exp(-L) within
a few thousand generations, and its H stops growing in floating point well
before that), ``cauchy`` at that generation or beyond raises ValueError
naming it.

The branching and scale families also satisfy rho(j, j) = a_j (x_j - y_j) = 1
(e^(L_j) (H_j - H_{j-1}) = 1, and (1 - (j/(j+c))^gamma) / g_j = 1), with x
increasing.  Then 1/rho(i, j) = (x_j - y_j)/(x_j - y_i) telescopes into a
product of per-generation factors, which is what lets
``simulate._cauchy_chain_worker`` draw their chains exactly.  The power family
has x = y, so a_j (x_j - y_j) = 0 and that sampler refuses it.

Distance kernels rho(i, j) = D(j - i) are not of this form and need no class:
a ``multisum.WeightSequence`` is the kernel.  ``psi_curve`` folds its weights
with the convolution engine, and ``simulate._renewal_worker`` draws its chain
from the first-return law.

Kernels are total over j > i >= 0: nothing range-checks the resulting
probability, because the moment algebra is well defined for any positive
weights and some acceptance sweeps deliberately use boundary families
(e.g. D(n) = n, whose unit-gap value is exactly 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "OffspringSchedule",
    "RhoKernel",
    "ScaleSpec",
    "kernel_branching",
    "kernel_power",
    "kernel_scale",
]


@dataclass(frozen=True)
class RhoKernel:
    """A kernel in Cauchy form; ``arrays(n)`` gives (a, x, y) at indices 1..n."""

    description: str
    arrays: Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)

    def cauchy(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (a, x, y) of length n + 1 with rho(i, j) = a[j] (x[j] - y[i]), 0 <= i < j <= n.

        Index 0 holds y_0 = 0; a[0] and x[0] are NaN, since no pair ends at 0.
        Each call builds fresh arrays, which the caller owns.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            data = self.arrays(n)
            shapes = [np.shape(v) for v in data]
            if shapes != [(n,)] * 3:
                raise ValueError(f"{self.description}: arrays({n}) gave shapes {shapes}, not three of ({n},)")
            a, x, y = data
            y_prev = np.concatenate([[0.0], y[:-1]])
            ok = (np.isfinite(a) & np.isfinite(x) & np.isfinite(y) & (a > 0)
                  & (y > y_prev) & (x > y_prev))
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(
                f"{self.description}: Cauchy data not finite or not increasing at generation "
                f"{int(bad[0]) + 1}; horizons must stay below it"
            )
        return np.concatenate([[np.nan], a]), np.concatenate([[np.nan], x]), np.concatenate([[0.0], y])

    def cond_column(self, j: int) -> np.ndarray:
        """1 / rho(i, j) for i = 1..j-1."""
        a, x, y = self.cauchy(j)
        return 1.0 / (a[j] * (x[j] - y[1:j]))


@dataclass(frozen=True)
class OffspringSchedule:
    """Per-generation geometric offspring parameter p_t, t = 1, 2, ...

    ``p`` maps integer arrays of generations to parameters in (0, 1); the
    per-individual offspring law is P(k) = p_t (1 - p_t)^k with mean
    m_t = (1 - p_t)/p_t.
    """

    p: Callable[[np.ndarray], np.ndarray]
    label: str

    def values(self, n: int) -> np.ndarray:
        t = np.arange(1, n + 1)
        p = np.asarray(self.p(t), dtype=float)
        if np.any(~((p > 0.0) & (p < 1.0))):  # NaN fails too
            raise ValueError(f"offspring parameters must lie in (0, 1) ({self.label})")
        return p

    @staticmethod
    def from_decay(r: Callable[[np.ndarray], np.ndarray], label: str = "") -> "OffspringSchedule":
        """p_t = 1/2 - r_t/4 for a given decay sequence r_t in [0, 1]."""

        def pfun(t):
            rt = np.asarray(r(t), dtype=float)
            if np.any(~((rt >= 0.0) & (rt <= 1.0))):
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
        if not self.gamma > 0:  # NaN fails too
            raise ValueError(f"scale exponent gamma must be positive, got {self.gamma}")
        if not self.b > self.a > 0:
            raise ValueError(f"need spacing b > offset a > 0, got a={self.a}, b={self.b}")

    @property
    def offset_ratio(self) -> float:
        return self.a / self.b

    @classmethod
    def from_dimension(cls, d: float, a: float, b: float) -> "ScaleSpec":
        """Brownian motion in dimension d (> 2): gamma = d - 2."""
        if not d > 2:
            raise ValueError(f"transient level walk needs dimension d > 2, got {d}")
        return cls(gamma=d - 2.0, a=a, b=b)

    @classmethod
    def from_gbm(cls, mu: float, sigma: float, a: float, b: float) -> "ScaleSpec":
        """Geometric Brownian motion with drift mu and volatility sigma.

        Requires 2*mu > sigma^2 (otherwise the process is recurrent or
        drifts to zero and no level is ever cut); gamma = 2*mu/sigma^2 - 1.
        """
        if not sigma > 0:
            raise ValueError(f"volatility sigma must be positive, got {sigma}")
        if not 2.0 * mu > sigma**2:
            raise ValueError(f"need 2*mu > sigma^2 for transience, got mu={mu}, sigma={sigma}")
        return cls(gamma=2.0 * mu / sigma**2 - 1.0, a=a, b=b)


def kernel_power(alpha: float, beta: float) -> RhoKernel:
    """rho(i, j) = beta * j^(1-alpha) * (j^alpha - i^alpha); rho(0, j) = beta*j."""
    if not alpha > 0:  # NaN fails too
        raise ValueError(f"power kernel requires alpha > 0, got {alpha}")
    if not beta > 0:
        raise ValueError(f"power kernel requires beta > 0, got {beta}")

    def arrays(n: int):
        j = np.arange(1, n + 1, dtype=float)
        x = j**alpha
        return beta * j ** (1.0 - alpha), x, x

    return RhoKernel(f"power(alpha={alpha}, beta={beta})", arrays)


def kernel_branching(schedule: OffspringSchedule) -> RhoKernel:
    """rho(i, j) = 1 + sum_{t=i+1}^{j} m_t m_{t+1} ... m_j with m_t = (1-p_t)/p_t.

    Cauchy form from log-space prefixes: a_j = exp(L_j), x_j = H_j and
    y_i = H_{i-1}, where L_t = sum_{u<=t} log m_u and H_t = sum_{u<=t} exp(-L_u).
    """

    def arrays(n: int):
        p = schedule.values(n)
        L = np.zeros(n + 1)
        np.cumsum(np.log1p(-p) - np.log(p), out=L[1:])
        H = np.cumsum(np.exp(-L))
        return np.exp(L[1:]), H[1:], H[:-1]

    return RhoKernel(f"branching({schedule.label})", arrays)


def kernel_scale(spec: ScaleSpec) -> RhoKernel:
    """Success probabilities of the level walk in units of the spacing b.

    With c = a/b and w(x) = x^(-gamma):

        1 / rho(0, j) = g_j = (w(j) - w(j+c)) / w(j)
        1 / rho(i, j) = [w(i) / (w(i) - w(j+c))] * g_j
                      = g_j (j+c)^gamma / ((j+c)^gamma - i^gamma)

    g_j = -expm1(-gamma log1p(c/j)) avoids cancellation at large j.
    """
    g, c = spec.gamma, spec.offset_ratio

    def arrays(n: int):
        j = np.arange(1, n + 1, dtype=float)
        x = (j + c) ** g
        gap = -np.expm1(-g * np.log1p(c / j))
        return 1.0 / (x * gap), x, j**g

    return RhoKernel(f"scale(gamma={spec.gamma}, a={spec.a}, b={spec.b})", arrays)
