"""Limit laws and empirical comparison utilities.

``LimitLaw`` covers the three target families (geometric on {0, 1, ...},
exponential, unit-rate gamma) with pmf/pdf, cdf and exact moments.
Distances are reported descriptively; acceptance thresholds are absolute,
so no p-value machinery is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import geo_limit_moments
from .special import gamma_moment

__all__ = [
    "LimitLaw",
    "ks_distance",
    "moment_zscores",
    "tv_distance_integer",
]


@dataclass(frozen=True)
class LimitLaw:
    """One of Geometric(p) on {0,1,...}, Exponential(rate) or Gamma(shape, 1)."""

    kind: str
    param: float

    @classmethod
    def geometric(cls, p: float) -> "LimitLaw":
        if not 0.0 < p < 1.0:
            raise ValueError(f"geometric parameter must lie in (0, 1), got {p}")
        return cls("geometric", p)

    @classmethod
    def geometric_from_mean(cls, zeta: float) -> "LimitLaw":
        """Geometric with mean zeta, i.e. success parameter 1/(zeta + 1)."""
        if zeta <= 0:
            raise ValueError(f"mean must be positive, got {zeta}")
        return cls("geometric", 1.0 / (zeta + 1.0))

    @classmethod
    def exponential(cls, rate: float) -> "LimitLaw":
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return cls("exponential", rate)

    @classmethod
    def gamma(cls, shape: float) -> "LimitLaw":
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        return cls("gamma", shape)

    @property
    def is_discrete(self) -> bool:
        return self.kind == "geometric"

    def pmf(self, i) -> np.ndarray:
        """P(X = i) for the geometric variant; i may be an integer array."""
        if self.kind != "geometric":
            raise ValueError(f"{self.kind} law has no pmf")
        i = np.asarray(i)
        p = self.param
        out = np.where(i >= 0, (1.0 - p) ** np.maximum(i, 0) * p, 0.0)
        return out if out.shape else float(out)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            lam = self.param
            out = np.where(x > 0, lam * np.exp(-lam * np.where(x > 0, x, 0.0)), 0.0)
        elif self.kind == "gamma":
            a = self.param
            xs = np.where(x > 0, x, 1.0)
            out = np.where(x > 0, np.exp((a - 1.0) * np.log(xs) - xs - math.lgamma(a)), 0.0)
        else:
            raise ValueError("geometric law has a pmf, not a pdf")
        return out if out.shape else float(out)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "geometric":
            # P(X <= x) = 1 - (1-p)^(floor(x)+1) on x >= 0
            out = np.where(x >= 0, 1.0 - (1.0 - self.param) ** (np.floor(x) + 1.0), 0.0)
        elif self.kind == "exponential":
            out = np.where(x > 0, -np.expm1(-self.param * np.where(x > 0, x, 0.0)), 0.0)
        else:
            from scipy.special import gammainc  # here, so that importing limitlab loads no scipy

            out = np.where(x > 0, gammainc(self.param, np.where(x > 0, x, 0.0)), 0.0)
        return out if out.shape else float(out)

    def moment(self, k: int) -> float:
        if k == 0:
            return 1.0
        if self.kind == "geometric":
            zeta = (1.0 - self.param) / self.param
            return geo_limit_moments(zeta, k)[-1]
        if self.kind == "exponential":
            return math.factorial(k) / self.param**k
        return float(gamma_moment(self.param, k))

    @property
    def mean(self) -> float:
        return self.moment(1)

    def __str__(self):
        names = {"geometric": "Geo", "exponential": "Exp", "gamma": "Gamma"}
        suffix = ", 1" if self.kind == "gamma" else ""
        return f"{names[self.kind]}({self.param:g}{suffix})"


def ks_distance(sample, law: LimitLaw) -> float:
    """Sup distance between the sample ECDF and the law CDF at sample points.

    Both one-sided gaps are taken at every jump, so a single observation at
    the median scores 0.5 and exact mid-quantiles of the law score 1/(2n).
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("ks_distance needs a nonempty sample")
    f = np.asarray(law.cdf(xs), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def tv_distance_integer(sample, law: LimitLaw) -> float:
    """Total variation between the empirical pmf of an integer sample and a
    geometric law, with all law mass beyond the sample maximum folded into
    one bin."""
    if law.kind != "geometric":
        raise ValueError("tv_distance_integer compares against a geometric law")
    arr = np.asarray(sample)
    if arr.size == 0:
        raise ValueError("tv_distance_integer needs a nonempty sample")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("sample must be integer-valued")
    if arr.min() < 0:
        raise ValueError("sample must be nonnegative")
    top = int(arr.max())
    emp = np.bincount(arr, minlength=top + 1) / arr.size
    model = law.pmf(np.arange(top + 1))
    tail = (1.0 - law.param) ** (top + 1)
    return float(0.5 * (np.abs(emp - model).sum() + tail))


def moment_zscores(counts, scaler: float, law: LimitLaw, orders) -> np.ndarray:
    """z-scores of scaled empirical moments against the law's exact moments.

    For each order k: (mean((count/scaler)^k) - E(X^k)) / stderr of that mean.
    """
    x = np.asarray(counts, dtype=float)
    if x.size < 100:
        raise ValueError(f"need at least 100 replicates for stable z-scores, got {x.size}")
    if scaler <= 0:
        raise ValueError("scaler must be positive")
    y = x / scaler
    out = []
    for k in orders:
        v = y**k
        mu = v.mean()
        se = v.std(ddof=1) / math.sqrt(v.size)
        target = law.moment(k)
        if se == 0.0:
            if mu == target:
                out.append(0.0)
                continue
            raise ValueError(f"degenerate sample at order {k} with nonzero mismatch")
        out.append((mu - target) / se)
    return np.array(out)
