"""Limit laws and empirical comparison utilities.

``LimitLaw`` covers the two target families the experiments compare with
(geometric on {0, 1, ...} and exponential), with the geometric pmf and exact
moments.  Distances are reported descriptively; acceptance thresholds are
absolute, so no p-value machinery is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import geo_limit_moments

__all__ = [
    "LimitLaw",
    "tv_distance_integer",
]


@dataclass(frozen=True)
class LimitLaw:
    """One of Geometric(p) on {0,1,...} or Exponential(rate)."""

    kind: str
    param: float

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

    def pmf(self, i) -> np.ndarray:
        """P(X = i) for the geometric variant; i may be an integer array."""
        if self.kind != "geometric":
            raise ValueError(f"{self.kind} law has no pmf")
        i = np.asarray(i)
        p = self.param
        out = np.where(i >= 0, (1.0 - p) ** np.maximum(i, 0) * p, 0.0)
        return out if out.shape else float(out)

    def moment(self, k: int) -> float:
        if k == 0:
            return 1.0
        if self.kind == "geometric":
            zeta = (1.0 - self.param) / self.param
            return geo_limit_moments(zeta, k)[-1]
        return math.factorial(k) / self.param**k

    def __str__(self):
        names = {"geometric": "Geo", "exponential": "Exp"}
        return f"{names[self.kind]}({self.param:g})"


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
