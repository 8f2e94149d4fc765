"""Limit laws and empirical comparison utilities.

``LimitLaw`` covers the two families the paper's limits fall in: the
geometric law on {0, 1, ...} and the Gamma law, of which Exp(rate) is shape
1.  Each law gives its exact moments; the geometric law also gives its pmf
and tail.  Distances are reported descriptively; acceptance thresholds are
absolute, so no p-value machinery is attached.

This module imports nothing from the rest of ``limitlab``, so every other
module may read a law from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "LimitLaw",
    "tv_distance_integer",
]


@dataclass(frozen=True)
class LimitLaw:
    """Geometric(mean) on {0, 1, ...}, or Gamma(shape, rate) on [0, inf).

    ``params`` is (mean,) or (shape, rate), as given: the geometric law keeps
    its mean, not the success probability 1/(mean + 1) it is printed by.
    """

    kind: str
    params: tuple

    @classmethod
    def geometric(cls, mean) -> "LimitLaw":
        """The geometric law on {0, 1, ...} with mean ``mean``: P(X = i) = (1 - p)^i p, p = 1/(mean + 1)."""
        if not mean > 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return cls("geometric", (mean,))

    @classmethod
    def gamma(cls, shape, rate) -> "LimitLaw":
        """The Gamma law with density rate^shape x^(shape-1) e^(-rate x) / Gamma(shape).

        Exact types (``fractions.Fraction``) stay exact in ``moment``.
        """
        if not (shape > 0 and rate > 0):
            raise ValueError(f"shape and rate must be positive, got {shape} and {rate}")
        return cls("gamma", (shape, rate))

    def moment(self, k: int):
        """E X^k.  Gamma: prod_{j<k} (j + shape) / rate^k.  Geometric:
        m_k = mean * sum_{j<k} C(k, j) m_j with m_0 = 1, from the
        self-consistency E X^k = E X * (E (X+1)^k - E X^k).

        Raises ``OverflowError`` that names the law and the order where rate^k
        underflows to 0, since the moment is then past the float range, and
        where rate^k overflows, though the moment itself may be of order 1."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if self.kind == "geometric":
            (mean,) = self.params
            m = [1.0]
            for order in range(1, k + 1):
                m.append(mean * sum(comb(order, j) * m[j] for j in range(order)))
            return m[k]
        shape, rate = self.params
        out = 1
        for j in range(k):
            out = out * (j + shape)
        try:
            scale = rate**k
        except OverflowError as e:  # a float power raises where the product would read inf
            raise OverflowError(f"the moment of order {k} of {self} cannot be computed in floats: rate^{k} overflows") from e
        if scale == 0:
            raise OverflowError(f"the moment of order {k} of {self} is past the float range: rate^{k} underflows to 0")
        return out / scale

    def _success(self) -> float:
        if self.kind != "geometric":
            raise ValueError(f"a {self.kind} law has no pmf")
        return 1.0 / (self.params[0] + 1.0)

    def pmf(self, i):
        """P(X = i) of the geometric law; i may be an integer array."""
        p = self._success()
        i = np.asarray(i)
        out = np.where(i >= 0, (1.0 - p) ** np.maximum(i, 0) * p, 0.0)
        return out if out.shape else float(out)

    def tail(self, i: int) -> float:
        """P(X > i) = (1 - p)^(i + 1) of the geometric law, for an integer i >= -1."""
        return (1.0 - self._success()) ** (i + 1)

    def __str__(self):
        if self.kind == "geometric":
            return f"Geo({self._success():g})"
        return "Gamma({:g}, {:g})".format(*map(float, self.params))


def tv_distance_integer(sample, law: LimitLaw) -> float:
    """Total variation between the empirical pmf of an integer sample and a
    geometric law, with all law mass beyond the sample maximum (its ``tail``)
    folded into one bin.  A Gamma law has no pmf and is refused."""
    arr = np.asarray(sample)
    if arr.size == 0:
        raise ValueError("tv_distance_integer needs a nonempty sample")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("sample must be integer-valued")
    if arr.min() < 0:
        raise ValueError("sample must be nonnegative")
    top = int(arr.max())
    emp = np.bincount(arr, minlength=top + 1) / arr.size
    return float(0.5 * (np.abs(emp - law.pmf(np.arange(top + 1))).sum() + law.tail(top)))
