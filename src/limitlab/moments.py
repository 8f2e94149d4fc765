"""Exact moments of the success count.

The k-th moment of the count expands over sorted support tuples as

    E(count_n)^k = sum_{m=1}^{k} c(k, m) * Psi_n(m),

where Psi_n(m) is the m-fold sum of joint success probabilities and
c(k, m) = sum over compositions of k into m positive parts of
k!/(l_1! ... l_m!), i.e. the number of surjections from a k-set onto an
m-set.  The coefficients are computed from the surjection recurrence
rather than by composition enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kernels import RhoKernel
from .multisum import WeightSequence, _horizons, psi_curve

__all__ = [
    "MomentTable",
    "composition_coefficient",
    "count_moment_curve",
]

# beyond this order the coefficients exceed 2^53 and lose float accuracy
_SAFE_ORDER = 20


@lru_cache(maxsize=None)
def composition_coefficient(k: int, m: int) -> int:
    """Number of surjections from a k-set onto an m-set (exact integer).

    Recurrence: S(k, m) = m * (S(k-1, m) + S(k-1, m-1)), S(0, 0) = 1.
    """
    if k < 0 or m < 0:
        raise ValueError("orders must be nonnegative")
    if k == 0 and m == 0:
        return 1
    if k == 0 or m == 0 or m > k:
        return 0
    return m * (composition_coefficient(k - 1, m) + composition_coefficient(k - 1, m - 1))


def _moment_rows(kernel: RhoKernel | WeightSequence, horizons, k_max: int) -> np.ndarray:
    """Rows E(count_h)^k for k = 1..k_max over the horizons, from one Psi table."""
    if k_max < 1:
        raise ValueError("moment order k must be >= 1")
    if k_max > _SAFE_ORDER:
        raise OverflowError(
            f"order k={k_max} exceeds the safe coefficient range (k <= {_SAFE_ORDER})")
    psi = psi_curve(kernel, horizons, k_max)
    rows = np.zeros((k_max, psi.shape[1]))
    for k in range(1, k_max + 1):
        for m in range(1, k + 1):
            rows[k - 1] += float(composition_coefficient(k, m)) * psi[m - 1]
    return rows


def count_moment_curve(kernel: RhoKernel | WeightSequence, k: int, horizons) -> np.ndarray:
    """Exact k-th moments at several horizons, sharing one Psi table."""
    return _moment_rows(kernel, horizons, k)[-1]


@dataclass(frozen=True)
class MomentTable:
    """Exact count moments of orders 1..k_max at the horizons n_j given to ``build``:
    values[k - 1][j] = E(count_{n_j})^k."""

    values: np.ndarray

    @classmethod
    def build(cls, kernel: RhoKernel | WeightSequence, horizons: Sequence[int], k_max: int) -> "MomentTable":
        hs = tuple(int(h) for h in _horizons(horizons))
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("horizons must be strictly increasing")
        return cls(_moment_rows(kernel, hs, k_max))
