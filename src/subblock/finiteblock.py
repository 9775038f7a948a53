"""Finite-blocklength achievable rate for local subblock decoding on a BSC.

When every subblock is decoded on its own, each subblock acts as a codeword of
length n = L, and the balanced-composition achievable rate is the normal
approximation

    C - sqrt(p(1-p)/n) * log2((1-p)/p) * Qinv(eps) + log2(n) / (2n)

with C = 1 + p log2 p + (1-p) log2 (1-p).  The O(1) remainder of the full
expansion is dropped; treat results as an approximation.  The formula covers
balanced compositions on a BSC, so p >= 0.5 is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / _SQRT2)


def qinv(eps: float) -> float:
    """Inverse Gaussian tail: the x with Q(x) = eps."""
    if not 0.0 < eps < 1.0:
        raise DomainError("tail probability must lie in (0, 1)")
    # the lower-tail quantile keeps full precision deep in the tail, where
    # inv_cdf(1 - eps) would round 1 - eps; "0.0 -" keeps qinv(0.5) at +0.0
    return 0.0 - _STANDARD_NORMAL.inv_cdf(eps)


@dataclass(frozen=True)
class LsdPoint:
    """(blocklength, target error probability, achievable rate)."""

    n: int
    epsilon: float
    rate: float


def bsc_capacity(p: float) -> float:
    """C = 1 + p log2 p + (1-p) log2 (1-p) in bits per use, for a crossover
    ``p`` in (0, 0.5)."""
    if not 0.0 < p < 0.5:
        raise DomainError("crossover probability must lie in (0, 0.5)")
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


def lsd_rate_bsc(p: float, n: int, epsilon: float) -> float:
    """Local-subblock-decoding achievable rate in bits per use."""
    capacity = bsc_capacity(p)
    if n < 1:
        raise DomainError("blocklength must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("error probability must lie in (0, 1)")
    penalty = math.sqrt(p * (1.0 - p) / n) * math.log2((1.0 - p) / p) * qinv(epsilon)
    return capacity - penalty + math.log2(n) / (2.0 * n)


def lsd_point(p: float, n: int, epsilon: float) -> LsdPoint:
    return LsdPoint(n=n, epsilon=epsilon, rate=lsd_rate_bsc(p, n, epsilon))
