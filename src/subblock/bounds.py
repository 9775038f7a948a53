"""Closed-form upper bounds on the CCC-to-CSCC rate penalty.

The channel-independent bound is the rate-loss term itself.  On binary-input
channels it sharpens: Mrs. Gerber's Lemma gives the BSC bound, its extension
for symmetric binary-input channels gives the BEC bound, and the asymmetric
extension gives the Z-channel bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateComposition, DomainError
from .typeclass import Composition, rate_loss

ENTROPY_INVERSE_TOL = 1e-12
_BISECTION_STEPS = 200


@dataclass(frozen=True)
class PenaltyBound:
    """An upper bound on C_CCC(P) - C_CSCC_L(P) in bits per use.

    ``method`` records which bound produced ``upper``; ``alpha_clamped`` is
    set when the entropy inversion target fell below zero and alpha was
    clamped to 0, which degrades (but does not invalidate) the bound.
    """

    upper: float
    method: str
    alpha: float | None = None
    alpha_clamped: bool = False


def binary_entropy(x: float) -> float:
    """h(x) in bits; DomainError outside [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("binary entropy argument must lie in [0, 1]")
    total = 0.0
    if x > 0.0:
        total -= x * math.log2(x)
    if x < 1.0:
        total -= (1.0 - x) * math.log2(1.0 - x)
    return total


def binary_entropy_inverse(t: float) -> float:
    """The unique alpha in [0, 0.5] with h(alpha) = t, by bisection to
    ``ENTROPY_INVERSE_TOL`` in the h-value."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("entropy value must lie in [0, 1]")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    mid = 0.25
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        value = binary_entropy(mid)
        if abs(value - t) <= ENTROPY_INVERSE_TOL:
            return mid
        if value < t:
            lo = mid
        else:
            hi = mid
    return mid


def binary_convolution(a: float, b: float) -> float:
    """a * (1-b) + (1-a) * b; 0.5 is absorbing."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError("binary convolution arguments must lie in [0, 1]")
    return a * (1.0 - b) + (1.0 - a) * b


def _binary_composition(composition: Composition) -> Composition:
    if composition.alphabet_size != 2:
        raise DomainError("bound requires a binary-input composition")
    return composition


def _alpha_for(gamma_entropy: float, loss: float) -> tuple[float, bool]:
    # for a genuine binary composition the target equals log2|T_P|/L >= 0,
    # so the clamp below is pure float-noise defence
    target = gamma_entropy - loss
    if target < 0.0:
        return 0.0, True
    return binary_entropy_inverse(target), False


def penalty_bound_bsc(p0: float, composition: Composition) -> PenaltyBound:
    """Mrs. Gerber bound for a BSC: h(p0 * gamma) - h(p0 * alpha) with
    h(alpha) = h(gamma) - r(L, P), gamma the minority input fraction.

    Valid on the closed interval 0 <= p0 <= 0.5 (the endpoints are the
    noiseless and useless limits); strictly below r(L, P) in the interior.
    """
    if not 0.0 <= p0 <= 0.5:
        raise DomainError("BSC crossover must lie in [0, 0.5]")
    composition = _binary_composition(composition)
    gamma = min(composition.probabilities())
    if gamma <= 0.0:
        raise DegenerateComposition(
            "single-symbol composition: the penalty is 0 and the bound undefined"
        )
    loss = rate_loss(composition)
    alpha, clamped = _alpha_for(binary_entropy(gamma), loss)
    upper = binary_entropy(binary_convolution(p0, gamma)) \
        - binary_entropy(binary_convolution(p0, alpha))
    return PenaltyBound(upper=max(upper, 0.0), method="bsc_mgl",
                        alpha=alpha, alpha_clamped=clamped)


def penalty_bound_bec(eps: float, composition: Composition) -> PenaltyBound:
    """BEC bound: (1 - eps) * r(L, P)."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError("erasure probability must lie in [0, 1]")
    composition = _binary_composition(composition)
    return PenaltyBound(upper=(1.0 - eps) * rate_loss(composition), method="bec")


def penalty_bound_z(p0: float, composition: Composition) -> PenaltyBound:
    """Z-channel bound: min(r(L, P), h(gamma(1-p0)) - h(alpha(1-p0))) where
    gamma = P(1) and input 1 flips to 0 with probability p0.  The second form
    may exceed r(L, P), so ``method`` records which branch won."""
    if not 0.0 <= p0 <= 1.0:
        raise DomainError("flip probability must lie in [0, 1]")
    composition = _binary_composition(composition)
    gamma = composition.counts[1] / composition.length
    if not 0.0 < gamma < 1.0:
        raise DegenerateComposition(
            "single-symbol composition: the penalty is 0 and the bound undefined"
        )
    loss = rate_loss(composition)
    alpha, clamped = _alpha_for(binary_entropy(gamma), loss)
    z_form = binary_entropy(gamma * (1.0 - p0)) - binary_entropy(alpha * (1.0 - p0))
    if loss <= z_form:
        return PenaltyBound(upper=loss, method="generic",
                            alpha=alpha, alpha_clamped=clamped)
    return PenaltyBound(upper=max(z_form, 0.0), method="z_channel",
                        alpha=alpha, alpha_clamped=clamped)


def cscc_rate_lower_bound_bsc(p0: float, composition: Composition) -> float:
    """Joint-decoding lower bound on the CSCC rate for a BSC:
    h(p0 * alpha) - h(p0), the Mrs. Gerber companion of
    :func:`penalty_bound_bsc`.  Useful at block lengths where the exact rate
    is out of reach."""
    if not 0.0 <= p0 <= 0.5:
        raise DomainError("BSC crossover must lie in [0, 0.5]")
    composition = _binary_composition(composition)
    gamma = min(composition.probabilities())
    if gamma <= 0.0:
        raise DegenerateComposition("single-symbol composition carries no rate")
    alpha, _ = _alpha_for(binary_entropy(gamma), rate_loss(composition))
    value = binary_entropy(binary_convolution(p0, alpha)) - binary_entropy(p0)
    return max(value, 0.0)
