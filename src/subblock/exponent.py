"""Sphere-packing and random-coding exponents via the tilted-channel family.

The minimizer of D(V || W | P) subject to I(P, V) <= R has the exponential
form V(y|x) ~ w(y|x)^(1-s) * pv(y)^s with pv its own output marginal, so the
whole exponent curve is swept by the scalar tilt s in [0, 1].  The marginal
is found by fixed-point iteration; s is found by bisection on the rate, which
is monotone non-increasing along the family (asserted at every step, never
assumed silently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (Channel, as_distribution, divergence_conditional,
                      mutual_information, mutual_information_matrix)
from .errors import DomainError, InfiniteExponent, NoConvergence
from .typeclass import Composition, rate_loss

_MONOTONE_SLACK = 1e-9
FIXED_POINT_TOL = 1e-12        # max-abs marginal change that ends a fixed point
FIXED_POINT_MAX_ITER = 100_000


@dataclass(frozen=True)
class TiltedSolution:
    """One point of the tilted family: tilt s, channel v, output marginal pv,
    its rate I(P, V) in bits, the fixed-point iterations and residual
    max |p @ v - pv|, and whether the 0.5 damping engaged.  The divergence
    D(V || W | P) in bits is computed on first use, from the reference
    channel ``w`` and input distribution ``p`` kept for it, since a bisection
    step reads only the rate."""

    s: float
    v: np.ndarray
    pv: np.ndarray
    rate: float
    iterations: int
    residual: float
    damped: bool
    w: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)

    @cached_property
    def divergence(self) -> float:
        return divergence_conditional(self.v, self.w, self.p)


@dataclass(frozen=True)
class ExponentCurve:
    """Sampled (R, E_sp, E_r) triples plus the critical rate where the
    sphere-packing curve meets its slope -1 supporting line."""

    points: tuple[tuple[float, float, float], ...]
    critical_rate: float
    e_sp_at_critical: float


def _tilt_rows(wpow: np.ndarray, pv: np.ndarray, s: float, w: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The rows of V(pv) in ``out`` (or a fresh array): wpow * pv^s, each
    divided by its sum.  A row can lose all mass only when pv vanished on its
    support; such rows carry no input probability and keep the reference row
    there.  Without such a row the masks are skipped: the values are the same
    bit for bit."""
    v = np.multiply(wpow, np.power(pv, s), out=out)
    denom = np.add.reduce(v, 1)
    if np.minimum.reduce(denom) > 0.0:
        return np.divide(v, denom[:, None], out=v)
    safe = np.where(denom > 0.0, denom, 1.0)
    v[:] = np.where(denom[:, None] > 0.0, v / safe[:, None], w)
    return v


def tilted_fixed_point(ch: Channel, input_dist, s: float,
                       tol: float = FIXED_POINT_TOL, *,
                       normalized: bool = False) -> TiltedSolution:
    """Solve the output-marginal fixed point for tilt ``s``.

    Iterates pv <- p @ V(pv) from pv = PW until the max-abs change drops below
    ``tol``, for at most ``FIXED_POINT_MAX_ITER`` iterations.  A 0.5 damping
    factor engages only if the residuals stop decreasing monotonically over
    three consecutive steps; ``damped`` reports whether it did.  ``p`` is
    ``as_distribution(input_dist)``, or ``input_dist`` itself when
    ``normalized`` says it is already such an output.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError("tilt parameter must lie in [0, 1]")
    p = input_dist if normalized else as_distribution(input_dist, ch.input_size)
    w = ch.w
    positive = w > 0.0
    wpow = np.power(w, 1.0 - s) if positive.all() else \
        np.where(positive, np.power(np.where(positive, w, 1.0), 1.0 - s), 0.0)
    pv = p @ w
    v, pv_next, change = np.empty_like(w), np.empty_like(pv), np.empty_like(pv)
    damped = False
    recent: list[float] = []
    iterations = 0
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        np.matmul(p, _tilt_rows(wpow, pv, s, w, v), out=pv_next)
        residual = float(np.maximum.reduce(
            np.absolute(np.subtract(pv_next, pv, out=change), out=change)))
        if residual <= tol:
            pv = pv_next
            break
        if not damped:
            recent = recent[-2:] + [residual]
            damped = len(recent) == 3 and not recent[0] > recent[1] > recent[2]
        if damped:
            np.multiply(0.5, np.add(pv, pv_next, out=pv), out=pv)
        else:
            pv, pv_next = pv_next, pv
    else:
        raise NoConvergence(
            f"tilted fixed point did not converge at s={s} "
            f"within {FIXED_POINT_MAX_ITER} iterations"
        )
    v = _tilt_rows(wpow, pv, s, w)
    residual = float(np.abs(p @ v - pv).max())
    return TiltedSolution(s=s, v=v, pv=pv, rate=mutual_information_matrix(p, v),
                          iterations=iterations, residual=residual, damped=damped,
                          w=w, p=p)


def sphere_packing_solution(ch: Channel, input_dist, rate_target: float,
                            tol: float = 1e-9) -> TiltedSolution:
    """The tilted solution witnessing E_sp at ``rate_target`` < I(P, W):
    bisect s in [0, 1] until |I(P, V) - rate_target| <= tol.

    Raises :class:`InfiniteExponent` if the target lies below the rate of the
    most-tilted member, s = 1, and :class:`NoConvergence` if the rate is ever
    observed outside the current bracket (the family's monotonicity is
    checked, not assumed).  The fixed points and I(P, W) share one P:
    ``input_dist`` passed twice through :func:`as_distribution`.  Each pass
    can move an entry by an ulp, and both are kept, so the values stay bit
    for bit those of one pass here and one in each fixed point.
    """
    if rate_target <= 0.0:
        raise DomainError("rate must be positive")
    p = as_distribution(as_distribution(input_dist, ch.input_size), ch.input_size)
    rate_lo = mutual_information_matrix(p, ch.w)
    if rate_target >= rate_lo:
        raise DomainError("target rate is not below I(P, W); the exponent is 0")
    lo = 0.0
    hi_sol = tilted_fixed_point(ch, p, 1.0, normalized=True)
    hi, rate_hi = 1.0, hi_sol.rate
    if rate_target <= rate_hi - tol:
        # every finite-divergence channel in the family carries more rate
        raise InfiniteExponent(
            "rate target lies below the most-tilted family member; "
            "the exponent is infinite along this direction"
        )
    if abs(rate_hi - rate_target) <= tol:
        return hi_sol
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        sol = tilted_fixed_point(ch, p, mid, normalized=True)
        if sol.rate > rate_lo + _MONOTONE_SLACK or sol.rate < rate_hi - _MONOTONE_SLACK:
            raise NoConvergence(
                f"rate is not monotone in the tilt near s={mid}; cannot bisect"
            )
        if abs(sol.rate - rate_target) <= tol:
            return sol
        if sol.rate > rate_target:
            lo, rate_lo = mid, sol.rate
        else:
            hi, rate_hi = mid, sol.rate
    raise NoConvergence("tilt bisection exhausted without matching the rate")


def sphere_packing(ch: Channel, input_dist, rate: float, tol: float = 1e-9) -> float:
    """E_sp(R, P, W) in bits: 0 for R >= I(P, W), +inf when no channel with
    finite divergence meets the rate constraint, else the witnessed minimum
    divergence."""
    if rate <= 0.0:
        raise DomainError("rate must be positive")
    p = as_distribution(input_dist, ch.input_size)
    if rate >= mutual_information(p, ch):
        return 0.0
    try:
        return sphere_packing_solution(ch, p, rate, tol).divergence
    except InfiniteExponent:
        return math.inf


def critical_rate(ch: Channel, input_dist) -> TiltedSolution:
    """The s = 1/2 member of the family; its rate is where the sphere-packing
    curve has slope -1, the knee of the random-coding exponent."""
    return tilted_fixed_point(ch, input_dist, 0.5)


def random_coding(ch: Channel, input_dist, rate: float, tol: float = 1e-9,
                  critical: TiltedSolution | None = None) -> float:
    """E_r(R, P, W) in bits: equals E_sp above the critical rate and follows
    the slope -1 supporting line below it."""
    if rate <= 0.0:
        raise DomainError("rate must be positive")
    crit = critical or critical_rate(ch, input_dist)
    if rate >= crit.rate:
        return sphere_packing(ch, input_dist, rate, tol)
    return crit.divergence + crit.rate - rate


def exponent_curve(ch: Channel, input_dist, rates, tol: float = 1e-9) -> ExponentCurve:
    """Sample (R, E_sp, E_r) on a rate grid, sharing one critical-rate solve."""
    crit = critical_rate(ch, input_dist)
    points = []
    for rate in rates:
        e_sp = sphere_packing(ch, input_dist, float(rate), tol)
        e_r = e_sp if rate >= crit.rate else crit.divergence + crit.rate - float(rate)
        points.append((float(rate), e_sp, e_r))
    return ExponentCurve(points=tuple(points), critical_rate=crit.rate,
                         e_sp_at_critical=crit.divergence)


@dataclass(frozen=True)
class CsccErrorBound:
    """Upper bound on the maximum error probability of a CSCC at blocklength n.

    ``log2_value`` is exact even when ``value`` under- or overflows; a
    ``vacuous`` bound (exponent 0, value 2) means the shifted rate reached
    I(P, W)."""

    value: float
    log2_value: float
    exponent: float
    shifted_rate: float
    vacuous: bool
    branch: str


def cscc_error_bound(ch: Channel, composition: Composition, rate: float,
                     blocklength: int, tol: float = 1e-9) -> CsccErrorBound:
    """Error-probability bound for a CSCC: the CCC bound evaluated at the
    rate shifted up by the rate-loss term r(L, P).

    Above the critical rate the bound is 2 * 2^(-n E_sp(R')); below it,
    2^(-n (E_sp(critical) + critical - R')).  ``blocklength`` must be a
    multiple of the subblock length.
    """
    if rate <= 0.0:
        raise DomainError("rate must be positive")
    if blocklength < 1 or blocklength % composition.length != 0:
        raise DomainError("blocklength must be a positive multiple of the subblock length")
    shifted = rate + rate_loss(composition)
    p = composition.probabilities()
    crit = critical_rate(ch, p)
    if shifted >= crit.rate:
        e_sp = sphere_packing(ch, p, shifted, tol)
        log2_value = 1.0 - blocklength * e_sp
        branch, exponent = "sphere_packing", e_sp
        vacuous = e_sp == 0.0
    else:
        exponent = crit.divergence + crit.rate - shifted
        log2_value = -blocklength * exponent
        branch, vacuous = "straight_line", False
    value = 2.0 ** log2_value if log2_value < 1024.0 else math.inf
    return CsccErrorBound(value=value, log2_value=log2_value, exponent=exponent,
                          shifted_rate=shifted, vacuous=vacuous, branch=branch)


def cscc_exponent_lower_bound(ch: Channel, composition: Composition,
                              rate: float, tol: float = 1e-9) -> float:
    """Achievable error exponent for a CSCC: the random-coding exponent at the
    rate shifted up by r(L, P)."""
    return random_coding(ch, composition.probabilities(),
                         rate + rate_loss(composition), tol)
