"""Sphere-packing and random-coding exponents via the tilted-channel family.

The minimizer of D(V || W | P) subject to I(P, V) <= R has the exponential
form V(y|x) ~ w(y|x)^(1-s) * pv(y)^s with pv its own output marginal, so the
whole exponent curve is swept by the scalar tilt s in [0, 1].  The marginal
is found by fixed-point iteration; s is found by bisection on the rate, which
is monotone non-increasing along the family (asserted at every step, never
assumed silently).

The fixed point takes a stack of tilts and iterates them in one array, each
member with its own stopping rule and damping.  The rates of a curve are
bisected in lockstep: one stacked solve per bisection level serves every
rate still open, so a curve costs about 30 stacked solves rather than one
scalar solve per step of every rate.  Each member's arithmetic is that of a
solve of its tilt alone, so every value equals that of one bisection per
rate bit for bit.  ``tilted_fixed_point``, ``sphere_packing_solution`` and
``sphere_packing`` are the one-tilt and one-rate calls of the same two
routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .channel import (Channel, as_distribution, divergence_conditional,
                      information_stack, mutual_information_matrix)
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


def _tilt_rows(wpow: np.ndarray, pv: np.ndarray, tilts: list[float], w: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The rows of V(pv) for a stack of tilts, in ``out`` (or a fresh array):
    wpow[i] * pv[i]^tilts[i], each row divided by its sum.  Each member's
    power is its own ``np.power`` call with a scalar exponent, since numpy
    rounds some exponents (0.5 as a square root) differently when they arrive
    as an array.  A row can lose all mass only when pv vanished on its
    support; such rows carry no input probability and keep the reference row
    there.  Without such a row the masks are skipped: the values are the same
    bit for bit."""
    scale = np.empty_like(pv)
    for row, pv_row, tilt in zip(scale, pv, tilts):
        np.power(pv_row, tilt, out=row)
    v = np.multiply(wpow, scale[:, None, :], out=out)
    denom = np.add.reduce(v, 2)
    if np.minimum.reduce(denom, None) > 0.0:
        return np.divide(v, denom[:, :, None], out=v)
    safe = np.where(denom > 0.0, denom, 1.0)
    v[:] = np.where(denom[:, :, None] > 0.0, v / safe[:, :, None], w)
    return v


def _tilted_stack(w: np.ndarray, p: np.ndarray, tilts: list[float], tol: float):
    """The fixed points of :func:`tilted_fixed_points` for the nonempty list
    ``tilts`` in [0, 1] and the normalized ``p``: every member's rate, and a
    function that builds member ``i``'s :class:`TiltedSolution`, so that a
    bisection level builds only the solutions it keeps."""
    k = len(tilts)
    positive = w > 0.0
    dense = positive.all()
    base = w if dense else np.where(positive, w, 1.0)
    wpow = np.empty((k,) + w.shape)
    for member, tilt in zip(wpow, tilts):
        np.power(base, 1.0 - tilt, out=member)
    if not dense:
        wpow[:, ~positive] = 0.0
    final = np.empty((k, w.shape[1]))
    iterations, was_damped = [0] * k, [False] * k
    members = list(range(k))
    pv = np.repeat((p @ w)[None, :], k, 0)
    run_wpow, run_tilts, v = wpow, tilts, np.empty_like(wpow)
    damped = np.zeros(k, dtype=bool)
    before = last = np.full(k, np.nan)
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        pv_next = np.matmul(p, _tilt_rows(run_wpow, pv, run_tilts, w, v))
        residual = np.maximum.reduce(np.absolute(pv_next - pv), 1)
        done = residual <= tol
        if done.any():
            for j in np.flatnonzero(done).tolist():
                final[members[j]] = pv_next[j]
                iterations[members[j]], was_damped[members[j]] = iteration, bool(damped[j])
            if done.all():
                break
            keep = ~done
            members = list(compress(members, keep.tolist()))
            run_tilts = list(compress(run_tilts, keep.tolist()))
            pv, pv_next, residual = pv[keep], pv_next[keep], residual[keep]
            run_wpow, v = run_wpow[keep], v[keep]
            damped, before, last = damped[keep], before[keep], last[keep]
        if iteration >= 3:
            damped |= ~((before > last) & (last > residual))
        before, last = last, residual
        pv = np.where(damped[:, None], 0.5 * (pv + pv_next), pv_next) if damped.any() \
            else pv_next
    else:
        raise NoConvergence(
            f"tilted fixed point did not converge at s={run_tilts[0]} "
            f"within {FIXED_POINT_MAX_ITER} iterations"
        )
    v = _tilt_rows(wpow, final, tilts, w)
    residuals = np.maximum.reduce(np.absolute(np.matmul(p, v) - final), 1).tolist()
    rates = information_stack(p, v)[1]

    def solution(i: int) -> TiltedSolution:
        return TiltedSolution(s=tilts[i], v=v[i], pv=final[i], rate=rates[i],
                              iterations=iterations[i], residual=residuals[i],
                              damped=was_damped[i], w=w, p=p)

    return rates, solution


def tilted_fixed_points(ch: Channel, input_dist, tilts,
                        tol: float = FIXED_POINT_TOL) -> tuple[TiltedSolution, ...]:
    """Solve the output-marginal fixed point for every tilt of ``tilts``.

    All members iterate together in one ``(k, |X|, |Y|)`` array, and each
    keeps its own iteration: pv <- p @ V(pv) from pv = PW until its max-abs
    change drops below ``tol``, for at most ``FIXED_POINT_MAX_ITER``
    iterations, else :class:`NoConvergence` names its tilt.  A member's 0.5
    damping engages only if its residuals stop decreasing monotonically over
    three consecutive steps; ``damped`` reports whether it did.  Every value
    equals that of a solve of the member alone, at
    ``p = as_distribution(input_dist)``.
    """
    s = np.ravel(np.asarray(tilts, dtype=float)).tolist()
    if not all(0.0 <= tilt <= 1.0 for tilt in s):
        raise DomainError("tilt parameter must lie in [0, 1]")
    p = as_distribution(input_dist, ch.input_size)
    if not s:
        return ()
    _, solution = _tilted_stack(ch.w, p, s, tol)
    return tuple(map(solution, range(len(s))))


def tilted_fixed_point(ch: Channel, input_dist, s: float,
                       tol: float = FIXED_POINT_TOL) -> TiltedSolution:
    """The fixed point of :func:`tilted_fixed_points` for the one tilt ``s``."""
    return tilted_fixed_points(ch, input_dist, [s], tol)[0]


def _bisect(ch: Channel, p: np.ndarray, info: float, targets: list[float],
            tol: float) -> list[TiltedSolution | None]:
    """The solutions of :func:`sphere_packing_solutions` at the normalized
    ``p``, for ``targets`` in (0, ``info``) with ``info`` = I(P, W)."""
    found: list[TiltedSolution | None] = [None] * len(targets)
    if not targets:
        return found
    top = tilted_fixed_point(ch, p, 1.0)
    open_ = []
    for i, rate in enumerate(targets):
        # below rate_top - tol every finite-divergence channel in the family
        # carries more rate, and the exponent is infinite along this direction
        if rate <= top.rate - tol:
            continue
        if abs(top.rate - rate) <= tol:
            found[i] = top
        else:
            open_.append(i)
    lo, hi = [0.0] * len(targets), [1.0] * len(targets)
    rate_lo, rate_hi = [info] * len(targets), [top.rate] * len(targets)
    for _ in range(200):
        if not open_:
            return found
        mids = [0.5 * (lo[i] + hi[i]) for i in open_]
        # rates that share a bracket share its midpoint: solve it once
        member = {mid: j for j, mid in enumerate(dict.fromkeys(mids))}
        rates, solution = _tilted_stack(ch.w, p, list(member), FIXED_POINT_TOL)
        still_open = []
        for i, mid in zip(open_, mids):
            j = member[mid]
            rate = rates[j]
            if rate > rate_lo[i] + _MONOTONE_SLACK or rate < rate_hi[i] - _MONOTONE_SLACK:
                raise NoConvergence(
                    f"rate is not monotone in the tilt near s={mid}; cannot bisect"
                )
            if abs(rate - targets[i]) <= tol:
                found[i] = solution(j)
                continue
            if rate > targets[i]:
                lo[i], rate_lo[i] = mid, rate
            else:
                hi[i], rate_hi[i] = mid, rate
            still_open.append(i)
        open_ = still_open
    if open_:
        raise NoConvergence("tilt bisection exhausted without matching the rate")
    return found


def sphere_packing_solutions(ch: Channel, input_dist, rate_targets,
                             tol: float = 1e-9) -> list[TiltedSolution | None]:
    """The tilted solutions witnessing E_sp at each rate of ``rate_targets``,
    all below I(P, W): for each, bisect s in [0, 1] until |I(P, V) - rate| <=
    tol, or give None where the exponent is infinite, since the rate lies
    below that of the most-tilted member, s = 1.

    The bisections run in lockstep: each level solves the midpoints of every
    rate still open in one stacked fixed point, as :func:`tilted_fixed_points`
    does, and a rate leaves once it is matched.  Each rate's steps are those
    of its own bisection, so every value equals that of a bisection of the
    rate alone.  Raises :class:`NoConvergence` if a rate is ever observed
    outside its current bracket (the family's monotonicity is checked, not
    assumed) or is not matched within 200 levels.  I(P, W) and every fixed
    point see one P, ``as_distribution(input_dist)``.
    """
    targets = [float(rate) for rate in rate_targets]
    if any(rate <= 0.0 for rate in targets):
        raise DomainError("rate must be positive")
    p = as_distribution(input_dist, ch.input_size)
    info = mutual_information_matrix(p, ch.w)
    if any(rate >= info for rate in targets):
        raise DomainError("target rate is not below I(P, W); the exponent is 0")
    return _bisect(ch, p, info, targets, tol)


def sphere_packing_solution(ch: Channel, input_dist, rate_target: float,
                            tol: float = 1e-9) -> TiltedSolution:
    """The tilted solution witnessing E_sp at ``rate_target`` < I(P, W), from
    :func:`sphere_packing_solutions`.  Raises :class:`InfiniteExponent` if the
    target lies below the rate of the most-tilted member, s = 1."""
    sol, = sphere_packing_solutions(ch, input_dist, [rate_target], tol)
    if sol is None:
        raise InfiniteExponent(
            "rate target lies below the most-tilted family member; "
            "the exponent is infinite along this direction"
        )
    return sol


def _sphere_packing_values(ch: Channel, p: np.ndarray, rates: list[float],
                           tol: float) -> list[float]:
    """E_sp in bits at each rate, for the normalized ``p``: 0 for R >=
    I(P, W), +inf where no channel with finite divergence meets the rate,
    else the divergence witnessed by one lockstep bisection over the
    remaining rates.  The zero test and the bisection share one I(P, W)."""
    if any(rate <= 0.0 for rate in rates):
        raise DomainError("rate must be positive")
    info = mutual_information_matrix(p, ch.w)
    found = iter(_bisect(ch, p, info, [rate for rate in rates if not rate >= info], tol))
    # the bisection gives None where the exponent is infinite
    return [0.0 if rate >= info else getattr(next(found), "divergence", math.inf)
            for rate in rates]


def sphere_packing(ch: Channel, input_dist, rate: float, tol: float = 1e-9) -> float:
    """E_sp(R, P, W) in bits: 0 for R >= I(P, W), +inf when no channel with
    finite divergence meets the rate constraint, else the witnessed minimum
    divergence.  I(P, W) is evaluated once."""
    return _sphere_packing_values(ch, as_distribution(input_dist, ch.input_size),
                                  [rate], tol)[0]


def critical_rate(ch: Channel, input_dist) -> TiltedSolution:
    """The s = 1/2 member of the family; its rate is where the sphere-packing
    curve has slope -1, the knee of the random-coding exponent."""
    return tilted_fixed_point(ch, input_dist, 0.5)


def random_coding(ch: Channel, input_dist, rate: float, tol: float = 1e-9) -> float:
    """E_r(R, P, W) in bits: equals E_sp above the critical rate and follows
    the slope -1 supporting line below it."""
    if rate <= 0.0:
        raise DomainError("rate must be positive")
    crit = critical_rate(ch, input_dist)
    if rate >= crit.rate:
        return sphere_packing(ch, input_dist, rate, tol)
    return crit.divergence + crit.rate - rate


def exponent_curve(ch: Channel, input_dist, rates, tol: float = 1e-9) -> ExponentCurve:
    """Sample (R, E_sp, E_r) on a rate grid, sharing one critical-rate solve
    and bisecting every rate in lockstep.  The critical rate, the zero test
    and the bisection see one P, ``as_distribution(input_dist)``.  A rate
    <= 0 is rejected before any solve."""
    rates = [float(rate) for rate in rates]
    p = as_distribution(input_dist, ch.input_size)
    e_sp_values = _sphere_packing_values(ch, p, rates, tol)
    crit = critical_rate(ch, p)
    points = []
    for rate, e_sp in zip(rates, e_sp_values):
        e_r = e_sp if rate >= crit.rate else crit.divergence + crit.rate - rate
        points.append((rate, e_sp, e_r))
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
