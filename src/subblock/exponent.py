"""Sphere-packing and random-coding exponents via the tilted-channel family.

The minimizer of D(V || W | P) subject to I(P, V) <= R has the exponential
form V(y|x) ~ w(y|x)^(1-s) * pv(y)^s with pv its own output marginal, so the
whole exponent curve is swept by the scalar tilt s in [0, 1].  The marginal
maximizes the concave f(q) = sum_x p_x log sum_y w(y|x)^(1-s) q_y^s over the
simplex (Arimoto, 1976), which :func:`subblock.capacity.barrier_newton` does
for a stack of tilts at once, each member until its Frank-Wolfe gap, a bound
on f(q*) - f(q), is <= tol.  s is found by bisection on the rate, which is
monotone non-increasing along the family (asserted at every step, never
assumed silently).  The rates of a curve are bisected in lockstep: one
stacked solve per bisection level serves every rate still open.  Each
member's arithmetic is that of a solve of its tilt alone, so every value
equals that of one bisection per rate bit for bit.
``exponent_curve`` is the one evaluator of E_sp and E_r and states the E_r
rule once; ``sphere_packing``, ``random_coding`` and ``cscc_error_bound``
read their one point of it.  Its critical (s = 1/2) and most-tilted (s = 1)
members, the latter the end of every bisection bracket, share one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import barrier_newton
from .channel import (Channel, as_distribution, divergence_conditional,
                      information_stack, mutual_information_matrix)
from .errors import DomainError, InfiniteExponent, NoConvergence
from .typeclass import Composition, rate_loss

_MONOTONE_SLACK = 1e-9
FIXED_POINT_TOL = 1e-12        # Frank-Wolfe gap of f, in nats, that ends a tilted solve
FULL_TILT_GAP = 1e-6           # h: the s = 1 marginal comes from solves at 1 - h and 1 - 2h


@dataclass(frozen=True)
class TiltedSolution:
    """One point of the tilted family: tilt s, channel v, its output marginal
    pv, rate I(P, V) and divergence D(V || W | P) in bits, the Newton steps
    that found the marginal, and the certified Frank-Wolfe gap it reached in
    f, in nats."""

    s: float
    v: np.ndarray
    pv: np.ndarray
    rate: float
    divergence: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ExponentCurve:
    """Sampled (R, E_sp, E_r) triples plus the critical rate where the
    sphere-packing curve meets its slope -1 supporting line."""

    points: tuple[tuple[float, float, float], ...]
    critical_rate: float
    e_sp_at_critical: float


def _tilt_rows(wpow: np.ndarray, q: np.ndarray, tilts) -> np.ndarray:
    """The rows of V(q) for a stack of tilts: wpow[i] * q[i]^tilts[i], each
    row divided by its sum, which is positive as q is.  Each member's power
    is its own ``np.power`` call with a scalar exponent, since numpy rounds
    some exponents (0.5 as a square root) differently when they arrive as an
    array."""
    scale = np.empty_like(q)
    for row, q_row, tilt in zip(scale, q, tilts):
        np.power(q_row, tilt, out=row)
    v = wpow * scale[:, None, :]
    return np.divide(v, np.add.reduce(v, 2)[:, :, None], out=v)


def _tilted_stack(w: np.ndarray, p: np.ndarray, tilts: list[float], tol: float):
    """The solutions of :func:`tilted_fixed_points` for the nonempty list
    ``tilts`` in [0, 1] and the normalized ``p``: every member's rate, and a
    function that builds member ``i``'s :class:`TiltedSolution`, so that a
    bisection level computes the divergence only of the solutions it keeps.

    One :func:`~subblock.capacity.barrier_newton` call maximizes every
    member's f(q) = sum_x p_x log sum_y w^(1-s) q_y^s, whose gradient is
    s (pT)_y / q_y and scaled Hessian s(1-s) diag(pT) + s^2 T' diag(p) T,
    with T = V(q).  At s = 1, f can be flat along a face, so that member's q
    is the limit s -> 1: solved at 1 - h and 1 - 2h, h = ``FULL_TILT_GAP``,
    and extrapolated to 2 q(1 - h) - q(1 - 2h), which is O(h^2) off the
    limit where q(1 - h) is O(h) off, keeping q(1 - h) wherever that leaves
    the open simplex.  Only its V is built at s = 1."""
    full = [i for i, tilt in enumerate(tilts) if tilt == 1.0]
    solve = np.array([1.0 - FULL_TILT_GAP if tilt == 1.0 else tilt for tilt in tilts]
                     + [1.0 - 2.0 * FULL_TILT_GAP] * len(full))
    wpow = np.empty((len(solve),) + w.shape)
    for member, tilt in zip(wpow, solve.tolist()):
        np.power(w, 1.0 - tilt, out=member)     # 0 where w is, as 1 - tilt > 0

    def objective(q, members, hessian=False):
        s = solve[members, None]
        t = _tilt_rows(wpow[members], q, s[:, 0].tolist())
        pt = np.matmul(p, t)
        grad = s * pt / q
        if not hessian:
            return grad
        root = np.sqrt(p)[:, None] * t
        s = s[:, :, None]
        return grad, s * ((1.0 - s) * pt[:, :, None] * np.eye(len(w[0]))
                          + s * np.matmul(root.transpose(0, 2, 1), root))

    start = np.repeat((p @ w)[None, :], len(solve), 0)
    q, steps, gaps = barrier_newton(objective, start, tol_nats=tol)
    if not (gaps <= tol).all():
        i = int(np.argmin(gaps <= tol))
        raise NoConvergence(f"tilted solve did not converge at "
                            f"s={(tilts + [1.0] * len(full))[i]}: "
                            f"Frank-Wolfe gap {gaps[i]:.3g} after {steps[i]} Newton steps")
    if full:
        limit = 2.0 * q[full] - q[len(tilts):]
        q[full] = np.where(limit > 0.0, limit, q[full])
        wpow[full] = w > 0.0
    v = _tilt_rows(wpow[:len(tilts)], q[:len(tilts)], tilts)
    pv = np.matmul(p, v)
    rates = information_stack(p, v)[1]

    def solution(i: int) -> TiltedSolution:
        return TiltedSolution(s=tilts[i], v=v[i], pv=pv[i], rate=rates[i],
                              divergence=divergence_conditional(v[i], w, p),
                              iterations=int(steps[i]), residual=float(gaps[i]))

    return rates, solution


def tilted_fixed_points(ch: Channel, input_dist, tilts,
                        tol: float = FIXED_POINT_TOL) -> tuple[TiltedSolution, ...]:
    """Solve the output-marginal fixed point for every tilt of ``tilts``:
    one stacked :func:`~subblock.capacity.barrier_newton` solve from PW, each
    member until its Frank-Wolfe gap is <= ``tol``, else
    :class:`NoConvergence` names its tilt.  The s = 1 member is the limit
    s -> 1.  Every value equals that of a solve of the member alone, at
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


def _ends(ch: Channel, p: np.ndarray) -> tuple[TiltedSolution, TiltedSolution]:
    """The critical member (s = 1/2) and the most-tilted member (s = 1) of
    the family at the normalized ``p``, from one stacked solve."""
    _, solution = _tilted_stack(ch.w, p, [0.5, 1.0], FIXED_POINT_TOL)
    return solution(0), solution(1)


def _bisect(ch: Channel, p: np.ndarray, info: float, targets: list[float],
            tol: float, top: TiltedSolution) -> list[TiltedSolution | None]:
    """The solutions of :func:`sphere_packing_solutions` at the normalized
    ``p`` for ``targets`` in (0, ``info`` = I(P, W)), given ``top``, the s = 1 member."""
    found: list[TiltedSolution | None] = [None] * len(targets)
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
    if not all(0.0 < rate < math.inf for rate in targets):
        raise DomainError("rate must be positive and finite")
    p = as_distribution(input_dist, ch.input_size)
    info = mutual_information_matrix(p, ch.w)
    if any(rate >= info for rate in targets):
        raise DomainError("target rate is not below I(P, W); the exponent is 0")
    if not targets:
        return []
    return _bisect(ch, p, info, targets, tol, tilted_fixed_point(ch, p, 1.0))


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


def exponent_curve(ch: Channel, input_dist, rates, tol: float = 1e-9) -> ExponentCurve:
    """Sample (R, E_sp, E_r) on a rate grid, in bits.  E_sp is 0 for R >=
    I(P, W), +inf where no channel with finite divergence meets the rate,
    else the divergence witnessed by one lockstep bisection over the other
    rates.  E_r is E_sp from the critical rate up and the slope -1 line
    below it.  I(P, W), the s = 1/2 and s = 1 members and the bisection see
    one P, ``as_distribution(input_dist)``.  A rate <= 0, infinite or NaN is
    rejected before any solve."""
    rates = [float(rate) for rate in rates]
    if not all(0.0 < rate < math.inf for rate in rates):
        raise DomainError("rate must be positive and finite")
    p = as_distribution(input_dist, ch.input_size)
    info = mutual_information_matrix(p, ch.w)
    crit, top = _ends(ch, p)
    found = iter(_bisect(ch, p, info, [rate for rate in rates if not rate >= info], tol, top))
    points = []
    for rate in rates:
        # the bisection gives None where the exponent is infinite
        e_sp = 0.0 if rate >= info else getattr(next(found), "divergence", math.inf)
        e_r = e_sp if rate >= crit.rate else crit.divergence + crit.rate - rate
        points.append((rate, e_sp, e_r))
    return ExponentCurve(points=tuple(points), critical_rate=crit.rate,
                         e_sp_at_critical=crit.divergence)


def sphere_packing(ch: Channel, input_dist, rate: float, tol: float = 1e-9) -> float:
    """E_sp(R, P, W) in bits, the one point of :func:`exponent_curve` at R."""
    return exponent_curve(ch, input_dist, [rate], tol).points[0][1]


def critical_rate(ch: Channel, input_dist) -> TiltedSolution:
    """The s = 1/2 member of the family; its rate is where the sphere-packing
    curve has slope -1, the knee of the random-coding exponent."""
    return tilted_fixed_point(ch, input_dist, 0.5)


def random_coding(ch: Channel, input_dist, rate: float, tol: float = 1e-9) -> float:
    """E_r(R, P, W) in bits, the one point of :func:`exponent_curve` at R."""
    return exponent_curve(ch, input_dist, [rate], tol).points[0][2]


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
    if not 0.0 < rate < math.inf:
        raise DomainError("rate must be positive and finite")
    if blocklength < 1 or blocklength % composition.length != 0:
        raise DomainError("blocklength must be a positive multiple of the subblock length")
    shifted = rate + rate_loss(composition)
    curve = exponent_curve(ch, composition.probabilities(), [shifted], tol)
    (_, e_sp, exponent), = curve.points
    if shifted >= curve.critical_rate:      # where E_r is E_sp
        log2_value = 1.0 - blocklength * exponent
        branch, vacuous = "sphere_packing", e_sp == 0.0
    else:
        log2_value = -blocklength * exponent
        branch, vacuous = "straight_line", False
    value = 2.0 ** log2_value if log2_value < 1024.0 else math.inf
    return CsccErrorBound(value=value, log2_value=log2_value, exponent=exponent,
                          shifted_rate=shifted, vacuous=vacuous, branch=branch)


def cscc_exponent_lower_bound(ch: Channel, composition: Composition,
                              rate: float, tol: float = 1e-9) -> float:
    """Achievable error exponent for a CSCC: the random-coding exponent at the
    rate shifted up by r(L, P), the exponent of :func:`cscc_error_bound`."""
    return cscc_error_bound(ch, composition, rate, composition.length, tol).exponent
