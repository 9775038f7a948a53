"""The iterative solvers against plain reference loops.

Blahut-Arimoto writes into preallocated arrays, calls ufuncs and reductions
directly, and skips masks that are identities on dense inputs.  None of that
may change a floating-point result, so its reference is the textbook loop
written with array expressions, and every comparison is exact (``==``).

The tilted family is solved by barrier Newton, not by the fixed-point loop
pv <- p V(pv) that serves as its reference here, so the two agree within
the reference loop's own error, and Newton's certified gap is <= the
tolerance.  What stays exact is the lockstep: every member of a stacked
solve equals its solo solve, and every rate of a lockstep bisection equals
its own bisection, bit for bit.
"""

import math

import numpy as np
import pytest

from subblock import (Channel, as_distribution, divergence_conditional,
                      exponent_curve, mutual_information, sphere_packing,
                      sphere_packing_solutions, tilted_fixed_point,
                      tilted_fixed_points)
from subblock.capacity import blahut_arimoto
from subblock.channel import mutual_information_matrix
from subblock.exponent import FIXED_POINT_TOL, _ends

TERNARY = Channel([[0.8, 0.15, 0.05],
                   [0.1, 0.7, 0.2],
                   [0.05, 0.25, 0.7]], (0.0, 0.5, 1.0))
DENSE = Channel(np.array([[4.0, 1.0, 2.0, 3.0, 1.0, 5.0],
                          [1.0, 6.0, 1.0, 1.0, 2.0, 1.0],
                          [2.0, 2.0, 7.0, 1.0, 1.0, 3.0],
                          [1.0, 1.0, 1.0, 5.0, 6.0, 2.0]]) / [[16.0], [12.0], [16.0], [16.0]],
                (0.0, 1.0, 2.0, 3.0))


def reference_blahut_arimoto(w, tol_nats=1e-12, max_iter=100_000, bonus=None,
                             p_init=None):
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    positive = w > 0.0
    logw = np.where(positive, np.log(np.where(positive, w, 1.0)), 0.0)
    p = np.full(n, 1.0 / n) if p_init is None else np.asarray(p_init, float).copy()
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    iterations, info, gap = 0, 0.0, math.inf
    for iterations in range(1, max_iter + 1):
        log_pw = np.log(np.maximum(p @ w, 1e-300))
        d = np.where(positive, w * (logw - log_pw[None, :]), 0.0).sum(axis=1)
        score = d if bonus is None else d + bonus
        objective = float(p @ score)
        info = float(p @ d)
        gap = float(score.max() - objective)
        if gap <= tol_nats:
            break
        log_p = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf) + score
        log_p -= log_p.max()
        p = np.exp(log_p)
        p /= p.sum()
    return p, info, iterations, gap


BA_CASES = {
    "dense": (DENSE.w, {}),
    "dense, capped": (DENSE.w, {"max_iter": 7}),
    "bsc": (Channel.bsc(0.11).w, {"tol_nats": 1e-14, "p_init": np.array([0.9, 0.1])}),
    "bec": (Channel.bec(0.3).w, {"p_init": np.array([0.2, 0.8])}),
    "noiseless": (Channel.noiseless(3).w, {"p_init": np.array([0.6, 0.3, 0.1])}),
    "z, bonus": (Channel.z(0.2).w, {"bonus": np.array([0.3, 0.05])}),
    # a zero weight stays zero, so these run to max_iter
    "ternary, bonus, zero prior weight": (
        TERNARY.w, {"bonus": np.array([0.0, 0.2, 0.1]),
                    "p_init": np.array([0.5, 0.0, 0.5]), "max_iter": 400}),
    "bec, zero prior weight": (Channel.bec(0.2).w,
                               {"p_init": np.array([0.0, 1.0]), "max_iter": 400}),
    # a weight that underflows to 0 mid-run takes the masked log from then on
    "dense, underflowing weight": (DENSE.w, {"bonus": np.array([0.0, -900.0, 0.1, 0.2])}),
}


@pytest.mark.parametrize("name", BA_CASES)
def test_blahut_arimoto_matches_reference_loop(name):
    w, kwargs = BA_CASES[name]
    p, info, iterations, gap = blahut_arimoto(w, **kwargs)
    ref_p, ref_info, ref_iterations, ref_gap = reference_blahut_arimoto(w, **kwargs)
    assert np.array_equal(p, ref_p)
    assert (info, iterations, gap) == (ref_info, ref_iterations, ref_gap)
    assert iterations >= 2


REFERENCE_MAX_ITER = 100_000


def reference_tilted(ch, input_dist, s):
    p = as_distribution(input_dist, ch.input_size)
    w = ch.w
    positive = w > 0.0
    wpow = np.where(positive, np.power(np.where(positive, w, 1.0), 1.0 - s), 0.0)

    def tilt(pv):
        scaled = wpow * np.power(pv, s)[None, :]
        denom = scaled.sum(axis=1)
        v = scaled / np.where(denom > 0.0, denom, 1.0)[:, None]
        return np.where(denom[:, None] > 0.0, v, w)

    pv = p @ w
    for _ in range(REFERENCE_MAX_ITER):
        pv_next = p @ tilt(pv)
        residual = float(np.abs(pv_next - pv).max())
        pv = pv_next
        if residual <= FIXED_POINT_TOL:
            break
    v = tilt(pv)
    return {"v": v, "pv": pv, "rate": mutual_information_matrix(p, v),
            "divergence": divergence_conditional(v, w, p)}


def reference_error(s):
    """A bound on the reference loop's error in pv, v and the rate.  Its
    contraction factor is about s, so a loop that stops once a step moves
    pv by FIXED_POINT_TOL stops within about FIXED_POINT_TOL / (1 - s) of
    the fixed point; twice that leaves room for Newton's own error."""
    return 2.0 * FIXED_POINT_TOL / max(1.0 - s, 0.01)


def assert_agrees_with_reference(sol, ref, s):
    """``sol`` is Newton-certified and within the reference loop's error of
    ``ref``.  The divergence moves s / (1 - s) times the rate along the
    family.  At s = 1, f can be flat along a face, where the loop stops at
    the point it starts toward and Newton gives the limit s -> 1, the face's
    least divergence: there the rates agree and Newton's divergence is no
    larger."""
    bound = reference_error(s)
    assert sol.residual <= FIXED_POINT_TOL
    assert abs(sol.rate - ref["rate"]) <= bound
    if s == 1.0:
        assert sol.divergence <= ref["divergence"] + bound
        return
    assert np.abs(sol.v - ref["v"]).max() <= bound
    assert np.abs(sol.pv - ref["pv"]).max() <= bound
    assert abs(sol.divergence - ref["divergence"]) <= bound / (1.0 - s)


TILTED_CASES = [
    (Channel.bsc(0.1), [0.5, 0.5], 0.3),
    (DENSE, [0.1, 0.2, 0.3, 0.4], 0.7),
    (Channel.z(0.3), [0.3, 0.7], 0.9),
    (Channel.bec(0.3), [0.5, 0.5], 0.99),      # the loop's residual rises at step 2
    (Channel.noiseless(3), [0.2, 0.5, 0.3], 1.0),
    # this P sums to an ulp below 1, so as_distribution keeps it as given
    (TERNARY, [0.7, 0.2, 0.1], 0.5),
]


@pytest.mark.parametrize("ch, p, s", TILTED_CASES)
def test_tilted_fixed_point_matches_reference_loop(ch, p, s):
    assert_agrees_with_reference(tilted_fixed_point(ch, p, s), reference_tilted(ch, p, s), s)


def test_tilted_fixed_point_is_unchanged_by_a_normalized_input():
    p = [0.7, 0.2, 0.1]
    sol = tilted_fixed_point(TERNARY, as_distribution(p), 0.5)
    ref = tilted_fixed_point(TERNARY, p, 0.5)
    assert np.array_equal(sol.v, ref.v) and np.array_equal(sol.pv, ref.pv)
    assert (sol.rate, sol.divergence, sol.iterations, sol.residual) == \
        (ref.rate, ref.divergence, ref.iterations, ref.residual)


STACKED_TILTS = [s for _, _, s in TILTED_CASES]
LOCKSTEP_CASES = [(ch, p) for ch, p, _ in TILTED_CASES] + [
    (Channel.bec(0.3), [0.5, 0.5]), (Channel.z(0.3), [0.3, 0.7]),
    (TERNARY, [1 / 3, 1 / 3, 1 / 3])]


@pytest.mark.parametrize("ch, p", [(ch, p) for ch, p, _ in TILTED_CASES])
def test_stacked_fixed_point_matches_reference_loop_per_member(ch, p):
    # members converge after different numbers of steps
    sols = tilted_fixed_points(ch, p, STACKED_TILTS)
    assert len(sols) == len(STACKED_TILTS)
    for sol, s in zip(sols, STACKED_TILTS):
        assert sol.s == s
        assert_agrees_with_reference(sol, reference_tilted(ch, p, s), s)


def assert_same_solution(sol, ref):
    assert np.array_equal(sol.v, ref.v) and np.array_equal(sol.pv, ref.pv)
    assert (sol.s, sol.rate, sol.divergence, sol.iterations, sol.residual) == \
        (ref.s, ref.rate, ref.divergence, ref.iterations, ref.residual)


@pytest.mark.parametrize("ch, p", LOCKSTEP_CASES)
def test_stacked_members_equal_their_solo_solves(ch, p):
    tilts = STACKED_TILTS + [0.0, 0.999, 0.5 + 1e-9]
    for sol, s in zip(tilted_fixed_points(ch, p, tilts), tilts):
        assert_same_solution(sol, tilted_fixed_point(ch, p, s))
    # the critical and most-tilted members, which exponent_curve solves together
    crit, top = _ends(ch, as_distribution(p, ch.input_size))
    assert_same_solution(crit, tilted_fixed_point(ch, p, 0.5))
    assert_same_solution(top, tilted_fixed_point(ch, p, 1.0))


def reference_sphere_packing(ch, input_dist, rate, tol):
    p = as_distribution(input_dist, ch.input_size)
    if rate >= mutual_information(p, ch):
        return 0.0
    p = as_distribution(p, ch.input_size)
    rate_lo = mutual_information(p, ch)
    lo, hi = 0.0, 1.0
    found = reference_tilted(ch, p, 1.0)
    rate_hi = found["rate"]
    if rate <= rate_hi - tol:
        return math.inf
    while abs(found["rate"] - rate) > tol:
        mid = 0.5 * (lo + hi)
        found = reference_tilted(ch, p, mid)
        assert rate_hi - 1e-9 <= found["rate"] <= rate_lo + 1e-9
        if found["rate"] > rate:
            lo, rate_lo = mid, found["rate"]
        elif found["rate"] < rate:
            hi, rate_hi = mid, found["rate"]
    return found["divergence"]


def reference_curve(ch, p, rates):
    crit = reference_tilted(ch, p, 0.5)
    points = []
    for rate in rates.tolist():
        e_sp = reference_sphere_packing(ch, p, rate, 1e-9)
        e_r = e_sp if rate >= crit["rate"] else crit["divergence"] + crit["rate"] - rate
        points.append((rate, e_sp, e_r))
    return tuple(points), crit


def assert_curve_agrees_with_reference(ch, p, rates, tol=1e-9):
    """Every point of ``exponent_curve`` within the reference's error: the
    E_sp of both lie within ``tol`` of the rate on a curve of slope
    -s / (1 - s), and the random-coding line through the critical point
    moves with the critical tilt s = 1/2."""
    curve = exponent_curve(ch, p, rates, tol)
    points, crit = reference_curve(ch, p, rates)
    knee = reference_error(0.5)
    assert abs(curve.critical_rate - crit["rate"]) <= knee
    assert abs(curve.e_sp_at_critical - crit["divergence"]) <= 2.0 * knee
    info = mutual_information(p, ch)
    sols = iter(sphere_packing_solutions(ch, p, rates[rates < info], tol))
    for (rate, e_sp, e_r), (ref_rate, ref_e_sp, ref_e_r) in zip(curve.points, points):
        assert rate == ref_rate
        sol = next(sols) if rate < info else None
        if sol is None:     # 0 at or above I(P, W), or infinite
            assert e_sp == ref_e_sp
        else:
            assert abs(e_sp - ref_e_sp) <= (2.0 * tol + reference_error(sol.s)) / (1.0 - sol.s)
        if rate >= curve.critical_rate:
            assert e_r == e_sp
        else:
            assert abs(e_r - ref_e_r) <= 3.0 * knee
    return curve


CURVE_CASES = [
    (Channel.bsc(0.1), [0.5, 0.5]),
    (Channel.z(0.3), [0.3, 0.7]),
    (TERNARY, [0.7, 0.2, 0.1]),
    (Channel.bsc(0.0), [0.5, 0.5]),     # e_sp = inf below capacity
    (DENSE, [0.1, 0.2, 0.3, 0.4]),
]
UNEVEN_GRIDS = [
    # the lowest rates need tilts above 0.95, where the fixed point is slowest
    (Channel.bec(0.3), [0.5, 0.5], [1e-7, 1e-6, 1e-5, 1e-3, 0.05, 0.3]),
    # rates out of order, one of them twice, and two at or above I(P, W)
    (Channel.z(0.3), [0.3, 0.7], [0.3, 0.05, 0.5, 0.2, 0.05, 0.4, 0.01]),
]


@pytest.mark.parametrize("ch, p", CURVE_CASES)
def test_exponent_curve_matches_reference_loop(ch, p):
    assert_curve_agrees_with_reference(ch, p, np.linspace(0.02, 1.1, 12))


@pytest.mark.parametrize("ch, p, rates", UNEVEN_GRIDS)
def test_exponent_curve_matches_reference_loop_on_uneven_grids(ch, p, rates):
    rates = np.array(rates)
    assert_curve_agrees_with_reference(ch, p, rates)
    info = mutual_information(p, ch)
    sols = sphere_packing_solutions(ch, p, rates[rates < info])
    if ch.output_size == 3:     # the BEC
        assert max(sol.s for sol in sols) > 0.95
    else:
        assert np.count_nonzero(rates >= info) == 2


@pytest.mark.parametrize("ch, p, rates", [(ch, p, np.linspace(0.02, 1.1, 12))
                                          for ch, p in CURVE_CASES] + UNEVEN_GRIDS)
def test_exponent_curve_equals_per_rate_sphere_packing(ch, p, rates):
    curve = exponent_curve(ch, p, rates)
    assert [e_sp for _, e_sp, _ in curve.points] == \
        [sphere_packing(ch, p, float(rate)) for rate in rates]
