import math

import numpy as np
import pytest

import subblock
from subblock import (Channel, Composition, DomainError, InfiniteExponent,
                      NoConvergence, critical_rate, cscc_error_bound,
                      cscc_exponent_lower_bound, exponent_curve,
                      mutual_information, random_coding, rate_loss,
                      sphere_packing, sphere_packing_solution,
                      tilted_fixed_point)
from subblock.oracle import grid_oracle_esp_bsc

UNIFORM = np.array([0.5, 0.5])


def test_fixed_point_at_s_zero():
    ch = Channel.bsc(0.1)
    sol = tilted_fixed_point(ch, UNIFORM, 0.0)
    assert np.allclose(sol.v, ch.w)
    assert sol.divergence == 0.0
    assert abs(sol.rate - mutual_information(UNIFORM, ch)) < 1e-12


def test_fixed_point_at_s_one():
    sol = tilted_fixed_point(Channel.bsc(0.1), UNIFORM, 1.0)
    # rows identical: the tilted channel carries no information
    assert np.abs(sol.v[0] - sol.v[1]).max() < 1e-12
    assert sol.rate <= 1e-12
    # deterministic rows are pinned for every tilt
    z = Channel.z(0.3)
    for s in (0.25, 0.5, 0.75, 1.0):
        sol_z = tilted_fixed_point(z, UNIFORM, s)
        assert np.allclose(sol_z.v[0], [1.0, 0.0])
    assert tilted_fixed_point(z, UNIFORM, 1.0).rate <= 1e-9


def test_fixed_point_interior():
    ch = Channel.bsc(0.1)
    sol = tilted_fixed_point(ch, UNIFORM, 0.3, tol=1e-13)
    assert 0.0 < sol.rate < mutual_information(UNIFORM, ch)
    assert sol.residual <= 1e-13
    assert np.abs(UNIFORM @ sol.v - sol.pv).max() <= 1e-10
    assert np.abs(sol.v.sum(axis=1) - 1.0).max() < 1e-12
    assert sol.divergence >= 0.0
    with pytest.raises(DomainError):
        tilted_fixed_point(ch, UNIFORM, 1.5)


def test_fixed_point_asymmetric_channel():
    ch = Channel([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], (0.0, 1.0))
    p = np.array([0.3, 0.7])
    for s in (0.2, 0.5, 0.8):
        sol = tilted_fixed_point(ch, p, s, tol=1e-13)
        assert sol.residual <= 1e-13
        # consistency: pv is the output marginal of v under p
        assert np.abs(p @ sol.v - sol.pv).max() <= 1e-10


def test_sphere_packing_zero_at_and_above_capacity():
    ch = Channel.bsc(0.1)
    info = mutual_information(UNIFORM, ch)
    assert sphere_packing(ch, UNIFORM, info) == 0.0
    assert sphere_packing(ch, UNIFORM, info + 0.1) == 0.0
    with pytest.raises(DomainError):
        sphere_packing(ch, UNIFORM, 0.0)


def test_sphere_packing_kkt_and_oracle():
    ch = Channel.bsc(0.1)
    sol = sphere_packing_solution(ch, UNIFORM, 0.3, tol=1e-10)
    assert abs(sol.rate - 0.3) <= 1e-8
    assert abs(sol.divergence - grid_oracle_esp_bsc(0.1, 0.3)) <= 1e-5


def test_sphere_packing_low_rate_approaches_full_tilt():
    ch = Channel.bsc(0.1)
    nearly_full = tilted_fixed_point(ch, UNIFORM, 1.0 - 1e-6)
    low_rate = sphere_packing(ch, UNIFORM, 1e-6)
    assert low_rate > 0.7
    assert abs(low_rate - nearly_full.divergence) < 0.01


def test_sphere_packing_infinite_for_noiseless():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert sphere_packing(noiseless, UNIFORM, 0.5) == math.inf


def test_infinite_exponent_is_its_own_exported_error():
    ch = Channel.bsc(0.0)
    assert sphere_packing(ch, UNIFORM, 0.5) == math.inf
    with pytest.raises(InfiniteExponent):
        sphere_packing_solution(ch, UNIFORM, 0.5)
    assert issubclass(InfiniteExponent, NoConvergence)
    assert "InfiniteExponent" in subblock.__all__


def test_fixed_point_reports_damping():
    # near s = 1 the BEC's residuals stop falling monotonically
    damped = tilted_fixed_point(Channel.bec(0.3), UNIFORM, 0.99)
    assert damped.damped and damped.residual <= 1e-12
    plain = tilted_fixed_point(Channel.z(0.3), UNIFORM, 0.99)
    assert not plain.damped and plain.residual <= 1e-12


def test_sphere_packing_convex_and_positive():
    ch = Channel.bsc(0.2)
    info = mutual_information(UNIFORM, ch)
    grid = np.linspace(0.02, info - 0.005, 30)
    values = [sphere_packing(ch, UNIFORM, float(r), tol=1e-10) for r in grid]
    assert all(v >= 1e-12 for v in values)
    for i in range(1, len(grid) - 1):
        assert values[i] <= 0.5 * (values[i - 1] + values[i + 1]) + 1e-8
    # non-increasing in the rate
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_random_coding_branches_and_continuity():
    ch = Channel.bsc(0.1)
    crit = critical_rate(ch, UNIFORM)
    assert 0.0 < crit.rate < mutual_information(UNIFORM, ch)
    above = crit.rate + 0.05
    assert abs(random_coding(ch, UNIFORM, above)
               - sphere_packing(ch, UNIFORM, above, tol=1e-10)) <= 1e-9
    below = crit.rate / 2
    assert abs(random_coding(ch, UNIFORM, below)
               - (crit.divergence + crit.rate - below)) < 1e-12
    # continuity at the knee
    assert abs(sphere_packing(ch, UNIFORM, crit.rate, tol=1e-10)
               - crit.divergence) <= 1e-9
    # straight-line intercept at rate -> 0
    tiny = random_coding(ch, UNIFORM, 1e-12)
    assert abs(tiny - (crit.divergence + crit.rate)) < 1e-9


def test_exponent_curve_shape():
    ch = Channel.bsc(0.1)
    info = mutual_information(UNIFORM, ch)
    curve = exponent_curve(ch, UNIFORM, np.linspace(0.02, info, 20), tol=1e-9)
    e_sp = [point[1] for point in curve.points]
    e_r = [point[2] for point in curve.points]
    assert all(b <= a + 1e-9 for a, b in zip(e_sp, e_sp[1:]))
    # the random-coding exponent never exceeds the sphere-packing one and
    # matches it exactly from the knee upward
    assert all(er <= es + 1e-12 for es, er in zip(e_sp, e_r))
    for (rate, es, er) in curve.points:
        if rate >= curve.critical_rate:
            assert er == es
    assert e_sp[-1] == 0.0
    assert curve.critical_rate > 0.0


def counted_stacked_solves(monkeypatch):
    calls = []
    solve = subblock.exponent._tilted_stack

    def counting(w, p, tilts, tol):
        calls.append(len(tilts))
        return solve(w, p, tilts, tol)

    monkeypatch.setattr(subblock.exponent, "_tilted_stack", counting)
    return calls


def test_exponent_curve_rejects_a_nonpositive_rate_before_any_solve(monkeypatch):
    calls = counted_stacked_solves(monkeypatch)
    ch = Channel.bsc(0.1)
    for bad in (0.0, -0.1):
        with pytest.raises(DomainError):
            exponent_curve(ch, UNIFORM, [0.1, 0.2, 0.3, bad])
    assert calls == []
    exponent_curve(ch, UNIFORM, [0.1, 0.2, 0.3])
    assert calls


def test_exponent_curve_makes_one_stacked_solve_per_bisection_level(monkeypatch):
    calls = counted_stacked_solves(monkeypatch)
    ch = Channel.bsc(0.1)
    rates = np.linspace(0.02, 0.5, 25)
    depth = 0
    for rate in rates:
        sphere_packing(ch, UNIFORM, rate)
        depth = max(depth, len(calls) - 1)      # the s = 1 solve, then one per level
        calls.clear()
    exponent_curve(ch, UNIFORM, rates)
    # the critical rate, the s = 1 solve, then one solve per level of the deepest rate
    assert len(calls) == 2 + depth


def test_one_curve_sees_one_p_and_one_mutual_information(monkeypatch):
    # this P sums to an ulp below 1; every solve and I(P, W) must see it as is
    ch = Channel([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.05, 0.25, 0.7]], (0.0, 0.5, 1.0))
    seen, info_calls = set(), []
    solve, info = subblock.exponent._tilted_stack, subblock.exponent.mutual_information_matrix

    def recording_solve(w, p, tilts, tol):
        seen.add(p.tobytes())
        return solve(w, p, tilts, tol)

    def recording_info(p, w):
        seen.add(p.tobytes())
        info_calls.append(1)
        return info(p, w)

    monkeypatch.setattr(subblock.exponent, "_tilted_stack", recording_solve)
    monkeypatch.setattr(subblock.exponent, "mutual_information_matrix", recording_info)
    exponent_curve(ch, [0.7, 0.2, 0.1], [0.01, 0.1, 0.2, 0.9])
    assert len(seen) == 1 and len(info_calls) == 1
    info_calls.clear()
    sphere_packing(ch, [0.7, 0.2, 0.1], 0.1)
    assert len(seen) == 1 and len(info_calls) == 1


def test_cscc_error_bound_branches():
    ch = Channel.bsc(0.1)
    comp = Composition((4, 4))
    info = mutual_information(comp.probabilities(), ch)
    # vacuous above capacity minus the shift
    vac = cscc_error_bound(ch, comp, info + 0.01, 8)
    assert vac.vacuous and vac.value == 2.0
    crit = critical_rate(ch, comp.probabilities())
    mid_rate = (crit.rate + info - rate_loss(comp)) / 2
    bound = cscc_error_bound(ch, comp, mid_rate, 64)
    assert bound.branch == "sphere_packing" and not bound.vacuous
    assert abs(bound.shifted_rate - (mid_rate + rate_loss(comp))) < 1e-15
    # at L = 8 the rate loss alone exceeds the critical rate, so the linear
    # branch needs a longer subblock to become reachable
    assert rate_loss(comp) > crit.rate
    long_comp = Composition((32, 32))
    assert rate_loss(long_comp) < crit.rate
    low = cscc_error_bound(ch, long_comp, 0.02, 128)
    assert low.branch == "straight_line"
    with pytest.raises(DomainError):
        cscc_error_bound(ch, comp, 0.1, 10)  # not a multiple of L


def test_cscc_error_bound_doubling_blocklength():
    ch = Channel.bsc(0.1)
    comp = Composition((32, 32))
    # doubling n squares the non-constant factor, exactly in log domain
    for rate, branch in ((0.25, "sphere_packing"), (0.02, "straight_line")):
        one = cscc_error_bound(ch, comp, rate, 128)
        two = cscc_error_bound(ch, comp, rate, 256)
        assert one.branch == branch
        if branch == "sphere_packing":
            assert abs(two.log2_value - (2 * one.log2_value - 1.0)) <= 1e-9
        else:
            assert abs(two.log2_value - 2 * one.log2_value) <= 1e-9


def test_cscc_exponent_approaches_ccc_exponent():
    ch = Channel.bsc(0.1)
    rate = 0.2
    direct = random_coding(ch, UNIFORM, rate, tol=1e-10)
    comp = Composition((32, 32))
    shifted = cscc_exponent_lower_bound(ch, comp, rate, tol=1e-10)
    # the shift is r(L, P) and the exponent slope is at most 1 in magnitude
    assert abs(shifted - direct) <= rate_loss(comp) + 1e-9
    assert shifted <= direct + 1e-12
