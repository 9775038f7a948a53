import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subblock
from subblock import (Channel, Composition, DomainError, InfiniteExponent,
                      NoConvergence, critical_rate, cscc_error_bound,
                      cscc_exponent_lower_bound, exponent_curve,
                      mutual_information, random_coding, rate_loss,
                      sphere_packing, sphere_packing_solution, sphere_packing_solutions,
                      tilted_fixed_point, tilted_fixed_points)
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


def test_newton_certifies_the_bec_near_full_tilt():
    # the Frank-Wolfe gap bounds the error: a 100 times tighter solve moves
    # the rate and the divergence by no more than the slope s / (1 - s)
    # times the looser gap
    bec = tilted_fixed_point(Channel.bec(0.3), UNIFORM, 0.99)
    assert bec.residual <= 1e-12 and bec.iterations <= 60
    fine = tilted_fixed_point(Channel.bec(0.3), UNIFORM, 0.99, tol=1e-14)
    assert fine.residual <= 1e-14
    assert abs(bec.rate - fine.rate) <= 1e-10
    assert abs(bec.divergence - fine.divergence) <= 1e-10
    assert tilted_fixed_point(Channel.z(0.3), UNIFORM, 0.99).residual <= 1e-12


CERTIFIED_TILTS = [0.3, 0.9, 0.99, 1.0]
TERNARY = Channel([[0.8, 0.15, 0.05],
                   [0.1, 0.7, 0.2],
                   [0.05, 0.25, 0.7]], (0.0, 0.5, 1.0))
DENSE = Channel(np.array([[4.0, 1.0, 2.0, 3.0, 1.0, 5.0],
                          [1.0, 6.0, 1.0, 1.0, 2.0, 1.0],
                          [2.0, 2.0, 7.0, 1.0, 1.0, 3.0],
                          [1.0, 1.0, 1.0, 5.0, 6.0, 2.0]]) / [[16.0], [12.0], [16.0], [16.0]],
                (0.0, 1.0, 2.0, 3.0))


def test_newton_converges_near_full_tilt():
    # the fixed point needed about 20 / (1 - s) iterations here, and gave
    # up at s = 0.9999
    uniform = np.full(3, 1.0 / 3.0)
    for s in (0.999, 0.9999, 0.99999):
        sol = tilted_fixed_point(TERNARY, uniform, s)
        assert sol.residual <= 1e-12 and sol.iterations <= 20
    assert 0.0 < sphere_packing(TERNARY, uniform, 1e-6) < math.inf


@pytest.mark.parametrize("ch, p", [
    (Channel.bsc(0.1), [0.3, 0.7]),
    (DENSE, [0.1, 0.2, 0.3, 0.4]),
    (TERNARY, [0.7, 0.2, 0.1]),
], ids=["bsc", "dense", "ternary"])
def test_full_tilt_is_the_limit_of_the_family(ch, p):
    # with W > 0, f is flat at s = 1: every output marginal q maximizes it
    # and gives rate 0.  The limit s -> 1 is the least divergence among
    # them, q ~ prod_x w(y|x)^p_x, so E_sp(R_inf) has a closed form.
    p = subblock.as_distribution(p, ch.input_size)
    sol = tilted_fixed_point(ch, p, 1.0)
    closed = -math.log2(float(np.prod(ch.w ** p[:, None], axis=0).sum()))
    assert sol.rate <= 1e-12
    assert abs(sol.divergence - closed) <= 5e-12


def fourth_random_channel():
    """The fourth draw of a random 2-5 x 2-6 channel with zeros, with a zero
    in P on every third draw: W has a zero column under the support of P,
    so f is flat along a face at s = 1 and R_inf is about 1e-12."""
    rng = np.random.default_rng(5)
    for draw in range(4):
        r, c = rng.integers(2, 6), rng.integers(2, 7)
        w = rng.random((r, c)) * (rng.random((r, c)) > 0.3)
        for row in w:
            if row.sum() == 0.0:
                row[rng.integers(c)] = 1.0
        p = rng.random(r)
        if draw % 3 == 0:
            p[0] = 0.0
    return Channel(w / w.sum(axis=1, keepdims=True), np.zeros(r)), p / p.sum()


def test_sphere_packing_is_continuous_across_the_full_tilt_rate():
    # the fixed point's s = 1 point gave 0.630 just above R_inf, failed to
    # converge at R_inf + 2e-9, and gave 0.5996 at R_inf + 1e-8
    ch, p = fourth_random_channel()
    top = tilted_fixed_point(ch, p, 1.0)
    assert top.rate <= 1e-11
    values = [sphere_packing(ch, p, top.rate + gap) for gap in (5e-10, 2e-9, 1e-8, 1e-6)]
    assert values[0] == top.divergence
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(a - b <= 1e-3 for a, b in zip(values, values[1:]))
    assert abs(top.divergence - 0.5996902) <= 1e-7


def test_tilted_solve_names_its_tilt_when_newton_runs_out_of_steps(monkeypatch):
    monkeypatch.setattr(subblock.capacity, "NEWTON_MAX_STEPS", 5)
    with pytest.raises(NoConvergence, match=r"s=0\.99\b"):
        tilted_fixed_point(Channel.bec(0.3), UNIFORM, 0.99)
    # a member that converges within the cap is unaffected
    assert tilted_fixed_point(Channel.bsc(0.1), UNIFORM, 0.99).residual <= 1e-12


def arimoto_objective(w, p, s, q):
    """f(q) = sum_x p_x ln sum_y w(y|x)^(1-s) q_y^s, the concave function
    whose maximizer over the simplex is the tilted fixed point's marginal."""
    support = p > 0.0
    w = w[support]
    positive = w > 0.0
    wpow = np.where(positive, np.power(np.where(positive, w, 1.0), 1.0 - s), 0.0)
    with np.errstate(divide="ignore"):
        return float(p[support] @ np.log(wpow @ np.power(q, s)))


def assert_fixed_points_maximize_the_objective(ch, p, seed=0):
    """The certificate f(pv) >= f(q) for q = PW, the uniform q and 20 random
    points of the simplex, at each tilt: it holds at the maximizer alone,
    whatever iteration found it, and fails at a fixed point stuck on the
    boundary of the simplex."""
    p = np.asarray(p, dtype=float)
    rng = np.random.default_rng(seed)
    points = [p @ ch.w, np.full(ch.output_size, 1.0 / ch.output_size),
              *rng.dirichlet(np.ones(ch.output_size), 20)]
    for sol in tilted_fixed_points(ch, p, CERTIFIED_TILTS):
        best = arimoto_objective(ch.w, p, sol.s, sol.pv)
        for q in points:
            assert best >= arimoto_objective(ch.w, p, sol.s, q) - 1e-12


@pytest.mark.parametrize("ch, p", [
    (Channel.bec(0.3), UNIFORM),
    (Channel.z(0.3), UNIFORM),
    (TERNARY, [0.7, 0.2, 0.1]),
    (DENSE, [0.1, 0.2, 0.3, 0.4]),
    (Channel.noiseless(3), [0.2, 0.5, 0.3]),
    # f at s = 1 is curved where the solve at s = 1 - 1e-6 alone fell 1.75e-12
    # short of its maximum
    (Channel([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2 / 3, 1 / 3]], (0.0,) * 4),
     np.array([0.0, 1.0, 1.0, 64.0]) / 66),
], ids=["bec", "z", "ternary", "dense", "noiseless", "curved-full-tilt"])
def test_fixed_point_maximizes_the_arimoto_objective(ch, p):
    assert_fixed_points_maximize_the_objective(ch, p)


@st.composite
def channels_with_zeros(draw):
    """A 2-5 x 2-6 channel with zero entries and an input distribution with a
    zero weight."""
    inputs, outputs = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    w = np.array([draw(st.lists(entry, min_size=outputs, max_size=outputs))
                  for _ in range(inputs)])
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=inputs, max_size=inputs)))
    p[draw(st.integers(0, inputs - 1))] = 0.0
    return Channel(w / w.sum(axis=1, keepdims=True), np.zeros(inputs)), p / p.sum()


@settings(max_examples=60, deadline=None)
@given(instance=channels_with_zeros(), seed=st.integers(0, 2**32 - 1))
def test_fixed_point_maximizes_the_arimoto_objective_with_zeros(instance, seed):
    assert_fixed_points_maximize_the_objective(*instance, seed)


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


def test_exponent_routes_reject_a_non_finite_rate_before_any_solve(monkeypatch):
    # a NaN rate would pass a rate <= 0 test and exhaust the bisection, and
    # an infinite one would read E_sp = E_r = 0
    calls = counted_stacked_solves(monkeypatch)
    ch = Channel.bsc(0.1)
    for bad in (math.nan, math.inf):
        for route in (lambda: exponent_curve(ch, UNIFORM, [0.1, bad]),
                      lambda: sphere_packing_solutions(ch, UNIFORM, [0.1, bad]),
                      lambda: sphere_packing(ch, UNIFORM, bad),
                      lambda: random_coding(ch, UNIFORM, bad),
                      lambda: cscc_error_bound(ch, Composition((4, 4)), bad, 8)):
            with pytest.raises(DomainError):
                route()
    assert calls == []


def test_cscc_exponent_lower_bound_rejects_a_rate_that_is_not_positive(monkeypatch):
    calls = counted_stacked_solves(monkeypatch)
    ch, comp = Channel.bsc(0.1), Composition((32, 32))
    for bad in (-0.01, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            cscc_exponent_lower_bound(ch, comp, bad)
    assert calls == []
    assert cscc_exponent_lower_bound(ch, comp, 0.2) \
        == random_coding(ch, comp.probabilities(), 0.2 + rate_loss(comp))


def test_exponent_curve_makes_one_stacked_solve_per_bisection_level(monkeypatch):
    calls = counted_stacked_solves(monkeypatch)
    ch = Channel.bsc(0.1)
    rates = np.linspace(0.02, 0.5, 25)
    depth = 0
    for rate in rates:
        sphere_packing(ch, UNIFORM, rate)
        depth = max(depth, len(calls) - 1)      # the ends' solve, then one per level
        calls.clear()
    exponent_curve(ch, UNIFORM, rates)
    # s = 1/2 and s = 1 in one solve, then one solve per level of the deepest rate
    assert len(calls) == 1 + depth and calls[0] == 2


def fourth_random_composition():
    ch, p = fourth_random_channel()
    return ch, tuple(int(c) for c in np.round(p * 64))


@pytest.mark.parametrize("ch, counts", [
    (Channel.bsc(0.1), (32, 32)),
    (Channel.bec(0.3), (32, 32)),
    (Channel.z(0.3), (19, 45)),
    (TERNARY, (35, 10, 5)),
    (DENSE, (5, 10, 15, 20)),
    (Channel.noiseless(3), (10, 25, 15)),
    fourth_random_composition(),
], ids=["bsc", "bec", "z", "ternary", "dense", "noiseless", "fourth-random"])
def test_wrappers_equal_their_exponent_curve_entries(ch, counts):
    comp = Composition(counts)
    p = comp.probabilities()
    info = mutual_information(p, ch)
    rates = [info * f for f in (0.02, 0.5, 0.9, 1.0, 1.2)]
    curve = exponent_curve(ch, p, rates)
    shifted = exponent_curve(ch, p, [rate + rate_loss(comp) for rate in rates])
    assert any(rate < curve.critical_rate for rate in rates)
    for (rate, e_sp, e_r), (shifted_rate, _, e_r_shifted) in zip(curve.points, shifted.points):
        assert sphere_packing(ch, p, rate) == e_sp
        assert random_coding(ch, p, rate) == e_r
        bound = cscc_error_bound(ch, comp, rate, 4 * comp.length)
        assert (bound.shifted_rate, bound.exponent) == (shifted_rate, e_r_shifted)
        assert bound.branch == ("sphere_packing" if shifted_rate >= shifted.critical_rate
                                else "straight_line")


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
