"""The nine acceptance checks behind ``subblock validate`` and the acceptance
test suite.  Each check returns a :class:`CriterionResult` instead of raising,
so the CLI can print one pass/fail line per criterion.

Expected values are frozen from independent oracles: brute-force vector
channels, grid minimization, exhaustive enumeration, or closed forms evaluated
with the standard library.  Tolerances are fixed here and mirrored in the
tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (cscc_rate_lower_bound_bsc, penalty_bound_bec,
                     penalty_bound_bsc, penalty_bound_z)
from .capacity import (capacity_power, ccc_composition_rate, cscc_capacity,
                       cscc_composition_rate)
from .channel import Channel, mutual_information
from .energy import (BufferConfig, adversarial_codeword, balanced_composition,
                     cscc_sequence, max_subblock_length, simulate,
                     worst_case_drawdown)
from .errors import DomainError
from .exponent import critical_rate, sphere_packing, sphere_packing_solutions
from .finiteblock import lsd_rate_bsc
from .oracle import (asymmetry_witness, cscc_composition_rate_bruteforce,
                     grid_oracle_esp_bsc, per_input_information)
from .secc import secc_capacity, secc_uniform_rate
from .typeclass import Composition, rate_loss

DEFAULT_SEED = 20240517


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  criterion {self.number}: {self.name}  [{self.detail}]"


def _result(number, name, failures, detail):
    if failures:
        return CriterionResult(number, name, False, "; ".join(failures))
    return CriterionResult(number, name, True, detail)


def check_symmetry_reduction(seed: int = DEFAULT_SEED) -> CriterionResult:
    """1: reduced CSCC rate equals the brute-force vector-channel rate to 1e-9
    on 50 randomized (channel, composition) instances, L in 2..6, binary and
    ternary alphabets, in under 60 s."""
    rng = np.random.default_rng(seed)
    start = time.time()
    worst = 0.0
    failures = []
    for _ in range(50):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        length = int(rng.integers(2, 7))
        ch = Channel(rng.dirichlet(np.ones(n_out), size=n_in),
                     np.arange(n_in, dtype=float))
        counts = rng.multinomial(length, rng.dirichlet(np.ones(n_in)))
        comp = Composition(tuple(int(c) for c in counts))
        reduced = cscc_composition_rate(ch, comp).rate
        oracle = cscc_composition_rate_bruteforce(ch, comp)
        worst = max(worst, abs(reduced - oracle))
    elapsed = time.time() - start
    if worst > 1e-9:
        failures.append(f"worst |reduced - oracle| = {worst:.3e} > 1e-9")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    return _result(1, "symmetry-reduction exactness", failures,
                   f"worst diff {worst:.3e}, {elapsed:.2f}s")


def check_noiseless_closed_forms() -> CriterionResult:
    """2: noiseless CSCC rate = log2|T|/L and SECC rate = log2|A|/L to 1e-12."""
    ch = Channel.noiseless(2, (0.0, 1.0))
    failures = []
    cscc = cscc_capacity(ch, 2, 0.5).rate
    if abs(cscc - 0.5) > 1e-12:
        failures.append(f"CSCC L=2: {cscc!r} != 0.5")
    cscc8 = cscc_capacity(ch, 8, 0.5).rate
    want8 = math.log2(math.comb(8, 4)) / 8
    if abs(cscc8 - want8) > 1e-12:
        failures.append(f"CSCC L=8: {cscc8!r} != {want8!r}")
    uniform = secc_uniform_rate(ch, 2, 0.5)
    want = math.log2(3) / 2
    if abs(uniform - want) > 1e-12:
        failures.append(f"SECC uniform: {uniform!r} != {want!r}")
    exact = secc_capacity(ch, 2, 0.5, tol=1e-13).rate
    if abs(exact - want) > 1e-12:
        failures.append(f"SECC exact: {exact!r} != {want!r}")
    return _result(2, "noiseless closed forms", failures,
                   f"log2(70)/8 = {want8:.12f} matched")


def check_sandwich_chain() -> CriterionResult:
    """3: C_CSCC <= C_SECC <= C_CCC with slack >= -1e-9 on a B x p0 grid
    (exact SECC at L <= 4, uniform-rate bound at L = 8) including the
    uniform-vs-CSCC crossover at L=8, B=0.6."""
    failures = []
    for length in (2, 4):
        for p0 in (0.05, 0.1, 0.2, 0.3, 0.4):
            ch = Channel.bsc(p0)
            for threshold in (0.3, 0.5, 0.6, 0.75, 0.9):
                cscc = cscc_capacity(ch, length, threshold).rate
                secc = secc_capacity(ch, length, threshold, tol=1e-10).rate
                uniform = secc_uniform_rate(ch, length, threshold)
                ccc = capacity_power(ch, threshold, tol=1e-10).rate
                if secc < cscc - 1e-9:
                    failures.append(f"L={length} p0={p0} B={threshold}: SECC < CSCC")
                if secc < uniform - 1e-9:
                    failures.append(f"L={length} p0={p0} B={threshold}: SECC < uniform")
                if ccc < secc - 1e-9:
                    failures.append(f"L={length} p0={p0} B={threshold}: CCC < SECC")
    for p0 in (0.05, 0.1, 0.2):
        ch = Channel.bsc(p0)
        uniform = secc_uniform_rate(ch, 8, 0.6)
        cscc = cscc_capacity(ch, 8, 0.6).rate
        ccc = capacity_power(ch, 0.6, tol=1e-10).rate
        if uniform > ccc + 1e-9 or cscc > ccc + 1e-9:
            failures.append(f"L=8 p0={p0}: lower bound above CCC")
    low = secc_uniform_rate(Channel.bsc(0.01), 8, 0.6) \
        - cscc_capacity(Channel.bsc(0.01), 8, 0.6).rate
    high = secc_uniform_rate(Channel.bsc(0.2), 8, 0.6) \
        - cscc_capacity(Channel.bsc(0.2), 8, 0.6).rate
    if not (low > 0.0 and high < 0.0):
        failures.append(
            f"no crossover at L=8 B=0.6: gap(p0=0.01)={low:.4f}, gap(p0=0.2)={high:.4f}"
        )
    return _result(3, "capacity sandwich chain", failures,
                   f"crossover gaps {low:+.4f} / {high:+.4f}")


def check_penalty_bounds() -> CriterionResult:
    """4: 0 <= penalty <= sharpened bound <= r(L, P) across the BSC grid
    (exact penalty computed at L=4 and L=16), with the BEC and Z analogues."""
    failures = []
    comp16 = Composition((8, 8))
    comp4 = Composition((2, 2))
    loss16 = rate_loss(comp16)
    for p0 in np.linspace(0.005, 0.495, 50):
        bound = penalty_bound_bsc(float(p0), comp16)
        if not 0.0 <= bound.upper <= loss16 + 1e-12:
            failures.append(f"BSC bound outside [0, r] at p0={p0:.3f}")
            break
        if bound.upper >= loss16 and 0.0 < p0 < 0.5:
            failures.append(f"BSC bound not strictly below r at p0={p0:.3f}")
            break
        # exact penalty chain at desk scale on the same grid
        ch = Channel.bsc(float(p0))
        penalty = ccc_composition_rate(ch, comp4) - cscc_composition_rate(ch, comp4).rate
        small = penalty_bound_bsc(float(p0), comp4)
        if not -1e-9 <= penalty <= small.upper + 1e-9 <= rate_loss(comp4) + 1e-9:
            failures.append(f"BSC L=4 p0={p0:.3f}: exact chain violated")
    for p0 in np.linspace(0.02, 0.48, 12):
        ch = Channel.bsc(float(p0))
        penalty = ccc_composition_rate(ch, comp16) - cscc_composition_rate(ch, comp16).rate
        bound = penalty_bound_bsc(float(p0), comp16)
        if not -1e-9 <= penalty <= bound.upper + 1e-9:
            failures.append(
                f"BSC L=16 p0={p0:.3f}: penalty {penalty:.6f} "
                f"outside [0, {bound.upper:.6f}]"
            )
    loss4 = rate_loss(comp4)
    for eps in np.linspace(0.05, 0.95, 10):
        ch = Channel.bec(float(eps))
        penalty = ccc_composition_rate(ch, comp4) - cscc_composition_rate(ch, comp4).rate
        bound = penalty_bound_bec(float(eps), comp4)
        if not (-1e-9 <= penalty <= bound.upper + 1e-9 <= loss4 + 1e-9):
            failures.append(f"BEC eps={eps:.2f}: chain violated")
    for p0 in np.linspace(0.05, 0.95, 10):
        ch = Channel.z(float(p0))
        penalty = ccc_composition_rate(ch, comp4) - cscc_composition_rate(ch, comp4).rate
        bound = penalty_bound_z(float(p0), comp4)
        if not -1e-9 <= penalty <= bound.upper + 1e-9:
            failures.append(f"Z p0={p0:.2f}: penalty above bound")
    return _result(4, "rate-penalty bounds", failures,
                   f"r(16,(8,8)) = {loss16:.6f}")


def check_exponents() -> CriterionResult:
    """5: sphere packing matches a grid-search oracle to 1e-5 on BSC
    instances; convex; zero exactly at R >= I; E_r continuous at the critical
    rate to 1e-9; KKT rate match to 1e-8."""
    failures = []
    for p0 in (0.1, 0.2):
        ch = Channel.bsc(p0)
        p = np.array([0.5, 0.5])
        info = mutual_information(p, ch)
        grid = np.linspace(0.02, info - 0.005, 50)
        values = []
        for rate, sol in zip(grid, sphere_packing_solutions(ch, p, grid, tol=1e-10)):
            values.append(sol.divergence)
            if abs(sol.rate - rate) > 1e-8:
                failures.append(f"KKT violated at p0={p0}, R={rate:.4f}")
            oracle = grid_oracle_esp_bsc(p0, float(rate))
            if abs(sol.divergence - oracle) > 1e-5:
                failures.append(
                    f"oracle mismatch p0={p0} R={rate:.4f}: "
                    f"{sol.divergence:.8f} vs {oracle:.8f}"
                )
            if sol.divergence < 1e-12:
                failures.append(f"E_sp not strictly positive at R={rate:.4f}")
        for i in range(1, len(grid) - 1):
            if values[i] > 0.5 * (values[i - 1] + values[i + 1]) + 1e-8:
                failures.append(f"convexity violated at p0={p0}, index {i}")
        if sphere_packing(ch, p, info) != 0.0 or sphere_packing(ch, p, info + 0.01) != 0.0:
            failures.append(f"E_sp not exactly 0 at R >= I for p0={p0}")
        crit = critical_rate(ch, p)
        e_at_crit = sphere_packing(ch, p, crit.rate, tol=1e-10)
        if abs(e_at_crit - crit.divergence) > 1e-9:
            failures.append(f"E_r discontinuous at the critical rate for p0={p0}")
    return _result(5, "error exponents", failures, "oracle match <= 1e-5")


def check_energy_bound(seed: int = DEFAULT_SEED) -> CriterionResult:
    """6: b=(0,1), B=0.5, e_max=4.  The balanced length-8 composition (bound
    exactly 8) survives 1000 random CSCC codewords with E(1) = G = 2 and no
    outage.  At length 9 every energy-feasible composition satisfies the
    bound, so the outage demonstration uses the near-balanced composition
    (5, 4) whose leftover count sits on the low-energy symbol (bound 7); the
    balanced length-10 composition (bound 8 again) also fails.  Under 5 s."""
    start = time.time()
    failures = []
    ch = Channel.noiseless(2, (0.0, 1.0))
    comp8 = Composition((4, 4))
    drawdown = worst_case_drawdown(comp8, ch, 0.5)
    if drawdown != 2.0:
        failures.append(f"G = {drawdown!r} != 2.0")
    if max_subblock_length(ch, comp8, 0.5, 4.0) != 8:
        failures.append("balanced bound is not 8")
    rng = np.random.default_rng(seed)
    cfg = BufferConfig(e_max=4.0, demand=0.5, e_init=drawdown)
    outages = 0
    for _ in range(1000):
        seq = cscc_sequence(comp8, 3, "random", rng=rng)
        outages += simulate(cfg, ch, seq).outage_count
    if outages:
        failures.append(f"{outages} outages at L=8 with E(1)=G")
    adv8 = simulate(cfg, ch, adversarial_codeword(comp8, ch, 0.5, 4))
    if adv8.outage_count:
        failures.append("adversarial outage at L=8 despite the bound")
    for n1 in range(5, 10):
        comp = Composition((9 - n1, n1))
        if max_subblock_length(ch, comp, 0.5, 4.0) < 9:
            failures.append(f"feasible length-9 composition {comp.counts} violates the bound")
    comp9 = balanced_composition(2, 9, energy=ch.energy)
    full = BufferConfig(e_max=4.0, demand=0.5, e_init=4.0)
    adv9 = simulate(full, ch, adversarial_codeword(comp9, ch, 0.5, 2))
    if adv9.outage_count < 1:
        failures.append("no outage for the near-balanced length-9 composition")
    adv10 = simulate(full, ch, adversarial_codeword(Composition((5, 5)), ch, 0.5, 2))
    if adv10.outage_count < 1:
        failures.append("no outage for the balanced length-10 composition")
    elapsed = time.time() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    return _result(6, "energy bound tightness", failures,
                   f"L=9 outages {adv9.outage_count}, L=10 outages "
                   f"{adv10.outage_count}, {elapsed:.2f}s")


def check_asymmetry_witness() -> CriterionResult:
    """7: at L=2, B=0.5 the uniform super-letter input gives
    |I(01;Y) - I(11;Y)| > 1e-4 for p0 in {0.1, 0.25, 0.4} while
    I(01;Y) = I(10;Y) exactly."""
    failures = []
    for p0 in (0.1, 0.25, 0.4):
        i01, i11 = asymmetry_witness(p0)
        if abs(i01 - i11) <= 1e-4:
            failures.append(f"p0={p0}: |I01 - I11| = {abs(i01 - i11):.2e}")
        info = per_input_information(Channel.bsc(p0), [(0, 1), (1, 0), (1, 1)])
        if info[0] != info[1]:
            failures.append(f"p0={p0}: I01 != I10 ({info[0]!r} vs {info[1]!r})")
    return _result(7, "uniform-input asymmetry witness", failures,
                   "swap symmetry exact, class asymmetry > 1e-4")


def check_lsd_scaling() -> CriterionResult:
    """8: the scaled rate loss (C - rate(n)) * sqrt(n) moves by at most 2%
    between n=2^10 and n=2^12 (at epsilon=1e-4, where the log-term transient
    is small enough to expose the sqrt law), and the epsilon=1e-3 rate at
    n=128 sits below both capacity and the joint-decoding bound there."""
    failures = []
    p = 0.11
    capacity = 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    k_small = (capacity - lsd_rate_bsc(p, 2**10, 1e-4)) * math.sqrt(2**10)
    k_large = (capacity - lsd_rate_bsc(p, 2**12, 1e-4)) * math.sqrt(2**12)
    change = abs(k_large - k_small) / k_small
    if change > 0.02:
        failures.append(f"scaled loss changed {change:.2%} > 2%")
    joint = cscc_rate_lower_bound_bsc(p, Composition((64, 64)))
    local = lsd_rate_bsc(p, 128, 1e-3)
    if not local < joint:
        failures.append(f"LSD rate {local:.6f} not below joint bound {joint:.6f}")
    if not local < capacity:
        failures.append(f"LSD rate {local:.6f} not below capacity {capacity:.6f}")
    for eps_lo, eps_hi in ((1e-4, 1e-3), (1e-3, 1e-2)):
        if not lsd_rate_bsc(p, 128, eps_lo) < lsd_rate_bsc(p, 128, eps_hi):
            failures.append("rate not increasing in the error target")
    return _result(8, "local-subblock-decoding scaling", failures,
                   f"scaled-loss change {change:.2%}, LSD(128) = {local:.5f} "
                   f"< joint {joint:.5f}")


def check_capacity_power() -> CriterionResult:
    """9: the capacity-power function on BSC(0.1), b=(0,1) is non-increasing
    and midpoint-concave within 1e-9 on a 21-point grid and equals the
    unconstrained capacity for B <= 0.5 (the uniform optimizer's energy)."""
    failures = []
    ch = Channel.bsc(0.1)
    grid = np.linspace(0.0, 1.0, 21)
    rates = [capacity_power(ch, float(b), tol=1e-10).rate for b in grid]
    unconstrained = mutual_information([0.5, 0.5], ch)
    for i in range(len(grid) - 1):
        if rates[i + 1] > rates[i] + 1e-9:
            failures.append(f"not non-increasing at B={grid[i + 1]:.2f}")
    for i in range(1, len(grid) - 1):
        if rates[i] < 0.5 * (rates[i - 1] + rates[i + 1]) - 1e-9:
            failures.append(f"not midpoint-concave at B={grid[i]:.2f}")
    for b, rate in zip(grid, rates):
        if b <= 0.5 + 1e-12 and abs(rate - unconstrained) > 1e-9:
            failures.append(f"constrained != unconstrained at B={b:.2f}")
    return _result(9, "capacity-power function", failures,
                   f"C(0) = {rates[0]:.9f}, C(1) = {rates[-1]:.2e}")


ALL_CRITERIA = (
    check_symmetry_reduction,
    check_noiseless_closed_forms,
    check_sandwich_chain,
    check_penalty_bounds,
    check_exponents,
    check_energy_bound,
    check_asymmetry_witness,
    check_lsd_scaling,
    check_capacity_power,
)


def run_all(seed: int = DEFAULT_SEED, numbers=None) -> list[CriterionResult]:
    """Run the criteria numbered in ``numbers`` (default: all), in order."""
    known = range(1, len(ALL_CRITERIA) + 1)
    if numbers is not None and (not numbers or any(n not in known for n in numbers)):
        raise DomainError(f"criteria must be numbers 1..{len(ALL_CRITERIA)}")
    results = []
    for index, check in enumerate(ALL_CRITERIA, start=1):
        if numbers is not None and index not in numbers:
            continue
        if check in (check_symmetry_reduction, check_energy_bound):
            results.append(check(seed))
        else:
            results.append(check())
    return results
