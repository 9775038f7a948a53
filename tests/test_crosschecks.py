"""Cross-route checks on less common configurations: ternary alphabets,
channels with structural zeros, independent grid oracles for the
constrained capacity solver, the P(y_Q) kernel against the per-sequence
route, and the monotonicity and relabelling invariance of the three
capacities."""

import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subblock.capacity
from subblock import (Channel, Composition, capacity_power, class_laws,
                      cscc_capacity, cscc_composition_rate,
                      cscc_composition_rate_bruteforce, enumerate_compositions,
                      feasible_compositions, mutual_information, secc_capacity,
                      secc_uniform_rate, sphere_packing_solution,
                      tilted_fixed_point, type_class_size)
from subblock.capacity import RATE_TIE_TOL
from subblock.oracle import class_laws_by_sequence, exact_binary_law

TERNARY = Channel([[0.8, 0.15, 0.05],
                   [0.1, 0.7, 0.2],
                   [0.05, 0.25, 0.7]], (0.0, 0.5, 1.0))


def simplex_grid_capacity(ch, threshold, steps=400):
    """Independent oracle for the capacity-power function on a 3-letter
    input: scan the probability simplex on a regular grid, keep the
    energy-feasible points, and return the largest mutual information."""
    w = ch.w
    logw = np.where(w > 0, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    row_neg_entropy = (w * logw).sum(axis=1)
    best = 0.0
    for i in range(steps + 1):
        a = i / steps
        js = np.arange(steps - i + 1)
        bs = js / steps
        cs = 1.0 - a - bs
        cs[np.abs(cs) < 1e-15] = 0.0
        ps = np.column_stack([np.full_like(bs, a), bs, cs])
        feasible = ps @ ch.energy >= threshold - 1e-12
        if not feasible.any():
            continue
        ps = ps[feasible]
        py = ps @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            h_out = -np.where(py > 0, py * np.log2(np.where(py > 0, py, 1.0)),
                              0.0).sum(axis=1)
        info = h_out + ps @ row_neg_entropy
        best = max(best, float(info.max()))
    return best


def test_capacity_power_matches_simplex_grid():
    for threshold in (0.0, 0.35, 0.6, 0.85):
        result = capacity_power(TERNARY, threshold, tol=1e-10)
        oracle = simplex_grid_capacity(TERNARY, threshold)
        # the grid undershoots the true maximum by at most its resolution gap
        assert result.rate >= oracle - 1e-9
        assert result.rate <= oracle + 5e-5
        energy = float(result.distribution @ TERNARY.energy)
        assert energy >= threshold - 1e-9


def test_ternary_cscc_capacity_matches_member_maximum():
    length, threshold = 3, 0.5
    feasible = feasible_compositions(TERNARY, length, threshold)
    best = max(cscc_composition_rate_bruteforce(TERNARY, comp)
               for comp in feasible)
    result = cscc_capacity(TERNARY, length, threshold)
    assert abs(result.rate - best) <= 1e-9
    assert result.composition in feasible


def best_member(ch, length, threshold):
    """The best :func:`cscc_composition_rate` over the feasible classes, one
    call per class: among the rates within ``RATE_TIE_TOL`` of the top, the
    largest mean energy, then the smallest counts vector."""
    results = [cscc_composition_rate(ch, comp)
               for comp in feasible_compositions(ch, length, threshold)]
    top = max(r.rate for r in results)
    near = [r for r in results if r.rate >= top - RATE_TIE_TOL]
    energy = max(r.composition.mean_energy(ch.energy) for r in near)
    return min((r for r in near
                if r.composition.mean_energy(ch.energy) >= energy - RATE_TIE_TOL),
               key=lambda r: r.composition.counts)


def test_cscc_capacity_is_the_best_member_bit_for_bit():
    for ch in (Channel.bsc(0.1), Channel.z(0.2), TERNARY):
        for length in (1, 2, 5, 8):
            for threshold in (0.0, 0.3, 0.5, 0.8):
                result = cscc_capacity(ch, length, threshold)
                assert result == best_member(ch, length, threshold), \
                    (ch.w.tolist(), length, threshold)


def test_ternary_sandwich():
    length, threshold = 3, 0.5
    cscc = cscc_capacity(TERNARY, length, threshold).rate
    uniform = secc_uniform_rate(TERNARY, length, threshold)
    secc = secc_capacity(TERNARY, length, threshold, tol=1e-10).rate
    ccc = capacity_power(TERNARY, threshold, tol=1e-10).rate
    assert secc >= max(cscc, uniform) - 1e-9
    assert ccc >= secc - 1e-9


ZEROED = Channel([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], (0.0, 1.0))


def test_tilted_family_respects_structural_zeros():
    p = np.array([0.4, 0.6])
    for s in (0.2, 0.5, 0.9, 1.0):
        sol = tilted_fixed_point(ZEROED, p, s, tol=1e-13)
        assert sol.v[0, 2] == 0.0 and sol.v[1, 0] == 0.0
        assert math.isfinite(sol.divergence)
        assert np.abs(sol.v.sum(axis=1) - 1.0).max() < 1e-12


def test_sphere_packing_with_structural_zeros():
    p = np.array([0.4, 0.6])
    info = mutual_information(p, ZEROED)
    floor_rate = tilted_fixed_point(ZEROED, p, 1.0, tol=1e-13).rate
    target = (info + floor_rate) / 2
    sol = sphere_packing_solution(ZEROED, p, target, tol=1e-9)
    assert abs(sol.rate - target) <= 1e-8
    assert sol.divergence > 0.0


def test_single_letter_alphabet():
    solo = Channel([[0.3, 0.7]], (1.0,))
    comp = Composition((4,))
    assert cscc_composition_rate(solo, comp).rate == 0.0
    assert cscc_composition_rate_bruteforce(solo, comp) == 0.0
    assert capacity_power(solo, 1.0).rate == 0.0


def test_cscc_capacity_with_unsorted_energies():
    # energy map need not be monotone in the symbol index
    ch = Channel([[0.9, 0.1], [0.2, 0.8]], (1.0, 0.0))
    result = cscc_capacity(ch, 4, 0.75)
    assert result.composition.counts == (3, 1)
    assert result.rate > 0.0


def _secc_rate(ch, length, threshold):
    # BA stalls on the ternary channel for tens of thousands of iterations;
    # the Newton finish after 200 still certifies the gap to tol
    result = secc_capacity(ch, length, threshold, max_iter=200)
    assert result.residual <= 1e-9
    return result.rate


def _three_rates(ch, length, threshold):
    return (cscc_capacity(ch, length, threshold).rate,
            _secc_rate(ch, length, threshold),
            capacity_power(ch, threshold).rate)


def test_rates_non_increasing_in_threshold():
    cases = [(Channel.bsc(0.1), (2, 4, 6)), (Channel.z(0.2), (2, 4, 6)),
             (TERNARY, (2, 4))]
    for ch, lengths in cases:
        grid = [ch.b_max * k / 10 for k in range(11)]
        ccc = [capacity_power(ch, b).rate for b in grid]
        assert all(b <= a + 1e-9 for a, b in zip(ccc, ccc[1:]))
        for length in lengths:
            cscc = [cscc_capacity(ch, length, b).rate for b in grid]
            secc = [_secc_rate(ch, length, b) for b in grid]
            for rates in (cscc, secc):
                assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


def test_rates_invariant_under_relabelling():
    for ch in (Channel.z(0.2), TERNARY):
        rows = np.roll(np.arange(ch.input_size), 1)
        columns = np.roll(np.arange(ch.output_size), 1)
        relabelled = (Channel(ch.w[:, ::-1], ch.energy),
                      Channel(ch.w[::-1], ch.energy[::-1]),
                      Channel(ch.w[rows][:, columns], ch.energy[rows]))
        for length in (2, 4):
            for threshold in (0.3 * ch.b_max, 0.7 * ch.b_max):
                cscc, secc, ccc = _three_rates(ch, length, threshold)
                for other in relabelled:
                    o_cscc, o_secc, o_ccc = _three_rates(other, length, threshold)
                    assert abs(o_cscc - cscc) <= 1e-12
                    assert abs(o_secc - secc) <= 2e-9
                    assert abs(o_ccc - ccc) <= 2e-9


# (id, channel, L, class counts or None for every class of length L)
KERNEL_CASES = [
    ("bsc-6", Channel.bsc(0.1), 6, None),
    ("bsc-16", Channel.bsc(0.1), 16, [(8, 8), (3, 13)]),
    ("bec-5", Channel.bec(0.3), 5, None),
    ("bec-16", Channel.bec(0.3), 16, [(8, 8)]),
    ("z-6", Channel.z(0.3), 6, None),
    ("z-16", Channel.z(0.3), 16, [(8, 8), (13, 3)]),
    ("ternary-4", TERNARY, 4, None),
    ("ternary-9", TERNARY, 9, [(3, 3, 3)]),
    ("ternary-12", TERNARY, 12, [(5, 4, 3)]),
    ("noiseless-6", Channel.noiseless(2), 6, None),
    ("noiseless-16", Channel.noiseless(2), 16, [(8, 8)]),
    # the root's children are the leaves
    ("bsc-1", Channel.bsc(0.1), 1, None),
    ("ternary-1", TERNARY, 1, None),
    # more output symbols than depths: L, not |Y|, bounds the levels in use
    ("noiseless5-2", Channel.noiseless(5), 2, None),
    ("wide-zeros-3", Channel([[0.5, 0.0, 0.25, 0.0, 0.25], [0.0, 0.4, 0.0, 0.6, 0.0]],
                             [0.0, 1.0]), 3, None),
]


def assert_kernel_matches_the_per_sequence_route(ch, classes, length):
    sizes, laws = class_laws(ch.w, classes, length)
    want_sizes, want_laws = class_laws_by_sequence(ch.w, classes, length)
    assert np.array_equal(sizes, want_sizes)
    assert np.array_equal(laws, want_laws)


@pytest.mark.parametrize("chunk", [None, 4096], ids=["default-chunk", "chunk-4096"])
@pytest.mark.parametrize("ch, length, counts", [case[1:] for case in KERNEL_CASES],
                         ids=[case[0] for case in KERNEL_CASES])
def test_kernel_matches_the_per_sequence_route(ch, length, counts, chunk, monkeypatch):
    if chunk is not None:
        # (8, 8)'s 12,870 sequences span four blocks, (5, 4, 3)'s 27,720 seven
        monkeypatch.setattr(subblock.capacity, "_BLOCK", chunk)
    classes = enumerate_compositions(ch.input_size, length) if counts is None \
        else [Composition(c) for c in counts]
    assert_kernel_matches_the_per_sequence_route(ch, classes, length)


@pytest.mark.parametrize("ch", [Channel.bsc(0.1), Channel.z(0.3)], ids=["bsc", "z"])
@pytest.mark.parametrize("counts", [(9, 9), (10, 10), (14, 6)])
def test_kernel_is_within_rounding_of_the_exact_law(ch, counts):
    # 48,620, 184,756 and 38,760 sequences, summed in 3, 12 and 3 blocks.
    # Each product of L letters carries at most L - 1 roundings, the sum of
    # each block and the sum of the blocks one each, and the division one:
    # (L + 2) units of 2**-53, so (L + 3) holds with room to spare.
    length, ones = sum(counts), counts[1]
    exact = exact_binary_law(ch.w, length, ones)
    law = class_laws(ch.w, [Composition(counts)], length)[1][0]
    tol = Fraction(length + 3, 2**53)
    # the j-th output type of enumerate_compositions order, (j, L - j), has
    # L - j ones
    for j, p_y in enumerate(law.tolist()):
        want = exact[length - j]
        assert abs(Fraction(p_y) - want) <= tol * want, j


@pytest.mark.parametrize("a", [Channel.bsc(0.1).w, Channel.z(0.3).w,
                               Channel.bsc(0.1).w ** 0.5, [[0.3, 2.5], [0.0, 1.0]]],
                         ids=["bsc", "z", "bsc-root", "not-stochastic"])
@pytest.mark.parametrize("length, ones", [(1, 0), (1, 1), (9, 4), (20, 6), (20, 10)])
def test_exact_binary_law_sums_to_the_row_sums(a, length, ones):
    # summed over every output sequence, the mean product factors into one
    # row sum of a per input symbol
    exact = exact_binary_law(a, length, ones)
    s0, s1 = (sum(map(Fraction, row)) for row in np.asarray(a, dtype=float).tolist())
    assert sum(math.comb(length, m) * law for m, law in enumerate(exact)) \
        == s0 ** (length - ones) * s1 ** ones


def test_kernel_matches_the_per_sequence_route_on_a_long_sparse_class():
    # 200 sequences against 201 output types whose prefixes run 200 deep
    assert_kernel_matches_the_per_sequence_route(Channel.bsc(0.2), [Composition((199, 1))], 200)


def test_kernel_matches_the_per_sequence_route_on_a_long_class_of_the_bec():
    # 20,301 output types; a row goes at the first depth whose symbol it
    # cannot reach, so representatives differ in how many rows they keep
    assert_kernel_matches_the_per_sequence_route(Channel.bec(0.3), [Composition((199, 1))], 200)


# channels on which the kernel drops rows whose partial product is zero
ZERO_CASES = [
    # no input reaches the last output symbol, visited last
    ("unreachable-last", Channel([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]], [0.0, 1.0]), 8),
    # no input reaches the first output symbol, so every row of a
    # representative that starts with it goes at the first depth
    ("unreachable-first", Channel([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8]], [0.0, 1.0]), 8),
    # the only zero is in the last column the walk visits
    ("zero-in-last-column", Channel([[0.6, 0.3, 0.1], [0.5, 0.5, 0.0]], [0.0, 1.0]), 10),
]


@pytest.mark.parametrize("ch, length", [case[1:] for case in ZERO_CASES],
                         ids=[case[0] for case in ZERO_CASES])
def test_kernel_matches_the_per_sequence_route_where_rows_drop(ch, length):
    classes = enumerate_compositions(ch.input_size, length)
    assert_kernel_matches_the_per_sequence_route(ch, classes, length)
    laws = class_laws(ch.w, classes, length)[1]
    unreachable = np.flatnonzero(ch.w.sum(axis=0) == 0.0)
    has_unreachable = [any(q.counts[y] for y in unreachable)
                       for q in enumerate_compositions(ch.output_size, length)]
    assert np.all(laws[:, has_unreachable] == 0.0)


def test_kernel_gives_exact_zeros_on_a_noiseless_channel():
    # y_Q is reached only from x = y_Q itself, so P(y_Q | P) is 1 / |T_P|
    # when Q = P and exactly 0 otherwise
    ch, length = Channel.noiseless(2), 12
    classes = enumerate_compositions(2, length)
    assert_kernel_matches_the_per_sequence_route(ch, classes, length)
    laws = class_laws(ch.w, classes, length)[1]
    expected = np.diag([1.0 / type_class_size(comp) for comp in classes])
    assert np.array_equal(laws, expected)


@st.composite
def kernel_instances(draw):
    """A channel with zero entries, a length L <= 8 and up to three of its
    classes."""
    inputs, outputs = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    w = np.array([draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                min_size=outputs, max_size=outputs))
                  for _ in range(inputs)])
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    ch = Channel(w / w.sum(axis=1, keepdims=True), [0.0] * inputs)
    length = draw(st.integers(1, 8))
    classes = draw(st.lists(st.sampled_from(enumerate_compositions(inputs, length)),
                            min_size=1, max_size=3, unique=True))
    return ch, classes, length


@settings(max_examples=40, deadline=None)
@given(instance=kernel_instances())
def test_kernel_matches_the_per_sequence_route_on_channels_with_zeros(instance):
    assert_kernel_matches_the_per_sequence_route(*instance)


def assert_each_member_matches(stack, classes, length):
    """One kernel call over ``stack`` equals, member by member, a
    single-matrix call and the per-sequence route, bit for bit."""
    sizes, laws = class_laws(stack, classes, length)
    assert laws.shape == stack.shape[:-2] + (len(classes), len(sizes))
    want_sizes, want_laws = class_laws_by_sequence(stack, classes, length)
    assert np.array_equal(sizes, want_sizes) and np.array_equal(laws, want_laws)
    for index in np.ndindex(stack.shape[:-2]):
        assert np.array_equal(class_laws(stack[index], classes, length)[1], laws[index]), index


STACK_CASES = [
    ("bsc-and-z", [Channel.bsc(0.0).w, Channel.bsc(0.1).w, Channel.bsc(0.5).w,
                   Channel.z(0.3).w], 8),
    # a zero in every row, in some rows, and in none, in one stack
    ("bec-mixed-zeros", [Channel.bec(eps).w for eps in (0.0, 0.3, 1.0)], 8),
    ("ternary", [TERNARY.w, TERNARY.w[::-1]], 6),
    # letter matrices whose rows do not sum to 1
    ("not-stochastic", [Channel.bsc(0.1).w ** 0.5, Channel.z(0.3).w ** 0.5,
                        Channel.bsc(0.0).w * 3.0], 8),
    ("ternary-not-stochastic", [TERNARY.w ** 0.5, Channel.noiseless(3).w], 6),
]


@pytest.mark.parametrize("matrices, length", [case[1:] for case in STACK_CASES],
                         ids=[case[0] for case in STACK_CASES])
def test_stacked_kernel_matches_each_member(matrices, length):
    stack = np.stack(matrices)
    classes = enumerate_compositions(stack.shape[-2], length)
    assert_each_member_matches(stack, classes, length)


def test_stacked_kernel_over_several_slices():
    # 3,432 sequences leave room for four matrices per slice, so the ten
    # matrices (in a 2 x 5 stack) take three slices
    stack = np.stack([Channel.bec(eps).w for eps in np.linspace(0.0, 1.0, 10)])
    width = subblock.capacity._BLOCK // type_class_size(Composition((7, 7)))
    assert width == 4
    assert_each_member_matches(stack.reshape(2, 5, 2, 3), [Composition((7, 7))], 14)


@pytest.mark.parametrize("matrices", [
    [Channel.bsc(0.0).w, Channel.bsc(0.1).w, Channel.bsc(0.5).w, Channel.z(0.3).w,
     Channel.bsc(0.1).w ** 0.5],
    [Channel.bec(eps).w for eps in (0.0, 0.3, 1.0)]], ids=["binary", "bec"])
def test_stacked_kernel_over_several_chunks(matrices, monkeypatch):
    # (8, 8)'s 12,870 sequences span four blocks of 4,096, each walked for
    # every matrix, one matrix per slice
    monkeypatch.setattr(subblock.capacity, "_BLOCK", 4096)
    assert_each_member_matches(np.stack(matrices), [Composition((8, 8))], 16)


def test_stacked_kernel_holds_one_slice_buffer_at_a_time():
    stack = np.stack([Channel.bec(eps).w for eps in np.linspace(0.0, 1.0, 12)])
    comp = Composition((7, 7))
    class_laws(stack, [comp], 14)
    gc.disable()    # a reference cycle would then keep what it holds
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        class_laws(stack, [comp], 14)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    rows = type_class_size(comp)
    width = subblock.capacity._BLOCK // rows                  # 4 of the 12 matrices
    block = rows * comp.length                                # int8: the class is one block
    # one slice's float64 buffer: a row per level and a scratch row
    buffer = (min(stack.shape[-1], comp.length) + 1) * width * rows * 8
    assert current - baseline < 64 * 1024
    # a second slice's buffer, or one buffer for the whole stack, would exceed this
    assert peak - baseline < block + 1.5 * buffer
