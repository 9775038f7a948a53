import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subblock.capacity
from subblock import (Channel, Composition, DomainError, EmptyFeasibleSet,
                      SizeLimit, asymmetry_witness, capacity_power,
                      cscc_capacity, cscc_composition_rate,
                      feasible_compositions, materialize_type_class,
                      per_input_information, secc_capacity, secc_uniform_rate,
                      type_class_size)
from subblock.capacity import ClassTable, blahut_arimoto, cscc_from_table
from subblock.secc import secc_from_table
from subblock.oracle import sequence_channel, two_input_ccc, uniform_input_rate

TERNARY = Channel([[0.8, 0.15, 0.05],
                   [0.1, 0.7, 0.2],
                   [0.05, 0.25, 0.7]], (0.0, 0.5, 1.0))


def super_letters(ch, length, threshold):
    """Every super-letter, classes in :func:`feasible_compositions` order and
    rows lexicographic within each class."""
    return np.concatenate([materialize_type_class(c)
                           for c in feasible_compositions(ch, length, threshold)])


def super_letter_channel(ch, length, threshold):
    """The materialized SECC vector channel, rows ordered as :func:`super_letters`."""
    return sequence_channel(ch, super_letters(ch, length, threshold))


def vector_channel_certificate(ch, length, threshold, distribution):
    """Certifier for :func:`secc_capacity`: one Blahut-Arimoto evaluation on
    the fully materialized super-letter vector channel, at the class weights
    spread uniformly over each class.  Returns (rate, duality gap) in
    bits/use; the capacity of the vector channel lies in
    [rate, rate + gap]."""
    sizes = [type_class_size(c.counts) for c in feasible_compositions(ch, length, threshold)]
    spread = np.repeat(distribution / np.array(sizes), sizes)
    _, info, _, gap = blahut_arimoto(super_letter_channel(ch, length, threshold),
                                     p_init=spread, max_iter=1)
    return info / math.log(2) / length, gap / math.log(2) / length


def test_super_alphabet_size():
    ch = Channel.noiseless(2, (0.0, 1.0))
    classes = feasible_compositions(ch, 2, 0.5)
    # classes in lexicographic composition order: (0, 2) holds 11,
    # (1, 1) holds 01 and 10
    assert [c.counts for c in classes] == [(0, 2), (1, 1)]
    assert [type_class_size(c.counts) for c in classes] == [1, 2]
    assert super_letters(ch, 2, 0.5).tolist() == [[1, 1], [0, 1], [1, 0]]
    for capacity in (secc_uniform_rate, secc_capacity):
        with pytest.raises(EmptyFeasibleSet):
            capacity(ch, 2, 1.5)
    # the balanced class of length 24 holds 2,704,156 sequences, above the
    # class cap; the closed-form count raises before any class is built
    with pytest.raises(SizeLimit, match="type class"):
        secc_uniform_rate(ch, 24, 0.0)


def test_caps_fail_before_any_class_is_materialized(monkeypatch):
    calls = []
    original = subblock.capacity.type_class_blocks

    def recording(counts, *args, **kwargs):
        calls.append(tuple(counts))
        return original(counts, *args, **kwargs)

    monkeypatch.setattr(subblock.capacity, "type_class_blocks", recording)
    ch = Channel.bsc(0.1)
    # (4, 60) is within the class cap and listed before (5, 59), which is not
    for capacity in (cscc_capacity, secc_capacity, secc_uniform_rate):
        with pytest.raises(SizeLimit, match="cap"):
            capacity(ch, 64, 0.5)
    with pytest.raises(SizeLimit, match="output type classes"):
        secc_capacity(Channel(np.full((2, 20), 0.05), (0.0, 1.0)), 8, 0.5)
    assert calls == []
    # within the caps, the hook sees every class filled
    for capacity in (cscc_capacity, secc_capacity, secc_uniform_rate):
        capacity(ch, 4, 0.5)
        assert calls, capacity.__name__
        calls.clear()


def test_output_type_cap_at_default():
    # BSC(0.1) with each output split into 42 equally likely copies: L = 3
    # has 102,340 output type classes, above the cap
    split = Channel(np.repeat([[0.9, 0.1], [0.1, 0.9]], 42, axis=1) / 42, (0.0, 1.0))
    with pytest.raises(SizeLimit, match="output type classes"):
        secc_capacity(split, 3, 0.5)


def test_secc_uniform_rate_examples():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert abs(secc_uniform_rate(noiseless, 2, 0.5) - math.log2(3) / 2) < 1e-12
    # vacuous constraint: uniform over all sequences of a noiseless channel
    assert abs(secc_uniform_rate(noiseless, 2, 0.0) - 1.0) < 1e-12
    ch = Channel.bsc(0.1)
    oracle = uniform_input_rate(ch, super_letters(ch, 2, 0.5))
    assert abs(secc_uniform_rate(ch, 2, 0.5) - oracle) <= 1e-9


def test_secc_uniform_rate_matches_bruteforce():
    cases = [(Channel.bsc(p0), length, threshold) for p0 in (0.05, 0.2, 0.35)
             for length, threshold in ((2, 0.5), (3, 0.4), (4, 0.5), (4, 0.7))]
    cases += [(ch, length, threshold)
              for ch in (Channel.z(0.2), Channel.bec(0.3), TERNARY)
              for length in (2, 3, 4) for threshold in (0.3, 0.5, 0.7)]
    for ch, length, threshold in cases:
        oracle = uniform_input_rate(ch, super_letters(ch, length, threshold))
        assert abs(secc_uniform_rate(ch, length, threshold) - oracle) <= 1e-9


def test_secc_uniform_rate_is_clamped_at_zero():
    # at B = b_max only the all-top class is feasible and it carries nothing;
    # unclamped, rounding leaves the rate a few ulps below zero
    for length in (2, 3, 4, 5, 6, 8):
        assert secc_uniform_rate(TERNARY, length, 1.0) == 0.0


def test_secc_capacity_examples():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    result = secc_capacity(noiseless, 2, 0.5, tol=1e-12)
    assert abs(result.rate - math.log2(3) / 2) <= 1e-12
    # uniform over the three super-letters: 1/3 on class (0, 2), 2/3 on (1, 1)
    assert np.abs(result.distribution - [1.0 / 3.0, 2.0 / 3.0]).max() < 1e-6
    # a single feasible composition reduces the super-alphabet to one type
    # class, where the uniform input is optimal
    ch = Channel.bsc(0.3)
    single = secc_capacity(ch, 2, 1.0, tol=1e-11)
    fixed = cscc_composition_rate(ch, Composition((0, 2))).rate
    assert abs(single.rate - fixed) <= 1e-8
    # one super-letter carries no information; rounding must not make it negative
    assert single.rate >= 0.0
    lower = max(secc_uniform_rate(ch, 2, 0.5), cscc_capacity(ch, 2, 0.5).rate)
    assert secc_capacity(ch, 2, 0.5, tol=1e-10).rate >= lower - 1e-9


def test_secc_dominates_both_lower_bounds():
    for p0 in (0.1, 0.25):
        ch = Channel.bsc(p0)
        for length, threshold in ((2, 0.5), (3, 0.4), (4, 0.6)):
            exact = secc_capacity(ch, length, threshold, tol=1e-10).rate
            assert exact >= secc_uniform_rate(ch, length, threshold) - 1e-9
            assert exact >= cscc_capacity(ch, length, threshold).rate - 1e-9


def test_secc_is_never_below_cscc_on_the_fig7_grid():
    # Blahut-Arimoto stops up to its tolerance below the best single class,
    # which README fig7 once showed as SECC below CSCC at 30 of these points
    for k in range(51):
        table = ClassTable(Channel.bsc(k / 100), 8)
        result = secc_from_table(table, 0.6)
        assert result.rate >= cscc_from_table(table, 0.6).rate
        assert result.rate >= max(table.rates(table.feasible(0.6)))
        assert abs(result.distribution.sum() - 1.0) <= 1e-12


def test_secc_capacity_matches_vector_channel_ba():
    cases = [(Channel.bsc(p0), length, threshold)
             for p0 in (0.1, 0.25, 0.48) for length in range(2, 9)
             for threshold in (0.3, 0.6)]
    cases += [(TERNARY, length, threshold) for length in (2, 3, 4)
              for threshold in (0.3, 0.5)]
    for ch, length, threshold in cases:
        # Blahut-Arimoto alone does not certify BSC(0.48) at B = 0.3 within
        # 100,000 iterations; a smaller budget reaches the Newton finish sooner
        result = secc_capacity(ch, length, threshold, max_iter=20_000)
        rate, gap = vector_channel_certificate(ch, length, threshold, result.distribution)
        assert result.residual <= 1e-9 and gap <= 1e-9
        assert abs(result.rate - rate) <= 1e-9
        assert abs(result.distribution.sum() - 1.0) <= 1e-12


def test_secc_capacity_iterates_as_the_vector_channel():
    # from the uniform super-letter input, BA on the lumped channel follows
    # BA on the vector channel class by class, so both stop together
    for ch, length, threshold in ((Channel.bsc(0.1), 6, 0.6), (Channel.bsc(0.25), 4, 0.3),
                                  (TERNARY, 3, 0.5)):
        result = secc_capacity(ch, length, threshold)
        _, info, iterations, gap = blahut_arimoto(
            super_letter_channel(ch, length, threshold),
            tol_nats=1e-9 * length * math.log(2))
        assert iterations == result.iterations
        assert abs(info / math.log(2) / length - result.rate) <= 1e-12
        assert abs(gap / math.log(2) / length - result.residual) <= 1e-12


@st.composite
def small_channels(draw):
    outputs = draw(st.sampled_from((2, 3)))
    rows = [draw(st.lists(st.floats(0.05, 1.0), min_size=outputs, max_size=outputs))
            for _ in range(2)]
    energy = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return Channel([np.array(r) / sum(r) for r in rows], energy)


@settings(max_examples=30, deadline=None)
@given(ch=small_channels(), length=st.integers(1, 4), level=st.floats(0.0, 1.0))
def test_sandwich_on_random_channels(ch, length, level):
    threshold = min(ch.energy) + level * (max(ch.energy) - min(ch.energy))
    cscc = cscc_capacity(ch, length, threshold).rate
    # a small Blahut-Arimoto budget sends nearly useless channels to the
    # Newton finish sooner; the result is certified all the same
    secc = secc_capacity(ch, length, threshold, max_iter=5_000)
    assert secc.residual <= 1e-9
    assert cscc <= secc.rate + 1e-9
    assert secc.rate <= two_input_ccc(ch, threshold) + 1e-9
    ccc = capacity_power(ch, threshold)
    assert ccc.residual <= 1e-10
    assert secc.rate <= ccc.rate + 1e-9


def test_asymmetry_witness_near_noiseless():
    i01, i11 = asymmetry_witness(1e-6)
    assert abs(i01 - math.log2(3)) < 1e-3
    assert abs(i11 - math.log2(3)) < 1e-3
    assert abs(i01 - i11) < 1e-3


def test_asymmetry_witness_interior():
    for p0 in (0.1, 0.25, 0.4):
        i01, i11 = asymmetry_witness(p0)
        assert abs(i01 - i11) > 1e-4


def test_asymmetry_witness_swap_symmetry_exact():
    for p0 in (0.1, 0.25, 0.4):
        info = per_input_information(Channel.bsc(p0), [(0, 1), (1, 0), (1, 1)])
        assert info[0] == info[1]


def test_asymmetry_witness_domain():
    with pytest.raises(DomainError):
        asymmetry_witness(0.0)
    with pytest.raises(DomainError):
        asymmetry_witness(0.5)


def test_uniform_vs_cscc_crossover_at_L8():
    low_gap = secc_uniform_rate(Channel.bsc(0.01), 8, 0.6) \
        - cscc_capacity(Channel.bsc(0.01), 8, 0.6).rate
    high_gap = secc_uniform_rate(Channel.bsc(0.2), 8, 0.6) \
        - cscc_capacity(Channel.bsc(0.2), 8, 0.6).rate
    assert low_gap > 0.0
    assert high_gap < 0.0
