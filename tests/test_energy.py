import math

import numpy as np
import pytest

from subblock import (UNBOUNDED, BufferConfig, Channel, Composition,
                      DegenerateSplit, DomainError, adversarial_codeword,
                      balanced_composition, cscc_sequence, max_subblock_length,
                      simulate, worst_case_drawdown)

BINARY = Channel.noiseless(2, (0.0, 1.0))


def test_simulate_no_outage_with_net_gain():
    cfg = BufferConfig(e_max=3.0, demand=0.5, e_init=0.0)
    trace = simulate(cfg, BINARY, [1, 1, 1, 1])
    assert trace.outage_count == 0
    assert trace.levels[0] == 0.0 and trace.levels[-1] == 2.0


def test_simulate_immediate_outage():
    cfg = BufferConfig(e_max=3.0, demand=0.5, e_init=0.25)
    trace = simulate(cfg, BINARY, [0, 0])
    assert trace.outage_indices[0] == 0
    # level clamps at zero and the simulation continues
    assert trace.levels[1] == 0.0
    assert trace.outage_count == 2


def test_simulate_alternating_example():
    # alternating 1,0 with e_init = 0.5, e_max = 1: levels 0.5, 1, 0.5, 1, ...
    cfg = BufferConfig(e_max=1.0, demand=0.5, e_init=0.5)
    trace = simulate(cfg, BINARY, [1, 0, 1, 0])
    assert trace.levels.tolist() == [0.5, 1.0, 0.5, 1.0, 0.5]
    assert trace.outage_count == 0 and trace.overflow_count == 0


def test_simulate_overflow():
    cfg = BufferConfig(e_max=1.0, demand=0.0, e_init=1.0)
    trace = simulate(cfg, BINARY, [1])
    assert trace.overflow_indices == (0,)
    assert trace.levels[-1] == 1.0


def test_buffer_config_rejects_non_finite_settings():
    for e_max, demand in ((float("nan"), 0.5), (float("inf"), 0.5), (4.0, float("nan"))):
        with pytest.raises(DomainError, match="finite"):
            BufferConfig(e_max=e_max, demand=demand, e_init=0.0)


def test_buffer_config_rejects_negative_demand():
    with pytest.raises(DomainError, match="demand"):
        BufferConfig(e_max=4.0, demand=-1.0, e_init=0.0)
    assert BufferConfig(e_max=4.0, demand=0.0, e_init=0.0).demand == 0.0


def test_trace_rows_export():
    cfg = BufferConfig(e_max=1.0, demand=0.5, e_init=0.0)
    rows = list(simulate(cfg, BINARY, [0, 1]).rows())
    assert rows[0] == (0, 0.0, "outage")
    assert rows[1] == (1, 0.0, "none")
    assert rows[2][2] == "none"
    assert len(rows) == 3


def test_worst_case_drawdown_examples():
    assert worst_case_drawdown(Composition((4, 4)), BINARY, 0.5) == 2.0
    assert worst_case_drawdown(Composition((2, 2)), BINARY, 1.0) == 2.0
    # all symbols at or above the demand: nothing draws the buffer down
    assert worst_case_drawdown(Composition((2, 2)), BINARY, 0.0) == 0.0


def test_max_subblock_length_examples():
    assert max_subblock_length(BINARY, [0.5, 0.5], 0.5, 4.0) == 8
    assert max_subblock_length(BINARY, [0.5, 0.5], 0.5, 1e-9) == 0
    # ties b(x) = demand count as high energy, so nothing drains
    assert max_subblock_length(BINARY, [0.5, 0.5], 0.0, 4.0) is UNBOUNDED
    assert max_subblock_length(BINARY, Composition((1, 1)), 0.5, 4.0) == 8
    # the shape is checked before an empty buffer returns 0
    for e_max in (4.0, 0.0):
        with pytest.raises(DomainError):
            max_subblock_length(BINARY, [0.7, 0.7], 0.5, e_max)


def test_max_subblock_length_rejects_a_non_finite_shape():
    for shape in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(DomainError, match="finite"):
            max_subblock_length(BINARY, shape, 0.5, 4.0, require_integral=True)


def test_energy_bounds_reject_non_finite_demand_and_capacity():
    # nan demand gave a drawdown of 0 and an UNBOUNDED length, inf demand a
    # length of 0; nan and inf e_max raised ValueError and OverflowError
    shape = [0.5, 0.5]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            worst_case_drawdown(Composition((2, 2)), BINARY, bad)
        with pytest.raises(DomainError, match="finite"):
            adversarial_codeword(Composition((2, 2)), BINARY, bad)
        for demand, e_max in ((bad, 4.0), (0.5, bad)):
            with pytest.raises(DomainError, match="finite"):
                max_subblock_length(BINARY, shape, demand, e_max)
            # before the composition is checked
            with pytest.raises(DomainError, match="finite"):
                max_subblock_length(BINARY, Composition((1, 1, 1)), demand, e_max)


def test_max_subblock_length_rejects_a_composition_over_another_alphabet():
    for counts in ((1, 1, 1), (2,)):
        for e_max in (4.0, 0.0):
            with pytest.raises(DomainError, match="alphabet"):
                max_subblock_length(BINARY, Composition(counts), 0.5, e_max)


def test_max_subblock_length_integral_option():
    # floor gives 8 for the balanced shape; requiring integral counts keeps 8,
    # an uneven shape steps down to a realizable length
    assert max_subblock_length(BINARY, [0.5, 0.5], 0.5, 4.25,
                               require_integral=True) == 8
    uneven = max_subblock_length(BINARY, [1 / 3, 2 / 3], 0.5, 3.0,
                                 require_integral=True)
    assert uneven == 9  # floor(3 / (2/3 * 0.5)) = 9, divisible by 3


def test_adversarial_codeword_structure():
    comp = Composition((2, 2))
    word = adversarial_codeword(comp, BINARY, 0.5, 2)
    assert word.tolist() == [1, 1, 0, 0, 0, 0, 1, 1]
    # every subblock has the exact composition
    for j in range(2):
        block = word[4 * j: 4 * (j + 1)]
        assert sorted(block.tolist()) == [0, 0, 1, 1]
    with pytest.raises(DegenerateSplit):
        adversarial_codeword(Composition((0, 4)), BINARY, 0.5, 2)
    with pytest.raises(DomainError):
        adversarial_codeword(comp, BINARY, 0.5, 1)


def test_sufficiency_randomized():
    # within the length bound and starting at the worst-case drawdown,
    # no CSCC ordering can cause an outage
    rng = np.random.default_rng(99)
    comp = Composition((4, 4))
    drawdown = worst_case_drawdown(comp, BINARY, 0.5)
    cfg = BufferConfig(e_max=4.0, demand=0.5, e_init=drawdown)
    for _ in range(1000):
        trace = simulate(cfg, BINARY, cscc_sequence(comp, 3, "random", rng=rng))
        assert trace.outage_count == 0


def test_sufficiency_ternary():
    ch = Channel.noiseless(3, (0.0, 0.5, 1.0))
    comp = Composition((2, 2, 2))
    demand = 0.5
    drawdown = worst_case_drawdown(comp, ch, demand)
    bound = max_subblock_length(ch, comp, demand, 2 * drawdown)
    assert bound >= comp.length
    cfg = BufferConfig(e_max=2 * drawdown, demand=demand, e_init=drawdown)
    rng = np.random.default_rng(7)
    for _ in range(300):
        trace = simulate(cfg, ch, cscc_sequence(comp, 3, "random", rng=rng))
        assert trace.outage_count == 0


def test_lemma_properties_along_traces():
    # (a) an event-free subblock cannot lower the start-of-subblock level
    # (c) starting at G with e_max >= 2G keeps every subblock start at G
    rng = np.random.default_rng(21)
    comp = Composition((4, 4))
    drawdown = worst_case_drawdown(comp, BINARY, 0.5)
    cfg = BufferConfig(e_max=2 * drawdown, demand=0.5, e_init=drawdown)
    length = comp.length
    for _ in range(200):
        seq = cscc_sequence(comp, 4, "random", rng=rng)
        trace = simulate(cfg, BINARY, seq)
        events = set(trace.outage_indices) | set(trace.overflow_indices)
        for j in range(4):
            start, end = j * length, (j + 1) * length
            assert trace.levels[start] >= drawdown - 1e-12
            if not events.intersection(range(start, end)):
                assert trace.levels[end] >= trace.levels[start] - 1e-12


def test_necessity_one_past_the_bound():
    # one symbol past the bound, the adversarial word causes an outage even
    # from a full buffer
    shape = [0.5, 0.5]
    e_max = 3.5
    bound = max_subblock_length(BINARY, shape, 0.5, e_max)
    assert bound == 7
    length = bound + 1
    comp = Composition((length // 2, length // 2))
    cfg = BufferConfig(e_max=e_max, demand=0.5, e_init=e_max)
    trace = simulate(cfg, BINARY, adversarial_codeword(comp, BINARY, 0.5, 2))
    assert trace.outage_count >= 1


def test_necessity_ternary():
    ch = Channel.noiseless(3, (0.0, 0.25, 1.0))
    comp = Composition((2, 2, 2))
    demand = 0.5
    drawdown = worst_case_drawdown(comp, ch, demand)  # 2*0.5 + 2*0.25 = 1.5
    assert drawdown == 1.5
    e_max = 2 * drawdown - 0.25  # just below the sufficiency requirement
    assert max_subblock_length(ch, comp, demand, e_max) < comp.length
    cfg = BufferConfig(e_max=e_max, demand=demand, e_init=e_max)
    trace = simulate(cfg, ch, adversarial_codeword(comp, ch, demand, 2))
    assert trace.outage_count >= 1


def test_balanced_composition_remainders():
    assert balanced_composition(2, 8).counts == (4, 4)
    assert balanced_composition(2, 9, energy=(0.0, 1.0)).counts == (5, 4)
    assert balanced_composition(2, 9, energy=(1.0, 0.0)).counts == (4, 5)
    assert balanced_composition(3, 7).counts == (3, 2, 2)


def test_balanced_composition_rejects_an_energy_map_of_another_size():
    with pytest.raises(DomainError, match="energy"):
        balanced_composition(3, 5, energy=(0.0, 1.0))


def test_cscc_sequence_orders():
    comp = Composition((1, 2))
    sorted_word = cscc_sequence(comp, 2, "sorted")
    assert sorted_word.tolist() == [0, 1, 1, 0, 1, 1]
    random_word = cscc_sequence(comp, 4, "random", rng=3)
    for j in range(4):
        assert sorted(random_word[3 * j: 3 * j + 3].tolist()) == [0, 1, 1]
    repeat = cscc_sequence(comp, 4, "random", rng=3)
    assert np.array_equal(random_word, repeat)
    with pytest.raises(DomainError):
        cscc_sequence(comp, 2, "shuffled")
