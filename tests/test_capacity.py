import ast
import gc
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subblock import (Channel, Composition, DomainError, EmptyFeasibleSet,
                      Infeasible, SizeLimit, capacity_power, ccc_composition_rate,
                      cscc_capacity, cscc_composition_rate,
                      cscc_composition_rate_bruteforce, feasible_compositions,
                      mutual_information, type_class_size, vector_channel)
import subblock.capacity
import subblock.typeclass
from subblock.capacity import (ClassTable, check_class_caps, class_laws, class_rates,
                               cscc_from_table)
from subblock.oracle import two_input_ccc


# four inputs, two outputs, an active constraint
FOUR = Channel([[0.9908187317968873, 0.00918126820311272],
                [0.00715230569793205, 0.992847694302068],
                [0.15915686250521668, 0.8408431374947833],
                [0.00577045061672824, 0.9942295493832718]],
               (0.4906371043484824, 0.5979971375506575,
                0.7295786241277247, 0.5247406088032964))


def bsc(p0):
    return Channel.bsc(p0)


def test_fixed_composition_examples():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert abs(cscc_composition_rate(noiseless, Composition((1, 1))).rate - 0.5) < 1e-12
    assert cscc_composition_rate(bsc(0.5), Composition((1, 1))).rate == 0.0
    comp = Composition((2, 2))
    reduced = cscc_composition_rate(bsc(0.1), comp).rate
    oracle = cscc_composition_rate_bruteforce(bsc(0.1), comp)
    assert abs(reduced - oracle) <= 1e-9


def test_oracle_examples():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert abs(cscc_composition_rate_bruteforce(noiseless, Composition((1, 1))) - 0.5) < 1e-12
    # single-vector class carries no information
    assert cscc_composition_rate_bruteforce(bsc(0.1), Composition((2, 0))) == 0.0
    comp = Composition((1, 1))
    assert abs(cscc_composition_rate(bsc(0.1), comp).rate
               - cscc_composition_rate_bruteforce(bsc(0.1), comp)) <= 1e-9


def test_reduction_matches_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        length = int(rng.integers(2, 7))
        ch = Channel(rng.dirichlet(np.ones(n_out), size=n_in), np.zeros(n_in))
        counts = tuple(int(c) for c in rng.multinomial(length, np.ones(n_in) / n_in))
        comp = Composition(counts)
        assert abs(cscc_composition_rate(ch, comp).rate
                   - cscc_composition_rate_bruteforce(ch, comp)) <= 1e-9


def test_output_type_equiprobability_and_pairwise_marginals():
    # under uniform input on the class, outputs sharing a composition are
    # equiprobable, and each coordinate's marginal equals the composition
    comp = Composition((2, 1))
    ch = Channel([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]], (0.0, 1.0))
    inputs, outputs, matrix = vector_channel(ch, comp)
    p_y = matrix.mean(axis=0)
    by_composition = {}
    for j in range(outputs.shape[0]):
        key = tuple(sorted(outputs[j].tolist()))
        by_composition.setdefault(key, []).append(p_y[j])
    for values in by_composition.values():
        assert max(values) - min(values) <= 1e-12
    n = inputs.shape[0]
    for i in range(comp.length):
        for x in range(2):
            marginal = np.sum(inputs[:, i] == x) / n
            assert abs(marginal - comp.counts[x] / comp.length) <= 1e-12


def test_cscc_capacity_examples():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    result = cscc_capacity(noiseless, 8, 0.5)
    assert abs(result.rate - math.log2(math.comb(8, 4)) / 8) < 1e-12
    assert result.composition.counts == (4, 4)
    # max dominates every feasible member
    member = cscc_composition_rate(bsc(0.1), Composition((1, 1))).rate
    assert cscc_capacity(bsc(0.1), 2, 0.5).rate >= member - 1e-12
    # forced single-sequence class at B = b_max
    forced = cscc_capacity(noiseless, 4, 1.0)
    assert forced.composition.counts == (0, 4)
    assert forced.rate <= 1e-12
    with pytest.raises(EmptyFeasibleSet):
        cscc_capacity(noiseless, 4, 1.5)


def test_cscc_capacity_tie_breaking():
    # equal-energy symbols make every composition of a useless channel rate 0;
    # the winner must be the highest-energy, lexicographically smallest counts
    ch = Channel.bsc(0.5)
    result = cscc_capacity(ch, 2, 0.0)
    assert result.rate == 0.0
    assert result.composition.counts == (0, 2)


class _StubTable:
    """The row interface of :class:`ClassTable` over given counts rows, mean
    energies and rates, every row with the same bound, so the scan visits
    them in the order given."""

    def __init__(self, classes):
        self.counts = np.array([counts for counts, _, _ in classes])
        self.energies = np.array([energy for _, energy, _ in classes])
        self._rates = np.array([rate for _, _, rate in classes])
        self.bounds = np.ones(len(classes))

    def feasible(self, threshold):
        return np.arange(len(self.counts))

    def rates(self, rows):
        return self._rates[rows]


def test_cscc_pick_does_not_depend_on_the_scan_order():
    # a chain of near-ties: b is within RATE_TIE_TOL of both a and c, but a is
    # 1.8 tolerances below c, the top, so only b and c tie; b has the smaller
    # counts at equal energy
    tol = subblock.capacity.RATE_TIE_TOL
    a = ((1, 2, 1), 1.5, 0.5)
    b = ((0, 4, 0), 1.0, 0.5 + 0.9 * tol)
    c = ((2, 0, 2), 1.0, 0.5 + 1.8 * tol)
    for order in ((a, b, c), (c, b, a)):
        result = cscc_from_table(_StubTable(order), 0.0)
        assert result.composition.counts == (0, 4, 0)
        assert result.rate >= c[2] - tol


def test_cscc_pick_breaks_a_rate_and_energy_tie_by_the_counts():
    # equal rates and energies: only the counts decide, compared entry by
    # entry, whatever the order of the rows; a class two tolerances lower in
    # energy stays out, though its counts are the smallest
    classes = [(counts, 1.0, 0.25) for counts in ((1, 2, 1), (0, 4, 0), (1, 0, 3), (0, 3, 1))]
    low = ((0, 0, 4), 1.0 - 2 * subblock.capacity.RATE_TIE_TOL, 0.25)
    for order in (classes + [low], [low] + classes[::-1], classes[2:] + classes[:2]):
        result = cscc_from_table(_StubTable(order), 0.0)
        assert result.composition.counts == (0, 3, 1)
        assert result.rate == 0.25


def test_cscc_capacity_monotone_in_subblock_length():
    for threshold in (0.3, 0.5, 0.6, 0.75):
        rates = [cscc_capacity(bsc(0.1), length, threshold).rate
                 for length in (2, 4, 8)]
        assert rates[0] <= rates[1] + 1e-9
        assert rates[1] <= rates[2] + 1e-9


def test_size_limits():
    # 2,704,156 sequences, above the class cap
    with pytest.raises(SizeLimit, match="type class"):
        cscc_composition_rate(bsc(0.1), Composition((12, 12)))
    # 184,756 sequences x 2**20 outputs, above the oracle's entry cap
    with pytest.raises(SizeLimit, match="vector channel"):
        cscc_composition_rate_bruteforce(bsc(0.1), Composition((10, 10)))


def test_class_cap_admits_a_class_of_exactly_the_cap(monkeypatch):
    # |T_(10, 10)| = C(20, 10) = 184,756
    filled, fill_rows = [], subblock.typeclass._fill_rows

    def recording(out, counts, start, n):
        filled.append(start)
        fill_rows(out, counts, start, n)

    monkeypatch.setattr(subblock.typeclass, "_fill_rows", recording)
    monkeypatch.setattr(subblock.capacity, "CLASS_CAP", 184_756)
    sizes, laws = class_laws(bsc(0.1).w, [(10, 10)], 20)
    assert laws.shape == (1, 21) and filled
    filled.clear()
    monkeypatch.setattr(subblock.capacity, "CLASS_CAP", 184_755)
    with pytest.raises(SizeLimit, match="type class"):
        class_laws(bsc(0.1).w, [(10, 10)], 20)
    assert filled == []


def test_class_table_builds_no_composition_per_row(monkeypatch):
    built, post_init = [], Composition.__post_init__

    def counting(self):
        built.append(self.counts)
        post_init(self)

    monkeypatch.setattr(Composition, "__post_init__", counting)
    table = ClassTable(Channel.load(Path(__file__).parent / "golden" / "ternary.txt"), 64)
    assert len(table.counts) == 2145 and built == []


def test_kernel_rejects_a_counts_row_of_another_shape():
    for rows, length in (([(1, 1, 0)], 2), ([(1, 2)], 2)):
        with pytest.raises(DomainError, match="counts row"):
            class_laws(bsc(0.1).w, rows, length)


@pytest.mark.parametrize("a", [[0.5, 0.5], [[0.5, -0.1], [0.2, 0.8]],
                               [[0.5, np.inf], [0.2, 0.8]], [[0.5, np.nan], [0.2, 0.8]]],
                         ids=["one-dimensional", "negative", "infinite", "nan"])
def test_kernel_rejects_a_malformed_letter_matrix(a):
    with pytest.raises(DomainError):
        class_laws(np.array(a), [(1, 1)], 2)


def test_output_type_class_beyond_the_float_range_is_a_size_limit():
    # |T_(515, 515)| = C(1030, 515) > 2**1024 > C(1029, 514); the class
    # (L - 1, 1) has only L sequences, so only the output side is too large
    check_class_caps(2, [(1028, 1)], 1029)
    for length in (1030, 2000):
        with pytest.raises(SizeLimit, match="float"):
            check_class_caps(2, [(length - 1, 1)], length)


def test_ccc_composition_rate():
    expected = 1.0 - (-(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9)))
    assert abs(ccc_composition_rate(bsc(0.1), Composition((1, 1))) - expected) < 1e-12
    assert abs(ccc_composition_rate(bsc(0.1), [0.5, 0.5]) - expected) < 1e-12
    assert ccc_composition_rate(bsc(0.1), Composition((0, 4))) == 0.0
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert abs(ccc_composition_rate(noiseless, [0.5, 0.5]) - 1.0) < 1e-15


def test_capacity_power_inactive_constraint():
    unconstrained = mutual_information([0.5, 0.5], bsc(0.1))
    for threshold in (0.0, 0.3, 0.5):
        result = capacity_power(bsc(0.1), threshold, tol=1e-10)
        assert abs(result.rate - unconstrained) <= 1e-9


def test_capacity_power_active_constraint():
    # active constraint pins the binary optimizer at E[b] = B exactly
    expected = mutual_information([0.1, 0.9], bsc(0.1))
    result = capacity_power(bsc(0.1), 0.9, tol=1e-10)
    assert abs(result.rate - expected) <= 1e-9
    assert abs(float(result.distribution @ np.array([0.0, 1.0])) - 0.9) <= 1e-9
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    boundary = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert abs(capacity_power(noiseless, 0.9, tol=1e-10).rate - boundary) <= 1e-9


def test_capacity_power_edges():
    assert capacity_power(bsc(0.1), 1.0).rate <= 1e-12
    with pytest.raises(Infeasible):
        capacity_power(bsc(0.1), 1.0 + 1e-6)


def test_capacity_power_residual_is_certified():
    result = capacity_power(bsc(0.17), 0.82, tol=1e-10)
    assert 0.0 <= result.residual <= 1e-9
    # an earlier solver returned 0.62392 bits here with residual 0.121
    result = capacity_power(FOUR, 0.6251703124142338)
    assert result.residual <= 1e-10
    assert result.iterations > 0
    assert abs(result.rate - 0.637070484594) <= 1e-9
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    assert capacity_power(noiseless, 0.95).residual <= 1e-10


def test_capacity_power_nearly_useless_channel():
    # the threshold sits just below b_max, so the optimizer is the one
    # two-input prior with p . b = B, with tiny weight on the second input
    ch = Channel([[0.422, 0.578], [0.5, 0.5]], (0.637, 0.374))
    threshold = 0.6341
    result = capacity_power(ch, threshold, tol=1e-10)
    t = (threshold - 0.374) / (0.637 - 0.374)
    assert result.residual <= 1e-10
    assert abs(result.rate - mutual_information([t, 1.0 - t], ch)) <= 1e-12
    assert result.iterations <= 10_000
    # Blahut-Arimoto took 88,691 iterations on this one
    ch = Channel([[0.9949, 0.0051], [0.9964, 0.0036]], (0.066, 0.179))
    result = capacity_power(ch, 0.1727, tol=1e-10)
    assert result.residual <= 1e-10
    assert abs(result.rate - two_input_ccc(ch, 0.1727)) <= 1e-9
    assert result.iterations <= 100


def test_capacity_power_with_two_inputs_is_closed_form(monkeypatch):
    solves, solve = [], subblock.capacity.barrier_newton
    monkeypatch.setattr(subblock.capacity, "barrier_newton",
                        lambda *args, **kwargs: solves.append(kwargs) or solve(*args, **kwargs))
    for ch, threshold in ((bsc(0.1), 0.9), (bsc(0.17), 0.82),
                          (Channel([[0.422, 0.578], [0.5, 0.5]], (0.637, 0.374)), 0.6341),
                          (Channel([[0.1, 0.9], [0.7, 0.3]], (1.0, 0.25)), 0.9)):
        solves.clear()
        result = capacity_power(ch, threshold, tol=1e-10)
        b_hi, b_lo = max(ch.energy), min(ch.energy)
        p_hi = (threshold - b_lo) / (b_hi - b_lo)
        p = result.distribution
        assert len(solves) == 1     # the unconstrained solve only
        assert p[int(np.argmax(ch.energy))] == p_hi and p.sum() == 1.0
        assert result.rate == mutual_information(p, ch)
        assert result.residual == 0.0
        assert abs(result.rate - two_input_ccc(ch, threshold)) <= 1e-9


def test_capacity_power_makes_no_blahut_arimoto_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("capacity_power called blahut_arimoto")

    monkeypatch.setattr(subblock.capacity, "blahut_arimoto", refuse)
    # unconstrained, active constraint, and the b_max branch
    for threshold in (0.3, 0.8, 1.0):
        assert capacity_power(bsc(0.1), threshold).residual <= 1e-10
    assert capacity_power(FOUR, 0.6251703124142338).residual <= 1e-10


@st.composite
def random_channels(draw):
    inputs, outputs = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows = [draw(st.lists(st.floats(0.0, 1.0), min_size=outputs, max_size=outputs))
            for _ in range(inputs)]
    energy = draw(st.lists(st.floats(0.0, 1.0), min_size=inputs, max_size=inputs))
    w = np.array(rows) ** 3 + 1e-3
    return Channel(w / w.sum(axis=1, keepdims=True), energy)


@settings(max_examples=60, deadline=None)
@given(ch=random_channels(), level=st.floats(0.0, 1.0))
def test_capacity_power_on_random_channels(ch, level):
    b = ch.energy
    threshold = float(b.min() + level * (b.max() - b.min()))
    result = capacity_power(ch, threshold, tol=1e-10)
    p = result.distribution
    assert result.residual <= 1e-10
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    assert p @ b >= threshold - 1e-12
    if ch.input_size == 2:
        # the oracle admits p . b >= threshold - 1e-12, so shifting its
        # threshold by that slack brackets the exact value
        assert result.rate <= two_input_ccc(ch, threshold) + 1e-9
        assert result.rate >= two_input_ccc(ch, threshold + 1e-12) - 1e-9


@settings(max_examples=40, deadline=None)
@given(ch=random_channels(), length=st.integers(1, 5),
       levels=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), random=st.randoms())
def test_law_table_rows_match_a_fresh_kernel_call(ch, length, levels, random):
    b = ch.energy
    low, high = sorted(float(b.min() + t * (b.max() - b.min())) for t in levels)
    # the rows are computed at the lower threshold, in shuffled order, and
    # read at both, again shuffled
    table = ClassTable(ch, length)
    rows = table.feasible(low).tolist()
    table.laws(random.sample(rows, len(rows)))
    for threshold in (high, low):
        rows = table.feasible(threshold).tolist()
        feasible = feasible_compositions(ch, length, threshold)
        assert table.counts[rows].tolist() == [list(c.counts) for c in feasible]
        random.shuffle(rows)
        classes = table.counts[rows].tolist()
        sizes, laws = class_laws(ch.w, classes, length)
        table_sizes, table_laws = table.laws(rows)
        assert np.array_equal(table_sizes, sizes) and np.array_equal(table_laws, laws)
        assert table.rates(rows).tolist() == class_rates(ch, classes, sizes, laws)
    assert cscc_from_table(table, high) == cscc_capacity(ch, length, high)
    # a threshold is an argument, so the table serves a lower one afterwards
    assert cscc_from_table(table, low) == cscc_capacity(ch, length, low)


@st.composite
def channels_with_zeros(draw):
    """Square 2 x 2 and 3 x 3 channels, some of whose entries are 0."""
    size = draw(st.integers(2, 3))
    w = np.array([draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
                  for _ in range(size)]) ** 3
    w[np.array(draw(st.lists(st.booleans(), min_size=size * size,
                             max_size=size * size))).reshape(size, size)] = 0.0
    for row in w:
        if row.sum() == 0.0:
            row[draw(st.integers(0, size - 1))] = 1.0
    energy = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    return Channel(w / w.sum(axis=1, keepdims=True), energy)


def table_bound(ch, counts):
    """u(P) of the class ``counts`` from a fresh :class:`ClassTable`."""
    table = ClassTable(ch, sum(counts))
    return table.bounds[table.counts.tolist().index(list(counts))]


def test_class_rate_bound_closed_forms():
    noiseless = Channel.noiseless(2, (0.0, 1.0))
    # log2|T_P| / L is the smaller term on a noiseless channel
    assert abs(table_bound(noiseless, (1, 1)) - 0.5) <= 1e-15
    assert abs(table_bound(noiseless, (4, 4)) - math.log2(70) / 8) <= 1e-15
    # I(P, W) = 1 - h(0.1) is the smaller term on a noisy one
    h = -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)
    assert abs(table_bound(bsc(0.1), (4, 4)) - (1.0 - h)) <= 1e-15
    assert table_bound(bsc(0.1), (0, 5)) == 0.0


# The bound holds exactly; the computed rates carry rounding, hence 1e-12.

@settings(max_examples=30, deadline=None)
@given(ch=channels_with_zeros(), length=st.integers(1, 6))
def test_class_rate_bound_dominates_the_oracle(ch, length):
    table = ClassTable(ch, length)
    for counts, bound in zip(table.counts.tolist(), table.bounds.tolist()):
        assert bound >= cscc_composition_rate_bruteforce(ch, Composition(tuple(counts))) - 1e-12


@settings(max_examples=30, deadline=None)
@given(ch=channels_with_zeros(), length=st.integers(1, 12))
def test_class_rate_bound_dominates_the_kernel(ch, length):
    table = ClassTable(ch, length)
    rows = np.arange(len(table.counts))
    assert (table.bounds >= table.rates(rows) - 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(ch=channels_with_zeros(), length=st.integers(1, 8),
       levels=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_pruned_scan_matches_the_full_scan(ch, length, levels):
    b = ch.energy
    low, high = sorted(float(b.min() + t * (b.max() - b.min())) for t in levels)
    table = ClassTable(ch, length)
    pruned = [cscc_from_table(table, low), cscc_from_table(table, high)]
    # with no class ruled out the scan is the plain tie rule over every row
    unbounded = ClassTable(ch, length)
    unbounded.bounds = np.full(len(unbounded.bounds), math.inf)
    with mock.patch.object(unbounded, "rates", wraps=unbounded.rates) as rates:
        full = [cscc_from_table(unbounded, low), cscc_from_table(unbounded, high)]
    scanned = {row for call in rates.call_args_list for row in call.args[0]}
    assert scanned == set(unbounded.feasible(low).tolist())
    assert pruned == full
    assert pruned[0] == cscc_capacity(ch, length, low)


def test_sandwich_against_feasible_members():
    # the capacity-power value dominates every CSCC rate at the same threshold
    for threshold in (0.5, 0.6, 0.75):
        ccc = capacity_power(bsc(0.2), threshold, tol=1e-10).rate
        for length in (2, 4):
            assert cscc_capacity(bsc(0.2), length, threshold).rate <= ccc + 1e-9


def test_vector_channel_rows_are_distributions():
    comp = Composition((2, 2))
    _, _, matrix = vector_channel(bsc(0.3), comp)
    assert matrix.shape == (type_class_size(comp.counts), 16)
    assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-12


def test_fast_path_does_not_import_the_oracle():
    package = Path(__file__).parents[1] / "src" / "subblock"
    for name in ("capacity.py", "secc.py", "typeclass.py"):
        tree = ast.parse((package / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "oracle" for m in modules), name


def test_only_the_kernel_materializes_type_classes():
    package = Path(__file__).parents[1] / "src" / "subblock"
    callers = []
    for name in ("capacity.py", "secc.py", "cli.py"):
        tree = ast.parse((package / name).read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = getattr(node, "func", None)
                called = getattr(callee, "id", getattr(callee, "attr", None))
                if called in ("materialize_type_class", "type_class_blocks"):
                    callers.append((name, func.name, called))
    assert callers == [("capacity.py", "class_laws", "type_class_blocks")]


def trace_walks(monkeypatch):
    """Record, for each ``_block_sums`` call under ``tracemalloc``, the traced
    memory at its start and the peak the walk adds above it."""
    walks = []
    block_sums = subblock.capacity._block_sums

    def traced(part, block, plan):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sums = block_sums(part, block, plan)
        walks.append((entry, tracemalloc.get_traced_memory()[1] - entry))
        return sums

    monkeypatch.setattr(subblock.capacity, "_block_sums", traced)
    return walks


def block_bound(output_size, length, block=subblock.capacity._BLOCK):
    """What the kernel may hold above its caller, whatever the class's size:
    one int8 block of the class, and either the block's filling, five int64
    per row, or the walk's buffer, a float64 row of the block per level and
    a scratch row, twice over for the gather's and the pruning's index
    arrays.  The filling and the walk do not overlap."""
    return block * (length + 8 * max(5, 2 * (min(output_size, length) + 1)))


def test_kernel_holds_one_chunk_block_at_a_time(monkeypatch):
    # 12,870 sequences span four blocks of 4,096
    monkeypatch.setattr(subblock.capacity, "_BLOCK", 4096)
    comp = Composition((8, 8))
    cscc_composition_rate(bsc(0.1), comp)
    walks = trace_walks(monkeypatch)
    tracemalloc.start()
    try:
        cscc_composition_rate(bsc(0.1), comp)
    finally:
        tracemalloc.stop()
    rows = 4096 * comp.length                            # one int8 block
    # one float64 row per output symbol and a scratch row, not one per depth
    buffer = (min(2, comp.length) + 1) * 4096 * 8
    assert len(walks) == 4
    # one block of the class and the block sums so far, but neither the
    # whole class nor the buffer of an earlier block
    assert all(entry < rows + 0.5 * buffer for entry, _ in walks)
    # one buffer, with room for the gather's index buffer
    assert all(walk < 1.75 * buffer for _, walk in walks)


def assert_kernel_frees_each_class_and_buffer(ch, monkeypatch):
    classes = [(8, 8), (7, 9)]
    class_laws(ch.w, classes, 16)
    walks = trace_walks(monkeypatch)
    gc.disable()    # a reference cycle would then keep what it holds
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        class_laws(ch.w, classes, 16)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    rows = min(max(map(type_class_size, classes)), subblock.capacity._BLOCK)
    block = rows * 16                                     # int8, one block
    # one (min(|Y|, L) + 1, rows) float64 buffer: a row per level and a scratch row
    buffer = (min(ch.output_size, 16) + 1) * rows * 8
    assert current - baseline < 64 * 1024
    assert len(walks) == 2
    # a block or a buffer kept alive into the next class would show here
    assert all(entry - baseline < block + 64 * 1024 for entry, _ in walks)
    # the buffer, with room for the gather's and the pruning's index arrays,
    # but not for a row per depth
    assert all(walk < 2 * buffer for _, walk in walks)


@pytest.mark.parametrize("counts", [(8, 8), (9, 9), (10, 10)])
def test_kernel_memory_does_not_grow_with_the_class(counts):
    # 12,870, 48,620 and 184,756 sequences: one, three and twelve blocks
    class_laws(bsc(0.1).w, [counts], sum(counts))
    gc.disable()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        class_laws(bsc(0.1).w, [counts], sum(counts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak - baseline < block_bound(2, sum(counts))


def test_kernel_frees_each_class_and_buffer(monkeypatch):
    assert_kernel_frees_each_class_and_buffer(bsc(0.1), monkeypatch)


@pytest.mark.parametrize("ch", [Channel.bec(0.3), Channel.z(0.3), Channel.noiseless(2)],
                         ids=["bec", "z", "noiseless"])
def test_kernel_frees_each_class_and_buffer_on_channels_with_zeros(ch, monkeypatch):
    # the rows a zero drops are compacted into the buffer itself, and only
    # int32 indices of the survivors are kept
    assert_kernel_frees_each_class_and_buffer(ch, monkeypatch)
