import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from unittest import mock

import numpy as np
import pytest

import subblock.typeclass
from subblock import (Channel, Composition, DomainError, EmptyFeasibleSet,
                      SizeLimit, composition_count, enumerate_compositions,
                      feasible_compositions, log_type_class_size,
                      materialize_type_class, rate_loss, type_class_blocks,
                      type_class_size)
from subblock.capacity import ClassTable
from subblock.typeclass import FEASIBILITY_TOL, composition_array

SRC = Path(__file__).resolve().parents[1] / "src"


def test_enumeration_examples():
    assert [c.counts for c in enumerate_compositions(2, 2)] == [(0, 2), (1, 1), (2, 0)]
    assert len(enumerate_compositions(2, 4)) == 5
    assert len(enumerate_compositions(3, 4)) == math.comb(6, 2) == 15


def test_enumeration_is_lexicographic_and_duplicate_free():
    comps = [c.counts for c in enumerate_compositions(3, 5)]
    assert comps == sorted(comps)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == 5 for c in comps)


def test_enumeration_list_is_freed_without_the_cycle_collector():
    enumerate_compositions(3, 16)
    gc.disable()    # a reference cycle would then keep the list alive
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        comps = enumerate_compositions(3, 16)
        held = tracemalloc.get_traced_memory()[0] - baseline
        del comps
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 10_000        # 153 compositions
    # the counts tuples stay on the interpreter's tuple free list; the list,
    # the compositions and their dicts are gone
    assert left < held / 2


def test_enumeration_size_limit():
    with pytest.raises(SizeLimit):
        enumerate_compositions(30, 100)


def stars_and_bars(alphabet_size, length):
    """The compositions by stars and bars over tuples: the bars' positions,
    listed by itertools in lexicographic order."""
    stop = length + alphabet_size - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (stop,)))
            for bars in itertools.combinations(range(stop), alphabet_size - 1)]


def test_composition_array_matches_stars_and_bars():
    for alphabet in range(1, 5):
        for length in range(1, 13):
            counts = composition_array(alphabet, length)
            rows = [tuple(row) for row in counts.tolist()]
            assert counts.shape == (composition_count(alphabet, length), alphabet)
            assert rows == stars_and_bars(alphabet, length)
            assert (counts.sum(axis=1) == length).all() and (counts >= 0).all()
            assert rows == sorted(set(rows))
            assert [c.counts for c in enumerate_compositions(alphabet, length)] == rows


def test_composition_array_checks_the_cap_before_allocating():
    cap = composition_count(3, 12)
    with mock.patch.object(subblock.typeclass, "ENUMERATION_CAP", cap):
        assert len(composition_array(3, 12)) == cap
        with pytest.raises(SizeLimit):
            composition_array(3, 13)
        # 302,621 rows of 4 counts would take 9.7 MB
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit):
                composition_array(4, 120)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(DomainError):
        composition_array(0, 3)


GOLDEN_CHANNELS = [Channel.bsc(0.1), Channel.bsc(0.01), Channel.noiseless(2),
                   Channel.load(Path(__file__).parent / "golden" / "ternary.txt")]


def test_table_energies_match_the_per_object_route():
    rng = np.random.default_rng(5)
    channels = GOLDEN_CHANNELS + [Channel(np.eye(k), rng.random(k) * 10.0 ** rng.uniform(-3, 3))
                                  for k in rng.integers(2, 5, size=40)]
    for ch in channels:
        for length in range(1, 13):
            table = ClassTable(ch, length)
            exact = np.array([c.mean_energy(ch.energy) for c in table.compositions])
            assert (np.abs(table.energies - exact) <= 4e-16 * exact).all()


def test_table_feasible_sets_match_the_per_object_route():
    for ch in GOLDEN_CHANNELS:
        for length in range(1, 13):
            table = ClassTable(ch, length)
            for threshold in np.linspace(0.0, 1.0, 21).tolist():
                members = [c for c in enumerate_compositions(ch.input_size, length)
                           if c.mean_energy(ch.energy) >= threshold - FEASIBILITY_TOL]
                assert [table.compositions[i] for i in table.feasible(threshold)] == members
                assert list(feasible_compositions(ch, length, threshold)) == members


def test_log_type_class_size_examples():
    assert abs(log_type_class_size(Composition((1, 1))) - 1.0) < 1e-12
    assert abs(log_type_class_size(Composition((2, 2))) - math.log2(6)) < 1e-12
    assert log_type_class_size(Composition((5, 0))) == 0.0


def test_log_type_class_size_matches_exact_integers():
    rng = np.random.default_rng(11)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        counts = tuple(int(c) for c in rng.multinomial(int(rng.integers(1, 40)),
                                                       np.ones(k) / k))
        comp = Composition(counts)
        exact = math.log2(type_class_size(comp))
        approx = log_type_class_size(comp)
        assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))
    # binary and ternary compositions out to L = 2048
    for L in (64, 256, 1024, 2048):
        for counts in ((L // 2, L - L // 2), (1, L - 1), (L // 3, L - L // 3),
                       (L // 3, L // 3, L - 2 * (L // 3)), (1, 2, L - 3),
                       (L // 2, L // 4, L - L // 2 - L // 4)):
            comp = Composition(counts)
            exact = math.log2(type_class_size(comp))
            approx = log_type_class_size(comp)
            assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))


def test_rate_loss_examples():
    assert abs(rate_loss(Composition((1, 1))) - 0.5) < 1e-12
    expected = 1.0 - math.log2(6) / 4
    assert abs(rate_loss(Composition((2, 2))) - expected) < 1e-12
    assert rate_loss(Composition((3, 0))) == 0.0


def test_rate_loss_decreasing_along_balanced_compositions():
    previous = math.inf
    for k in range(1, 65):
        value = rate_loss(Composition((k, k)))
        assert 0.0 <= value < previous
        previous = value


def test_partition_identity_exact():
    # type classes partition the sequence space: sum |T_P| = |X|^L
    for alphabet, length in ((2, 10), (3, 6), (4, 5)):
        total = sum(type_class_size(c)
                    for c in enumerate_compositions(alphabet, length))
        assert total == alphabet ** length


def test_feasible_set_examples():
    ch = Channel.noiseless(2, (0.0, 1.0))
    members = {c.counts for c in feasible_compositions(ch, 2, 0.5)}
    assert members == {(1, 1), (0, 2)}
    members4 = {c.counts for c in feasible_compositions(ch, 4, 0.6)}
    assert members4 == {(1, 3), (0, 4)}
    everything = feasible_compositions(ch, 3, 0.0)
    assert len(everything) == composition_count(2, 3)
    with pytest.raises(EmptyFeasibleSet):
        feasible_compositions(ch, 4, 1.5)


def test_feasible_set_antitone_in_threshold():
    ch = Channel(np.eye(3), (0.0, 0.4, 1.0))
    previous = None
    for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        members = {c.counts for c in feasible_compositions(ch, 5, threshold)}
        if previous is not None:
            assert members <= previous
        previous = members


def test_feasible_boundary_tolerance():
    ch = Channel.noiseless(2, (0.0, 1.0))
    # (1, 1) sits exactly on the boundary at B = 0.5
    assert (1, 1) in {c.counts for c in feasible_compositions(ch, 2, 0.5)}


def lexicographic_class(counts):
    """The type class as sorted tuples, by brute force: the distinct
    permutations of one member, or, where those are too many to list, the
    members of the full product (which it yields in lexicographic order)."""
    seq = [x for x, c in enumerate(counts) for _ in range(c)]
    if len(seq) <= 8:
        return sorted(set(itertools.permutations(seq)))
    return [t for t in itertools.product(range(len(counts)), repeat=len(seq))
            if all(t.count(x) == c for x, c in enumerate(counts))]


def test_materialize_type_class():
    rows = materialize_type_class(Composition((2, 1)))
    assert rows.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    for counts in ((2, 1), (3, 0, 2), (5,), (0, 4), (3, 2, 1), (4, 4, 4)):
        rows = materialize_type_class(Composition(counts))
        assert [tuple(r) for r in rows.tolist()] == lexicographic_class(counts)
        assert rows.dtype == np.int8 and rows.shape[1] == sum(counts)
        assert rows.flags.c_contiguous and not rows.flags.writeable
    wide = materialize_type_class(Composition((0,) * 200 + (1, 1)))
    assert wide.dtype == np.int16 and wide.tolist() == [[200, 201], [201, 200]]
    # 184,756 rows of 20 symbols: the cap is checked before anything is built
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit):
            materialize_type_class(Composition((10, 10)), cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("counts", [(2, 1), (3, 0, 2), (5,), (0, 4), (3, 2, 1),
                                    (2, 2, 2, 1), (4, 4, 4)])
def test_type_class_blocks_cut_the_class_in_order(counts):
    expected = lexicographic_class(counts)
    # one row, a few rows, rows that cut a subtree at every depth, and one
    # block for the whole class
    for rows in (1, 3, 7, 8, 1000, 10**6):
        blocks, buffers = [], set()
        for block in type_class_blocks(Composition(counts), rows):
            assert block.dtype == np.int8 and block.shape[1] == sum(counts)
            assert not block.flags.writeable
            buffers.add(id(block.base))
            blocks.extend(tuple(r) for r in block.tolist())
        assert blocks == expected, rows
        # one buffer, reused by every block
        assert len(buffers) == 1


BLOCK_PEAK = """
import tracemalloc
from subblock import Composition, type_class_blocks
blocks = type_class_blocks(Composition((10, 10)), 1000)
tracemalloc.start()
count = sum(1 for _ in blocks)
print(count, tracemalloc.get_traced_memory()[1])
"""


def test_type_class_blocks_hold_one_block():
    # 184,756 rows of 20 symbols, in blocks of 1,000: the whole class is
    # 3.7 MB, one block 20 KB with a few int64 per row to fill it.  Measured
    # in a fresh interpreter, as state that earlier tests leave behind
    # raises the peak by up to 25 KB
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", BLOCK_PEAK], capture_output=True,
                         text=True, env=env, check=True)
    count, peak = map(int, run.stdout.split())
    assert count == 185
    assert peak < 1000 * (20 + 6 * 8) + 16 * 1024
    comp = Composition((10, 10))
    with pytest.raises(SizeLimit):
        next(type_class_blocks(comp, 1000, cap=100))


def test_composition_validation():
    with pytest.raises(DomainError):
        Composition((1, -1))
    with pytest.raises(DomainError):
        Composition((0, 0))
    comp = Composition((1, 3))
    assert comp.length == 4 and comp.support_size == 2
    assert comp.mean_energy((0.0, 1.0)) == 0.75
