"""Compositions (types) of length-L blocks, type-class sizes, the per-symbol
rate-loss term, and energy-feasible composition sets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, entropy
from .errors import DomainError, EmptyFeasibleSet, SizeLimit

ENUMERATION_CAP = 10**7
FEASIBILITY_TOL = 1e-12
LN2 = math.log(2.0)


@dataclass(frozen=True)
class Composition:
    """Symbol counts of a length-L block over a fixed input alphabet."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) == 0:
            raise DomainError("composition needs at least one symbol count")
        if any((not isinstance(c, int)) or c < 0 for c in self.counts):
            raise DomainError("composition counts must be non-negative integers")
        if sum(self.counts) < 1:
            raise DomainError("composition length must be at least 1")

    @property
    def length(self) -> int:
        return sum(self.counts)

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    @property
    def support_size(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    def probabilities(self) -> np.ndarray:
        p = np.array(self.counts, dtype=float) / self.length
        p.setflags(write=False)
        return p

    def entropy(self) -> float:
        return entropy(self.probabilities())

    def mean_energy(self, energy) -> float:
        """Expected harvested energy per symbol under this composition."""
        b = np.asarray(energy, dtype=float).ravel()
        if b.size != self.alphabet_size:
            raise DomainError("energy map does not match the composition alphabet")
        return math.fsum(c * e for c, e in zip(self.counts, b)) / self.length


def composition_count(alphabet_size: int, length: int) -> int:
    """Number of weak compositions of ``length`` into ``alphabet_size`` parts."""
    return math.comb(length + alphabet_size - 1, alphabet_size - 1)


def composition_array(alphabet_size: int, length: int) -> np.ndarray:
    """The compositions of ``length`` into ``alphabet_size`` parts as the
    rows of an ``(N, alphabet_size)`` int array, in lexicographic order, as
    stars and bars gives them from the bars' positions listed in
    lexicographic order.  Raises :class:`SizeLimit` before allocating when
    N would exceed ``ENUMERATION_CAP``."""
    if alphabet_size < 1 or length < 1:
        raise DomainError("alphabet size and length must be positive")
    total = composition_count(alphabet_size, length)
    if total > ENUMERATION_CAP:
        raise SizeLimit(
            f"{total} compositions exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    stop = length + alphabet_size - 1
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(stop), alphabet_size - 1)), np.intp, total * (alphabet_size - 1))
    return np.diff(bars.reshape(total, alphabet_size - 1), prepend=-1, append=stop) - 1


def enumerate_compositions(alphabet_size: int, length: int) -> list[Composition]:
    """The rows of :func:`composition_array` as :class:`Composition` values."""
    return [Composition(tuple(row))
            for row in composition_array(alphabet_size, length).tolist()]


def type_class_size(composition: Composition) -> int:
    """Exact number of sequences with the given composition (multinomial)."""
    n = math.factorial(composition.length)
    for c in composition.counts:
        n //= math.factorial(c)
    return n


def log_type_class_size(composition: Composition) -> float:
    """log2 of the type-class cardinality, computed in the log-gamma domain."""
    L = composition.length
    value = math.lgamma(L + 1) - math.fsum(math.lgamma(c + 1)
                                           for c in composition.counts)
    return value / LN2


def rate_loss(composition: Composition) -> float:
    """Per-symbol entropy loss of the uniform type-class distribution versus
    i.i.d. sampling: H(P) - log2|T_P^L| / L.  Always non-negative."""
    value = composition.entropy() - log_type_class_size(composition) / composition.length
    return value if value > 0.0 else 0.0


def feasible_compositions(ch: Channel, length: int,
                          threshold: float) -> tuple[Composition, ...]:
    """Compositions of ``length``, in lexicographic order, whose mean energy
    ``counts @ b / L`` passes :func:`feasible_rows` at ``threshold``."""
    counts = composition_array(ch.input_size, length)
    rows = feasible_rows(counts @ ch.energy / length, length, threshold)
    return tuple(Composition(tuple(row)) for row in counts[rows].tolist())


def feasible_rows(energies, length: int, threshold: float) -> np.ndarray:
    """Indices, in order, of the entries of ``energies`` (the mean energies
    of compositions of ``length``) that are at least ``threshold`` less
    ``FEASIBILITY_TOL``.  Raises :class:`EmptyFeasibleSet` if there are none.
    The rows feasible at a threshold are among those feasible at any lower
    one."""
    rows = np.flatnonzero(np.asarray(energies) >= threshold - FEASIBILITY_TOL)
    if not rows.size:
        raise EmptyFeasibleSet(
            f"no composition of length {length} reaches energy {threshold}"
        )
    return rows


def materialize_type_class(composition: Composition, cap: int = 10**6) -> np.ndarray:
    """All sequences of the type class as an (n, L) integer array, rows in
    lexicographic order: the one block of :func:`type_class_blocks` with
    ``cap`` rows.  Raises :class:`SizeLimit` above ``cap`` rows."""
    whole, = type_class_blocks(composition, cap, cap)
    return whole


def type_class_blocks(composition: Composition, rows: int, cap: int = 10**6):
    """The type class in lexicographic order as consecutive blocks of
    ``rows`` rows (the last may be shorter), each filled once into one
    reused integer buffer and yielded as a read-only view of it, valid until
    the next block is asked for.  So the memory held is one block whatever
    the class's size.  Raises :class:`SizeLimit` above ``cap`` rows, before
    anything is filled."""
    n = type_class_size(composition)
    if n > cap:
        raise SizeLimit(f"type class has {n} sequences, above the cap of {cap}")
    dtype = np.int16 if composition.alphabet_size > 127 else np.int8
    buffer = np.empty((min(n, rows), composition.length), dtype=dtype)
    for start in range(0, n, rows):
        block = buffer[:n - start]
        _fill_rows(block, composition.counts, start, n)
        block.setflags(write=False)
        yield block


def _fill_rows(out: np.ndarray, counts, start: int, n: int) -> None:
    """Write rows ``start`` to ``start + len(out)`` of the type class of
    ``counts``, which has ``n`` rows, into ``out`` in lexicographic order.

    The rows are the leaves of the prefix tree, which is grown one column at
    a time: ``np.nonzero`` over the (prefixes, symbols) table of remaining
    counts lists each prefix's children in lexicographic order, and a child
    that takes symbol s from a prefix with m symbols left heads
    rows(prefix) * remaining[s] / m consecutive rows.  While the prefixes
    kept reach past the range, only the children whose rows meet it are
    kept, and the first and the last are cut to it; once they span it
    exactly, as a whole class's do from the root, there is nothing left to
    cut.  So the column is the kept children's symbols repeated that many
    times, and the working memory is a few integers per row of ``out``."""
    length = out.shape[1]
    stop = start + len(out)
    remaining = np.array([counts], dtype=np.min_scalar_type(length))
    rows = np.array([n])
    edges = np.array([start, stop - 1])     # the first and last row of out
    first, last = 0, n              # the rows under the prefixes kept
    for column in range(length):
        prefix, symbol = np.nonzero(remaining)
        rows = rows[prefix]
        rows *= remaining[prefix, symbol]
        rows //= length - column
        shown = rows                # the rows of each child inside the range
        if first < start or last > stop:
            ends = rows.cumsum()
            ends += first
            low, high = ends.searchsorted(edges, "right").tolist()
            high += 1
            first, last = int(ends[low] - rows[low]), int(ends[high - 1])
            del ends
            prefix, symbol, rows = prefix[low:high], symbol[low:high], rows[low:high]
            shown = rows.copy()
            shown[0] -= start - first
            shown[-1] -= last - stop
        out[:, column] = np.repeat(symbol.astype(out.dtype), shown)
        del shown                   # each array is freed as soon as it is used
        remaining = remaining[prefix]
        remaining[np.arange(prefix.size), symbol] -= 1
        del prefix, symbol
