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
_FILL_BLOCK = 1 << 15   # most rows whose prefix tree is grown in one piece
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


def enumerate_compositions(alphabet_size: int, length: int) -> list[Composition]:
    """All compositions of ``length`` into ``alphabet_size`` parts, in
    lexicographic order of the counts vector.

    Raises :class:`SizeLimit` when the count would exceed ``ENUMERATION_CAP``.
    """
    if alphabet_size < 1 or length < 1:
        raise DomainError("alphabet size and length must be positive")
    total = composition_count(alphabet_size, length)
    if total > ENUMERATION_CAP:
        raise SizeLimit(
            f"{total} compositions exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    # stars and bars: the bars' positions, in lexicographic order, give the
    # counts vectors in lexicographic order
    stop = length + alphabet_size - 1
    return [Composition(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (stop,))))
            for bars in itertools.combinations(range(stop), alphabet_size - 1)]


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
    is at least ``threshold`` (with absolute slack ``FEASIBILITY_TOL`` so
    boundary members survive floating-point noise)."""
    members = enumerate_compositions(ch.input_size, length)
    energies = [comp.mean_energy(ch.energy) for comp in members]
    return tuple(members[i] for i in feasible_rows(energies, length, threshold))


def feasible_rows(energies, length: int, threshold: float) -> list[int]:
    """Indices, in order, of the entries of ``energies`` (the mean energies
    of compositions of ``length``) that are at least ``threshold`` less
    ``FEASIBILITY_TOL``.  Raises :class:`EmptyFeasibleSet` if there are none.
    The rows feasible at a threshold are among those feasible at any lower
    one."""
    rows = [i for i, energy in enumerate(energies) if energy >= threshold - FEASIBILITY_TOL]
    if not rows:
        raise EmptyFeasibleSet(
            f"no composition of length {length} reaches energy {threshold}"
        )
    return rows


def materialize_type_class(composition: Composition, cap: int = 10**6) -> np.ndarray:
    """All sequences of the type class as an (n, L) integer array, rows in
    lexicographic order.  Raises :class:`SizeLimit` above ``cap`` rows."""
    n = type_class_size(composition)
    if n > cap:
        raise SizeLimit(f"type class has {n} sequences, above the cap of {cap}")
    dtype = np.int16 if composition.alphabet_size > 127 else np.int8
    out = np.empty((n, composition.length), dtype=dtype)
    _fill_type_class(out, composition.counts)
    out.setflags(write=False)
    return out


def _fill_type_class(out: np.ndarray, counts) -> None:
    """Write the type class of ``counts`` into ``out`` in lexicographic order.

    The rows are the leaves of the prefix tree, which is grown one column at
    a time: ``np.nonzero`` over the (prefixes, symbols) table of remaining
    counts lists each prefix's children in lexicographic order, and a child
    that takes symbol s from a prefix with m symbols left heads
    rows(prefix) * remaining[s] / m consecutive rows, so the column is its
    symbols repeated that many times.  A class above ``_FILL_BLOCK`` rows is
    split on its first symbol, which bounds the tree's working memory."""
    n, length = out.shape
    if n > _FILL_BLOCK:
        start = 0
        for symbol, count in enumerate(counts):
            if count:
                rest = counts[:symbol] + (count - 1,) + counts[symbol + 1:]
                stop = start + n * count // length
                out[start:stop, 0] = symbol
                _fill_type_class(out[start:stop, 1:], rest)
                start = stop
        return
    remaining = np.array([counts], dtype=np.min_scalar_type(length))
    rows = np.array([n])
    for column in range(length):
        prefix, symbol = np.nonzero(remaining)
        rows = rows[prefix] * remaining[prefix, symbol] // (length - column)
        remaining = remaining[prefix]
        remaining[np.arange(prefix.size), symbol] -= 1
        out[:, column] = np.repeat(symbol.astype(out.dtype), rows)
