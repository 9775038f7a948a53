"""Compositions (types) of length-L blocks, type-class sizes, the per-symbol
rate-loss term, and energy-feasible composition sets."""

from __future__ import annotations

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
    out: list[Composition] = []
    counts = [0] * alphabet_size

    def fill(i: int, remaining: int) -> None:
        if i == alphabet_size - 1:
            counts[i] = remaining
            out.append(Composition(tuple(counts)))
            return
        for v in range(remaining + 1):
            counts[i] = v
            fill(i + 1, remaining - v)

    fill(0, length)
    return out


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
    members = tuple(
        comp for comp in enumerate_compositions(ch.input_size, length)
        if comp.mean_energy(ch.energy) >= threshold - FEASIBILITY_TOL
    )
    if not members:
        raise EmptyFeasibleSet(
            f"no composition of length {length} reaches energy {threshold}"
        )
    return members


def _next_permutation(seq: list) -> bool:
    """Advance ``seq`` to its next lexicographic permutation in place."""
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1:] = seq[:i:-1]
    return True


def materialize_type_class(composition: Composition, cap: int = 10**6) -> np.ndarray:
    """All sequences of the type class as an (n, L) integer array, rows in
    lexicographic order.  Raises :class:`SizeLimit` above ``cap`` rows."""
    n = type_class_size(composition)
    if n > cap:
        raise SizeLimit(f"type class has {n} sequences, above the cap of {cap}")
    L = composition.length
    dtype = np.int16 if composition.alphabet_size > 127 else np.int8
    out = np.empty((n, L), dtype=dtype)
    seq = [x for x, c in enumerate(composition.counts) for _ in range(c)]
    row = 0
    while True:
        out[row] = seq
        row += 1
        if not _next_permutation(seq):
            break
    assert row == n
    out.setflags(write=False)
    return out
