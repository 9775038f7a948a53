"""Receiver energy-buffer simulation, the worst-case drawdown, the
subblock-length bound that is both necessary and sufficient for outage-free
reception, and the adversarial codeword proving necessity.

Buffer update per channel use: E <- min(e_max, max(E + b(x) - demand, 0)).
An outage at use i means E(i) + b(x_i) < demand; an overflow means
E(i) + b(x_i) - demand > e_max.  Comparisons carry a 1e-12 slack so exact
boundary traces are not misclassified by float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .errors import DegenerateSplit, DomainError
from .typeclass import Composition

UNBOUNDED = math.inf
EVENT_TOL = 1e-12


@dataclass(frozen=True)
class BufferConfig:
    """Receiver buffer: capacity, per-symbol consumption, initial level."""

    e_max: float
    demand: float
    e_init: float

    def __post_init__(self):
        if not (math.isfinite(self.e_max) and math.isfinite(self.demand)):
            raise DomainError("buffer capacity and demand must be finite")
        if self.e_max <= 0.0:
            raise DomainError("buffer capacity must be positive")
        if self.demand < 0.0:
            raise DomainError("demand must be non-negative")
        if not 0.0 <= self.e_init <= self.e_max:
            raise DomainError("initial level must lie in [0, e_max]")


@dataclass(frozen=True)
class EnergyTrace:
    """Buffer levels before each channel use (levels[0] is the initial level,
    levels[i] the level entering use i) plus 0-based event indices."""

    levels: np.ndarray
    outage_indices: tuple[int, ...]
    overflow_indices: tuple[int, ...]

    @property
    def outage_count(self) -> int:
        return len(self.outage_indices)

    @property
    def overflow_count(self) -> int:
        return len(self.overflow_indices)

    def rows(self):
        """(index, level, event) rows; the final row is the post-sequence level."""
        outages = set(self.outage_indices)
        overflows = set(self.overflow_indices)
        n = len(self.levels) - 1
        for i, level in enumerate(self.levels):
            if i >= n:
                event = "none"
            elif i in outages:
                event = "outage"
            elif i in overflows:
                event = "overflow"
            else:
                event = "none"
            yield i, float(level), event


def simulate(cfg: BufferConfig, ch: Channel, symbols) -> EnergyTrace:
    """Run the buffer update over a symbol sequence.

    The simulation continues after an outage (the level clamps at zero), so
    multiple outages are countable.
    """
    seq = np.asarray(symbols, dtype=np.int64).ravel()
    if seq.size and (seq.min() < 0 or seq.max() >= ch.input_size):
        raise DomainError("symbol index outside the channel input alphabet")
    b = ch.energy
    levels = np.empty(seq.size + 1)
    level = float(cfg.e_init)
    levels[0] = level
    outages = []
    overflows = []
    for i, x in enumerate(seq):
        gain = level + b[x]
        if gain < cfg.demand - EVENT_TOL:
            outages.append(i)
        elif gain - cfg.demand > cfg.e_max + EVENT_TOL:
            overflows.append(i)
        level = min(cfg.e_max, max(gain - cfg.demand, 0.0))
        levels[i + 1] = level
    levels.setflags(write=False)
    return EnergyTrace(levels=levels, outage_indices=tuple(outages),
                       overflow_indices=tuple(overflows))


def _low_energy_mask(ch: Channel, demand: float) -> np.ndarray:
    # symbols with b(x) == demand count as high-energy
    return ch.energy < demand


def worst_case_drawdown(composition: Composition, ch: Channel,
                        demand: float) -> float:
    """Largest within-subblock buffer decrease for the composition: the sum
    of N(x) * (demand - b(x)) over symbols with b(x) < demand.  Starting a
    subblock at or above this level rules out outage inside it."""
    if composition.alphabet_size != ch.input_size:
        raise DomainError("composition alphabet does not match the channel")
    low = _low_energy_mask(ch, demand)
    return math.fsum(
        composition.counts[x] * (demand - ch.energy[x])
        for x in range(ch.input_size) if low[x]
    )


def max_subblock_length(ch: Channel, composition_shape, demand: float,
                        e_max: float, *, require_integral: bool = False):
    """Largest subblock length that guarantees outage-free reception for the
    given composition shape (a distribution or Composition): the floor of
    e_max over twice the per-symbol drawdown.  Returns ``UNBOUNDED`` when no
    symbol draws the buffer down.

    With ``require_integral`` the result steps down to the largest length
    whose product with every symbol probability is an integer, so a true
    composition exists downstream.
    """
    if e_max <= 0.0:
        return 0
    if isinstance(composition_shape, Composition):
        probs = composition_shape.probabilities()
    else:
        probs = np.asarray(composition_shape, dtype=float).ravel()
        if probs.size != ch.input_size or not np.isfinite(probs).all() \
                or probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError("composition shape must be a finite distribution over the inputs")
    low = _low_energy_mask(ch, demand)
    denom = math.fsum(
        2.0 * probs[x] * (demand - ch.energy[x])
        for x in range(ch.input_size) if low[x]
    )
    if denom <= 0.0:
        return UNBOUNDED
    length = int(math.floor(e_max / denom + 1e-9))
    if require_integral:
        while length >= 1:
            scaled = probs * length
            if np.all(np.abs(scaled - np.round(scaled)) <= 1e-9):
                break
            length -= 1
    return length


def adversarial_codeword(composition: Composition, ch: Channel, demand: float,
                         subblocks: int = 2) -> np.ndarray:
    """A constant-subblock-composition sequence built to drain the buffer:
    the first subblock ends with all its low-energy symbols, the next starts
    with them, alternating.  Whenever the subblock length exceeds
    :func:`max_subblock_length` this pattern forces an outage regardless of
    the initial level."""
    if subblocks < 2:
        raise DomainError("the construction needs at least two subblocks")
    if composition.alphabet_size != ch.input_size:
        raise DomainError("composition alphabet does not match the channel")
    low = _low_energy_mask(ch, demand)
    low_part = [x for x in range(ch.input_size) if low[x]
                for _ in range(composition.counts[x])]
    high_part = [x for x in range(ch.input_size) if not low[x]
                 for _ in range(composition.counts[x])]
    if not low_part or not high_part:
        raise DegenerateSplit(
            "composition needs symbols both below and at-or-above the demand"
        )
    drain_last = high_part + low_part    # low-energy symbols last
    drain_first = low_part + high_part   # low-energy symbols first
    blocks = [drain_last if j % 2 == 0 else drain_first for j in range(subblocks)]
    return np.concatenate([np.asarray(blk, dtype=np.int64) for blk in blocks])


def cscc_sequence(composition: Composition, subblocks: int,
                  order: str = "sorted", *, ch: Channel | None = None,
                  demand: float | None = None, rng=None) -> np.ndarray:
    """A codeword of ``subblocks`` constant-composition subblocks.

    ``order`` picks the within-subblock symbol order: "sorted" (ascending),
    "random" (each subblock independently shuffled with ``rng``), or
    "adversarial" (requires ``ch`` and ``demand``).
    """
    if subblocks < 1:
        raise DomainError("need at least one subblock")
    if order == "adversarial":
        if ch is None or demand is None:
            raise DomainError("adversarial order needs the channel and demand")
        return adversarial_codeword(composition, ch, demand, max(subblocks, 2))[
            : subblocks * composition.length]
    base = np.repeat(np.arange(composition.alphabet_size, dtype=np.int64),
                     composition.counts)
    if order == "sorted":
        return np.tile(base, subblocks)
    if order == "random":
        rng = np.random.default_rng(rng)
        return np.concatenate([rng.permutation(base) for _ in range(subblocks)])
    raise DomainError(f"unknown ordering {order!r}")


def balanced_composition(alphabet_size: int, length: int,
                         energy=None) -> Composition:
    """The most balanced composition of the given length; leftover counts go
    to the lowest-energy symbols first (the worst case for outage analysis).
    Without an energy map the leftovers go to the smallest symbol indices."""
    if alphabet_size < 1 or length < 1:
        raise DomainError("alphabet size and length must be positive")
    base, extra = divmod(length, alphabet_size)
    counts = [base] * alphabet_size
    if energy is None:
        order = list(range(alphabet_size))
    else:
        b = np.asarray(energy, dtype=float).ravel()
        order = sorted(range(alphabet_size), key=lambda x: (b[x], x))
    for x in order[:extra]:
        counts[x] += 1
    return Composition(tuple(counts))
