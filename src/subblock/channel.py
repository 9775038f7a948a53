"""Discrete memoryless channels and the information measures built on them.

All information quantities are in bits (log base 2) and follow the standard
conventions 0*log(0) = 0 and 0*log(0/0) = 0.  Reductions use ``math.fsum``
so results are independent of summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityViolation, DomainError

PROB_TOL = 1e-12
_ULP = float(np.finfo(float).eps)     # the spacing of floats just above 1


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _normalized(a: np.ndarray, name: str) -> np.ndarray:
    """The nonnegative ``a``, read-only, with each vector along its last axis
    kept as given if its sum is within 2n ulps of 1 (n its length), else
    divided by its sum.  A division leaves the sum within n ulps of 1, so a
    second pass returns its input bit for bit.  A sum more than ``PROB_TOL``
    from 1 is a :class:`DomainError` naming ``name``."""
    sums = np.add.reduce(a, -1, keepdims=True)
    off = np.absolute(sums - 1.0)
    worst, ulps = off.max(), 2 * a.shape[-1] * _ULP
    if worst > PROB_TOL:
        raise DomainError(f"{name} sums to {float(sums.flat[off.argmax()])!r}, not 1")
    return _readonly(np.where(off > ulps, a / sums, a) if worst > ulps else a)


def as_distribution(p, size: int | None = None) -> np.ndarray:
    """Validate an array-like as a probability vector and return it normalized
    once: a second pass returns its input bit for bit.

    Entries must be finite, non-negative and sum to 1 within ``PROB_TOL``;
    tiny negative noise is clamped to zero.
    """
    q = np.asarray(p, dtype=float).ravel()
    if size is not None and q.size != size:
        raise DomainError(f"distribution has length {q.size}, expected {size}")
    if not np.isfinite(q).all():
        raise DomainError("distribution entries must be finite")
    if q.min(initial=0.0) < -PROB_TOL:
        raise DomainError("distribution has a negative entry")
    return _normalized(np.maximum(q, 0.0), "distribution")


@dataclass(frozen=True, eq=False)
class Channel:
    """A DMC given by a row-stochastic matrix ``w[x, y]`` plus a per-symbol
    harvested-energy map ``energy[x]``.

    Rows whose sums deviate from 1 by at most ``PROB_TOL`` are normalized by
    the rule of :func:`as_distribution`, so ``Channel(ch.w, ch.energy).w``
    equals ``ch.w`` bit for bit; anything worse is rejected.
    """

    w: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise DomainError("transition matrix must be 2-D and non-empty")
        if not np.isfinite(w).all():
            raise DomainError("transition probabilities must be finite")
        if w.min() < -PROB_TOL or w.max() > 1.0 + PROB_TOL:
            raise DomainError("transition probabilities must lie in [0, 1]")
        w = _normalized(np.clip(w, 0.0, 1.0), "a row of the transition matrix")
        b = np.asarray(self.energy, dtype=float).ravel()
        if b.size != w.shape[0]:
            raise DomainError("energy map length must equal the input alphabet size")
        if not np.isfinite(b).all():
            raise DomainError("energies must be finite")
        if b.min(initial=0.0) < 0.0:
            raise DomainError("energies must be non-negative")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "energy", _readonly(b))

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    @property
    def output_size(self) -> int:
        return self.w.shape[1]

    @property
    def b_min(self) -> float:
        return float(self.energy.min())

    @property
    def b_max(self) -> float:
        return float(self.energy.max())

    @property
    def energy_varies(self) -> bool:
        """True when b_min < b_max, i.e. the subblock energy constraint can bite."""
        return self.b_min < self.b_max

    # -- common constructions -------------------------------------------------

    @classmethod
    def bsc(cls, p0: float, energy=(0.0, 1.0)) -> "Channel":
        """Binary symmetric channel with crossover probability ``p0``."""
        if not 0.0 <= p0 <= 1.0:
            raise DomainError("crossover probability must lie in [0, 1]")
        return cls([[1.0 - p0, p0], [p0, 1.0 - p0]], energy)

    @classmethod
    def bec(cls, eps: float, energy=(0.0, 1.0)) -> "Channel":
        """Binary erasure channel; outputs are (0, erasure, 1)."""
        if not 0.0 <= eps <= 1.0:
            raise DomainError("erasure probability must lie in [0, 1]")
        return cls([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]], energy)

    @classmethod
    def z(cls, p0: float, energy=(0.0, 1.0)) -> "Channel":
        """Z-channel: input 0 is noiseless, input 1 flips to 0 with probability ``p0``."""
        if not 0.0 <= p0 <= 1.0:
            raise DomainError("flip probability must lie in [0, 1]")
        return cls([[1.0, 0.0], [p0, 1.0 - p0]], energy)

    @classmethod
    def noiseless(cls, k: int, energy=None) -> "Channel":
        """Noiseless k-ary channel (identity matrix); default energies 0..k-1."""
        if k < 1:
            raise DomainError("alphabet size must be positive")
        if energy is None:
            energy = np.arange(k, dtype=float)
        return cls(np.eye(k), energy)

    @classmethod
    def from_text(cls, text: str) -> "Channel":
        """Parse the plain-text channel description.

        Format: first line ``r s``, then r rows of s probabilities, then one
        row of r energies.  Tokens are whitespace-separated and ``#`` starts
        a comment that runs to end of line.
        """
        tokens = []
        for line in text.splitlines():
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
        if len(tokens) < 2:
            raise DomainError("channel description is empty")
        try:
            r, s = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise DomainError("channel description must start with 'r s'") from exc
        need = 2 + r * s + r
        if len(tokens) != need:
            raise DomainError(
                f"channel description has {len(tokens)} tokens, expected {need}"
            )
        try:
            values = [float(t) for t in tokens[2:]]
        except ValueError as exc:
            raise DomainError("channel description has a non-numeric token") from exc
        w = np.array(values[: r * s], dtype=float).reshape(r, s)
        b = np.array(values[r * s:], dtype=float)
        return cls(w, b)

    @classmethod
    def load(cls, path) -> "Channel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# -- information measures -----------------------------------------------------


def entropy(p) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    q = np.asarray(p, dtype=float).ravel()
    return -math.fsum(x * math.log2(x) for x in q if x > 0.0)


def output_distribution(p, ch: Channel) -> np.ndarray:
    """Distribution of the channel output under input distribution ``p``."""
    return as_distribution(p, ch.input_size) @ ch.w


def information_stack(p, v) -> tuple[list[float], list[float]]:
    """H(V|P) and I(P, V) = H(PV) - H(V|P) in bits for each matrix V of the
    stack ``v``, of shape ``(k, |X|, |Y|)``, under input weights ``p``.  The
    terms of every member come from one array, and each entropy is one
    ``math.fsum``, so a member's values do not depend on the rest of the
    stack.  I(P, V) is clamped at 0 against float noise."""
    v = np.asarray(v, dtype=float)
    q = np.asarray(p, dtype=float).ravel()
    support = q > 0.0
    terms = np.where(v > 0.0, v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0)
    weighted = (q[support][:, None] * terms[:, support]).reshape(v.shape[0], -1)
    h_cond = [-math.fsum(joint) for joint in weighted.tolist()]
    info = [-math.fsum(x * math.log2(x) for x in out if x > 0.0) - h
            for out, h in zip(np.matmul(q, v).tolist(), h_cond)]
    return h_cond, [value if value > 0.0 else 0.0 for value in info]


def conditional_entropy_matrix(w: np.ndarray, p) -> float:
    """H(W|P) in bits for a row-stochastic matrix ``w`` and input weights ``p``."""
    return information_stack(p, np.asarray(w, dtype=float)[None])[0][0]


def conditional_entropy(ch: Channel, p) -> float:
    """H(Y|X) in bits under the pairwise law p(x) w(y|x)."""
    return conditional_entropy_matrix(ch.w, as_distribution(p, ch.input_size))


def mutual_information_matrix(p, w: np.ndarray) -> float:
    """I(P, W) = H(PW) - H(W|P) in bits for a raw stochastic matrix."""
    return information_stack(p, np.asarray(w, dtype=float)[None])[1][0]


def mutual_information(p, ch: Channel) -> float:
    """Mutual information I(P, W) in bits between channel input and output."""
    return mutual_information_matrix(as_distribution(p, ch.input_size), ch.w)


def divergence(p, q) -> float:
    """Informational divergence D(P || Q) in bits."""
    a = np.asarray(p, dtype=float).ravel()
    b = np.asarray(q, dtype=float).ravel()
    if a.shape != b.shape:
        raise DomainError("distributions must have the same length")
    if np.any((a > 0.0) & (b <= 0.0)):
        raise AbsoluteContinuityViolation("p places mass where q is zero")
    return math.fsum(x * math.log2(x / y) for x, y in zip(a, b) if x > 0.0)


def divergence_conditional(v, w, p) -> float:
    """Conditional divergence D(V || W | P) in bits.

    Raises :class:`AbsoluteContinuityViolation` when ``v`` places mass where
    ``w`` is zero on the support of ``p``; the divergence is infinite there.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise DomainError("v and w must have the same shape")
    q = np.asarray(p, dtype=float).ravel()
    if q.size != v.shape[0]:
        raise DomainError("p must have one entry per input row")
    support = q > 0.0
    if np.any((v[support] > 0.0) & (w[support] <= 0.0)):
        raise AbsoluteContinuityViolation(
            "v places mass outside the support of w; divergence is infinite"
        )
    terms = []
    for x in range(v.shape[0]):
        if not support[x]:
            continue
        for y in range(v.shape[1]):
            if v[x, y] > 0.0:
                terms.append(q[x] * v[x, y] * math.log2(v[x, y] / w[x, y]))
    value = math.fsum(terms)
    return value if value > 0.0 else 0.0
