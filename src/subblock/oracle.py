"""Brute-force routes that certify the fast paths at desk scale: the fully
materialized vector channel, the per-sequence P(y_Q) route, grid and
golden-section searches, and the per-sequence asymmetry witness at
``L = 2``.  :mod:`validation` and the tests use them as independent
references; ``capacity``, ``secc`` and ``typeclass`` never import this
module."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import capacity
from .channel import Channel, mutual_information
from .errors import DomainError, SizeLimit
from .typeclass import (Composition, enumerate_compositions,
                        materialize_type_class, type_class_size)

ORACLE_CAP = 10**7         # entries of the fully materialized vector channel


def all_output_sequences(output_size: int, length: int) -> np.ndarray:
    """All length-L output sequences in lexicographic order, as an
    (output_size**L, L) integer array."""
    return np.indices((output_size,) * length, dtype=np.int16).reshape(length, -1).T


def sequence_channel(ch: Channel, sequences) -> np.ndarray:
    """The L-use channel from each listed input sequence (one row each) to
    every output sequence, columns in :func:`all_output_sequences` order:
    entry [i, j] is prod_k w(y_jk | x_ik)."""
    seq = np.asarray(sequences)
    if seq.ndim != 2:
        raise DomainError("sequences must be a 2-D array of symbol indices")
    outputs = all_output_sequences(ch.output_size, seq.shape[1])
    matrix = np.ones((seq.shape[0], outputs.shape[0]), dtype=float)
    for k in range(seq.shape[1]):
        matrix *= ch.w[seq[:, k, None], outputs[None, :, k]]
    return matrix


def vector_channel(ch: Channel, composition: Composition
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize the induced L-use channel restricted to one type class.

    Returns ``(inputs, outputs, matrix)`` where ``matrix[i, j]`` is the
    product transition probability from input sequence i to output sequence j.
    """
    n_entries = type_class_size(composition) * ch.output_size ** composition.length
    if n_entries > ORACLE_CAP:
        raise SizeLimit(f"vector channel needs {n_entries} entries, "
                        f"above the cap of {ORACLE_CAP}")
    inputs = materialize_type_class(composition, cap=ORACLE_CAP)
    return inputs, all_output_sequences(ch.output_size, composition.length), \
        sequence_channel(ch, inputs)


def _uniform_information(matrix: np.ndarray) -> float:
    """I(X; Y) in bits for X uniform on the rows of a channel matrix."""
    p_y = matrix.mean(axis=0)
    h_out = -math.fsum(q * math.log2(q) for q in p_y if q > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_terms = np.where(matrix > 0.0, matrix * np.log2(np.where(matrix > 0.0, matrix, 1.0)), 0.0)
    return h_out + math.fsum(row_terms.sum(axis=1)) / matrix.shape[0]


def uniform_input_rate(ch: Channel, sequences) -> float:
    """(1/L) I(X_1^L; Y_1^L) in bits with the input uniform on the listed
    sequences, from the materialized channel."""
    seq = np.asarray(sequences)
    return _uniform_information(sequence_channel(ch, seq)) / seq.shape[1]


def cscc_composition_rate_bruteforce(ch: Channel, composition: Composition) -> float:
    """Oracle for :func:`~subblock.capacity.cscc_composition_rate`: the
    uniform-input rate of the type class, from the fully materialized vector
    channel."""
    return _uniform_information(vector_channel(ch, composition)[2]) / composition.length


def class_laws_by_sequence(a, compositions, length: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for :func:`~subblock.capacity.class_laws`, equal to it bit for
    bit and taking the same letter matrix ``a`` of shape ``(..., |X|, |Y|)``:
    the same ``(sizes, laws)``, one matrix at a time: the products along
    the rows of the whole materialized class, gathered from ``a`` at once by
    the flat index x * |Y| + y, one output type at a time, and summed with
    the same blocked ``math.fsum`` over ``capacity._BLOCK`` sequences."""
    a = np.asarray(a, dtype=float)
    inputs, outputs = a.shape[-2:]
    capacity.check_class_caps(outputs, compositions, length)
    otypes = enumerate_compositions(outputs, length)
    reps = [np.repeat(np.arange(outputs), q.counts) for q in otypes]
    sizes = np.array([float(type_class_size(q)) for q in otypes])
    stack = a.reshape(-1, inputs, outputs)
    laws = np.empty((len(stack), len(compositions), len(otypes)))
    block = capacity._BLOCK
    for i, comp in enumerate(compositions):
        sequences = materialize_type_class(comp, cap=capacity.CLASS_CAP)
        n = sequences.shape[0]
        index = sequences.astype(np.intp) * outputs
        flat, gathered = np.empty_like(index), np.empty(index.shape)
        for m, letters in enumerate(stack.reshape(len(stack), -1)):
            for j, rep in enumerate(reps):
                letters.take(np.add(index, rep, out=flat), out=gathered)
                parts = [math.fsum(gathered[start:start + block].prod(axis=1))
                         for start in range(0, n, block)]
                laws[m, i, j] = math.fsum(parts) / n
    return sizes, laws.reshape(a.shape[:-2] + laws.shape[1:])


def exact_binary_law(a, length: int, ones: int) -> list[Fraction]:
    """The exact law of :func:`~subblock.capacity.class_laws` for a 2 x 2
    letter matrix ``a`` and the input class with k = ``ones`` ones among
    L = ``length`` symbols, in rational arithmetic and without enumerating
    the class: entry m is the mean over the class of the product at the
    output type with m ones,

        sum_j C(m, j) C(L - m, k - j) a11^j a10^(k - j) a01^(m - j)
              a00^(L - k - m + j) / C(L, k),

    j being the positions where both the input and the output are 1.  Each
    float entry of ``a`` converts to a :class:`~fractions.Fraction` exactly,
    so the result carries no rounding at all."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise DomainError("the exact binary law needs a 2 x 2 letter matrix")
    if not 0 <= ones <= length:
        raise DomainError("the input class needs 0 <= ones <= length")
    (a00, a01), (a10, a11) = [[Fraction(float(v)) for v in row] for row in a]
    k, size = ones, math.comb(length, ones)
    return [sum((math.comb(m, j) * math.comb(length - m, k - j) * a11 ** j
                 * a10 ** (k - j) * a01 ** (m - j) * a00 ** (length - k - m + j)
                 for j in range(max(0, k + m - length), min(k, m) + 1)),
                Fraction(0)) / size
            for m in range(length + 1)]


def per_input_information(ch: Channel, sequences) -> np.ndarray:
    """I(X_1^L = x; Y_1^L) for each listed input sequence, with the input
    uniform over the listed sequences.  Sums use fsum, so permuting a
    sequence's coordinates permutes terms without changing the result."""
    matrix = sequence_channel(ch, sequences)
    p_y = matrix.mean(axis=0)
    return np.array([math.fsum(m * math.log2(m / q) for m, q in zip(row, p_y) if m > 0.0)
                     for row in matrix])


def asymmetry_witness(p0: float) -> tuple[float, float]:
    """The canonical uniform-input asymmetry check: BSC(p0), b = (0, 1),
    threshold 0.5, subblocks of length 2, so the super-alphabet is
    {01, 10, 11}.  Returns (I(01; Y), I(11; Y)) under the uniform input;
    the two differ for 0 < p0 < 0.5, so uniform is not capacity-achieving
    even though the underlying channel is symmetric."""
    if not 0.0 < p0 < 0.5:
        raise DomainError("crossover probability must lie in (0, 0.5)")
    info = per_input_information(Channel.bsc(p0), [(0, 1), (1, 0), (1, 1)])
    return float(info[0]), float(info[2])


def grid_oracle_esp_bsc(p0: float, rate: float, levels: int = 4) -> float:
    """Sphere-packing exponent of BSC(p0) with uniform input by grid search:
    scan 20,001 symmetric channels BSC(q), keep those with I(q) <= rate, take
    the smallest divergence (ties to the smallest q), then zoom in around it.
    Independent of the tilted fixed point."""
    lo, hi = 1e-9, 0.5
    for _ in range(levels):
        # the grid stays inside [1e-12, 0.5], where every log is finite
        qs = np.linspace(lo, hi, 20001)
        qs = qs[1.0 + qs * np.log2(qs) + (1 - qs) * np.log2(1 - qs) <= rate]
        diverg = qs * np.log2(qs / p0) + (1 - qs) * np.log2((1 - qs) / (1 - p0))
        i = int(np.argmin(diverg))
        best, q_best = float(diverg[i]), float(qs[i])
        step = (hi - lo) / 20000
        lo, hi = max(q_best - 2 * step, 1e-12), min(q_best + 2 * step, 0.5)
    return best


def two_input_ccc(ch: Channel, threshold: float, steps: int = 80) -> float:
    """The capacity-power value of a two-input channel by golden-section
    search: I is concave in t = P(X = 1), so the search over the
    energy-feasible interval of t finds its maximum.  Feasibility carries the
    toolkit's 1e-12 slack."""
    e0, e1 = ch.energy
    lo, hi = 0.0, 1.0
    if e1 != e0:
        edge = min(max((threshold - 1e-12 - e0) / (e1 - e0), 0.0), 1.0)
        lo, hi = (edge, 1.0) if e1 > e0 else (0.0, edge)
    info = lambda t: mutual_information(np.array([1.0 - t, t]), ch)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(steps):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if info(a) < info(b):
            lo = a
        else:
            hi = b
    return max(info(lo), info(hi))
