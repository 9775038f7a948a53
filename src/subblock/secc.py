"""Subblock energy-constrained codes: the uniform super-letter rate and the
exact capacity, both from one objective on the class-lumped channel.

The super-alphabet is the union of the energy-feasible type classes.  Unlike
the CSCC vector channel, the SECC vector channel mixes several type classes
and need not be symmetric, so the uniform super-letter distribution is only a
lower bound.  The vector channel and its feasible set are still invariant
under permuting input and output coordinates together, and mutual information
is concave, so some optimal input is uniform within each type class; given
the class, the output type is a sufficient statistic.  For a distribution pi
on the feasible classes, each spread uniformly within its class,

    L * rate(pi) = J(pi) = I(pi; P -> Q) + sum_P pi_P * L * R_CSCC(P),

where the class-to-output-type channel is W[P, Q] = |T_Q| P(y_Q | P).  The
uniform super-letter rate is J at the class weights pi_P = |T_P| / |A|, and
L * C_SECC = max_pi J.  Both terms come from one per-class output law, so each
class is evaluated once.  The super-letter vector channel and the
per-sequence asymmetry witness are in :mod:`subblock.oracle`.
"""

from __future__ import annotations

import math

import numpy as np

from .capacity import (CapacityResult, ClassTable, blahut_arimoto,
                       maximize_information)
from .channel import Channel, mutual_information_matrix
from .typeclass import type_class_size

LN2 = math.log(2.0)


def _lumped_classes(table: ClassTable, threshold: float):
    """``(weights, lumped, rates)`` over the rows of ``table`` feasible at
    ``threshold``: the uniform super-letter weights |T_P| / |A|, the
    class-to-output-type channel W[P, Q] = |T_Q| P(y_Q | P), and each
    class's unclamped CSCC rate in bits/use.  The rows not kept yet are
    computed in one kernel call."""
    rows = table.feasible(threshold)
    members = [type_class_size(counts) for counts in table.counts[rows].tolist()]
    total = sum(members)
    sizes, laws = table.laws(rows)
    return np.array([n / total for n in members]), laws * sizes, table.rates(rows)


def secc_uniform_from_table(table: ClassTable, threshold: float) -> float:
    """Rate (bits/use) achieved by the uniform distribution over the
    super-alphabet of ``table``'s rows feasible at ``threshold``: J / L at
    the class weights, clamped at 0 against rounding."""
    weights, lumped, rates = _lumped_classes(table, threshold)
    rate = mutual_information_matrix(weights, lumped) / table.length + float(weights @ rates)
    return max(rate, 0.0)


def secc_uniform_rate(ch: Channel, length: int, threshold: float) -> float:
    """Rate (bits/use) achieved by the uniform distribution over the
    super-alphabet: J / L at the class weights |T_P| / |A|."""
    return secc_uniform_from_table(ClassTable(ch, length), threshold)


def secc_from_table(table: ClassTable, threshold: float, tol: float = 1e-9, *,
                    max_iter: int = 100_000) -> CapacityResult:
    """Exact SECC capacity (bits/use), max J / L, over ``table``'s rows
    feasible at ``threshold``; see :func:`secc_capacity`.  The distribution
    holds one weight per row of ``table.feasible(threshold)``, in order."""
    weights, lumped, rates = _lumped_classes(table, threshold)
    length = table.length
    bonus = LN2 * length * rates
    tol_nats = max(tol * length * LN2, 1e-14)
    # Started from the uniform super-letter input, each iterate is the
    # vector-channel iterate summed over classes, with the same duality gap.
    p, info_nats, iterations, gap = blahut_arimoto(
        lumped, tol_nats=tol_nats, max_iter=max_iter, bonus=bonus,
        p_init=weights)
    if gap > tol_nats:
        finish = maximize_information(lumped, p_init=p, tol_nats=tol_nats, bonus=bonus)
        iterations += finish[2]
        if finish[3] < gap:
            p, info_nats, _, gap = finish
    rate = (info_nats + float(p @ bonus)) / LN2 / length
    # a single class is feasible too, and the solver may stop up to its
    # tolerance below the best one
    best = int(np.argmax(rates))
    if rates[best] > rate:
        rate, p = float(rates[best]), np.zeros(len(rates))
        p[best] = 1.0
    return CapacityResult(rate=max(rate, 0.0), distribution=p, iterations=iterations,
                          residual=gap / LN2 / length)


def secc_capacity(ch: Channel, length: int, threshold: float,
                  tol: float = 1e-9, *, max_iter: int = 100_000) -> CapacityResult:
    """Exact SECC capacity (bits/use), max J / L: Blahut-Arimoto over the
    class-lumped channel with the per-class CSCC information as a bonus,
    started at the class weights |T_P| / |A| and duality-gap certified to
    ``tol``.  If ``max_iter`` iterations leave the gap above ``tol``, barrier
    Newton (:func:`~subblock.capacity.maximize_information`) finishes from the
    last iterate and its steps count as iterations; ``residual`` is the gap
    reached.  If the best single class, a vertex of the feasible set with
    J / L its CSCC rate, beats the solver's point, that class is reported
    with all the weight; the gap still bounds the distance to the maximum,
    as the reported rate is higher.

    This builds a fresh :class:`~subblock.capacity.ClassTable` and returns
    one weight per counts row it finds feasible at ``threshold``, in the
    order of ``feasible_compositions(ch, length, threshold)``; each
    super-letter of class P carries weight / |T_P|.  A sweep over thresholds
    passes one table to :func:`secc_from_table`, so each row is computed once.
    """
    return secc_from_table(ClassTable(ch, length), threshold, tol, max_iter=max_iter)
