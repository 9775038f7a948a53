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

from .capacity import (CapacityResult, barrier_newton, blahut_arimoto,
                       class_laws, class_rates)
from .channel import Channel, mutual_information_matrix
from .typeclass import feasible_compositions, type_class_size

LN2 = math.log(2.0)


def _lumped_classes(ch: Channel, length: int, threshold: float):
    """``(weights, lumped, rates)`` over the feasible classes, in
    :func:`feasible_compositions` order: the uniform super-letter weights
    |T_P| / |A|, the class-to-output-type channel W[P, Q] = |T_Q| P(y_Q | P),
    and each class's unclamped CSCC rate in bits/use."""
    compositions = feasible_compositions(ch, length, threshold)
    counts = [type_class_size(comp) for comp in compositions]
    total = sum(counts)
    sizes, laws = class_laws(ch, compositions, length)
    return (np.array([n / total for n in counts]), laws * sizes,
            np.array(class_rates(ch, compositions, sizes, laws)))


def secc_uniform_rate(ch: Channel, length: int, threshold: float) -> float:
    """Rate (bits/use) achieved by the uniform distribution over the
    super-alphabet: J / L at the class weights |T_P| / |A|."""
    weights, lumped, rates = _lumped_classes(ch, length, threshold)
    return mutual_information_matrix(weights, lumped) / length + float(weights @ rates)


def secc_capacity(ch: Channel, length: int, threshold: float,
                  tol: float = 1e-9, *, max_iter: int = 100_000) -> CapacityResult:
    """Exact SECC capacity (bits/use), max J / L: Blahut-Arimoto over the
    class-lumped channel with the per-class CSCC information as a bonus,
    started at the class weights |T_P| / |A| and duality-gap certified to
    ``tol``.  If ``max_iter`` iterations leave the gap above ``tol``,
    :func:`barrier_newton` finishes from the last iterate and its steps count
    as iterations; ``residual`` is the gap reached.

    The returned distribution holds one weight per feasible class, in the
    order of ``feasible_compositions(ch, length, threshold)``; each
    super-letter of class P carries weight / |T_P|.
    """
    weights, lumped, rates = _lumped_classes(ch, length, threshold)
    bonus = LN2 * length * rates
    tol_nats = max(tol * length * LN2, 1e-14)
    # Started from the uniform super-letter input, each iterate is the
    # vector-channel iterate summed over classes, with the same duality gap.
    p, info_nats, iterations, gap = blahut_arimoto(
        lumped, tol_nats=tol_nats, max_iter=max_iter, bonus=bonus,
        p_init=weights)
    if gap > tol_nats:
        finish = barrier_newton(lumped, p_init=p, tol_nats=tol_nats, bonus=bonus)
        iterations += finish[2]
        if finish[3] < gap:
            p, info_nats, _, gap = finish
    rate = (info_nats + float(p @ bonus)) / LN2 / length
    return CapacityResult(rate=max(rate, 0.0), distribution=p, iterations=iterations,
                          residual=gap / LN2 / length)

