"""Subblock energy-constrained codes: the enlarged super-letter alphabet, the
uniform-input rate, and exact capacity via Blahut-Arimoto on the class-lumped
channel.

Unlike the CSCC vector channel, the SECC vector channel mixes several type
classes and need not be symmetric, so the uniform super-letter distribution is
only a lower bound.  The vector channel and its feasible set are still
invariant under permuting input and output coordinates together, and mutual
information is concave, so some optimal input is uniform within each type
class; given the class, the output type is a sufficient statistic.  Hence

    L * C_SECC = max_pi [ I(pi; P -> Q) + sum_P pi_P * L * R_CSCC(P) ]

over distributions pi on the feasible classes, where the class-to-output-type
channel is W[P, Q] = |T_Q| P(y_Q | P).  Both terms come from one per-class
output law, so each class is evaluated once.  The super-letter vector channel
and the per-sequence asymmetry witness are in :mod:`subblock.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import (CapacityResult, barrier_newton, blahut_arimoto,
                       class_laws, class_rates, symmetric_rate)
from .channel import Channel
from .typeclass import Composition, feasible_compositions, type_class_size

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SuperAlphabet:
    """The union of energy-feasible type classes for one subblock length."""

    length: int
    threshold: float
    compositions: tuple[Composition, ...]
    class_sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.class_sizes)

    def class_weights(self) -> np.ndarray:
        """Weight |T_P| / |A| of each class under the uniform super-letter
        distribution, in the order of ``compositions``."""
        return np.array([n / self.size for n in self.class_sizes])

    def symbol_marginal(self) -> np.ndarray:
        """Scalar input marginal under the uniform super-letter distribution:
        sum_P (|T_P| / |A|) P(x)."""
        weights = np.zeros(self.compositions[0].alphabet_size)
        for comp, size in zip(self.compositions, self.class_sizes):
            weights += size * np.array(comp.counts, dtype=float)
        weights /= self.size * self.length
        weights.setflags(write=False)
        return weights


def super_alphabet(ch: Channel, length: int, threshold: float) -> SuperAlphabet:
    comps = feasible_compositions(ch, length, threshold)
    return SuperAlphabet(length=length, threshold=threshold, compositions=comps,
                         class_sizes=tuple(type_class_size(c) for c in comps))


def secc_uniform_rate(ch: Channel, length: int, threshold: float) -> float:
    """Rate (bits/use) achieved by the uniform distribution over the
    super-alphabet.

    Output vectors sharing a composition are equiprobable, so the output law
    is the per-class laws mixed with weights |T_P|/|A|; H(Y|X) comes from the
    mixture pairwise law sum_P (|T_P|/|A|) P(x) w(y|x).
    """
    alpha = super_alphabet(ch, length, threshold)
    sizes, laws = class_laws(ch, alpha.compositions, length)
    return symmetric_rate(ch, sizes, alpha.class_weights() @ laws,
                          alpha.symbol_marginal(), length)


def secc_capacity(ch: Channel, length: int, threshold: float,
                  tol: float = 1e-9, *, max_iter: int = 100_000) -> CapacityResult:
    """Exact SECC capacity (bits/use): Blahut-Arimoto over the class-lumped
    channel with the per-class CSCC information as a bonus, duality-gap
    certified to ``tol``.  If ``max_iter`` iterations leave the gap above
    ``tol``, :func:`barrier_newton` finishes from the last iterate and its
    steps count as iterations; ``residual`` is the gap reached.

    The returned distribution holds one weight per feasible class, in the
    order of ``super_alphabet(ch, length, threshold).compositions``; each
    super-letter of class P carries weight / |T_P|.
    """
    alpha = super_alphabet(ch, length, threshold)
    sizes, laws = class_laws(ch, alpha.compositions, length)
    bonus = LN2 * length * np.array(class_rates(ch, alpha.compositions, sizes, laws))
    lumped = laws * sizes
    tol_nats = max(tol * length * LN2, 1e-14)
    # Started from the uniform super-letter input, each iterate is the
    # vector-channel iterate summed over classes, with the same duality gap.
    p, info_nats, iterations, gap = blahut_arimoto(
        lumped, tol_nats=tol_nats, max_iter=max_iter, bonus=bonus,
        p_init=alpha.class_weights())
    if gap > tol_nats:
        finish = barrier_newton(lumped, p_init=p, tol_nats=tol_nats, bonus=bonus)
        iterations += finish[2]
        if finish[3] < gap:
            p, info_nats, _, gap = finish
    rate = (info_nats + float(p @ bonus)) / LN2 / length
    return CapacityResult(rate=max(rate, 0.0), distribution=p, iterations=iterations,
                          residual=gap / LN2 / length)

