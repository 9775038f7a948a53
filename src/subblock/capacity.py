"""CSCC and CCC capacities over a DMC, plus the capacity-power function.

A constant subblock-composition code transmits, per subblock, a uniformly
random element of one type class.  The induced L-use vector channel is
symmetric, so its capacity needs only one output-probability evaluation per
output type class:

    rate = (1/L) * sum_Q |T_Q| * P(y_Q) * log2(1 / P(y_Q))  -  H(Y|X)

where y_Q is a canonical representative (symbols sorted ascending) of output
class Q, P(y_Q) is the uniform-input output probability, and H(Y|X) comes
from the pairwise law p(x) w(y|x).  The brute-force vector channel that
certifies this reduction lives in :mod:`subblock.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (Channel, as_distribution, conditional_entropy,
                      mutual_information)
from .errors import DomainError, Infeasible, SizeLimit
from .typeclass import (Composition, composition_count, enumerate_compositions,
                        feasible_compositions, materialize_type_class,
                        type_class_size)

CLASS_CAP = 10**6          # sequences materialized per input type class
OUTPUT_TYPE_CAP = 10**5    # number of output type classes
RATE_TIE_TOL = 1e-12
NEWTON_MAX_STEPS = 500     # steps of one barrier Newton solve
LN2 = math.log(2.0)
_CHUNK = 1 << 16


@dataclass(frozen=True)
class CapacityResult:
    """A rate in bits per channel use together with its optimizer and solver
    diagnostics (iteration count and certified residual)."""

    rate: float
    composition: Composition | None = None
    distribution: np.ndarray | None = None
    iterations: int = 0
    residual: float = 0.0


def check_class_caps(ch: Channel, compositions, length: int) -> None:
    """Raise :class:`SizeLimit` from closed-form counts, before anything is
    materialized, if an input type class exceeds ``CLASS_CAP`` or the output
    type classes of length ``length`` exceed ``OUTPUT_TYPE_CAP``."""
    n_out = composition_count(ch.output_size, length)
    if n_out > OUTPUT_TYPE_CAP:
        raise SizeLimit(
            f"{n_out} output type classes exceed the cap of {OUTPUT_TYPE_CAP}")
    for comp in compositions:
        n = type_class_size(comp)
        if n > CLASS_CAP:
            raise SizeLimit(f"type class {comp.counts} has {n} sequences, "
                            f"above the cap of {CLASS_CAP}")


def class_laws(ch: Channel, compositions, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The P(y_Q) kernel: ``(sizes, laws)`` where ``sizes[j]`` is |T_Q| of
    the j-th output type class Q of length ``length`` (in
    :func:`enumerate_compositions` order) and ``laws[i, j]`` is P(y_Q | P)
    with the input uniform on the type class of ``compositions[i]``.  By
    symmetry every member of Q has this probability, so y_Q is taken as the
    canonical representative (symbols sorted non-decreasing), averaged over
    the class in chunks of ``_CHUNK`` sequences.  Every cap is checked
    before any class is materialized."""
    check_class_caps(ch, compositions, length)
    if any(comp.alphabet_size != ch.input_size for comp in compositions):
        raise DomainError("composition alphabet does not match the channel")
    w, symbols = ch.w, np.arange(ch.output_size, dtype=np.int16)
    otypes = enumerate_compositions(ch.output_size, length)
    reps = [np.repeat(symbols, q.counts) for q in otypes]
    sizes = np.array([float(type_class_size(q)) for q in otypes])
    laws = np.empty((len(compositions), len(otypes)))
    for i, comp in enumerate(compositions):
        sequences = materialize_type_class(comp, cap=CLASS_CAP)
        n = sequences.shape[0]
        for j, rep in enumerate(reps):
            # one (chunk, L) block is alive at a time
            parts = [math.fsum(w[sequences[start:start + _CHUNK], rep].prod(axis=1))
                     for start in range(0, n, _CHUNK)]
            laws[i, j] = math.fsum(parts) / n
        del sequences   # freed before the next class is materialized
    sizes.setflags(write=False)
    laws.setflags(write=False)
    return sizes, laws


def class_rates(ch: Channel, compositions, sizes: np.ndarray,
                laws: np.ndarray) -> list[float]:
    """CSCC rate (bits/use) of each class in ``compositions``, from the
    ``(sizes, laws)`` that :func:`class_laws` returns for them:
    (1/L) sum_Q |T_Q| P(y_Q) log2(1 / P(y_Q)) - H(Y|X), with H(Y|X) from the
    class's pairwise law.  Unclamped, so rounding may leave a rate a few ulps
    below zero."""
    counts, rates = sizes.tolist(), []
    for comp, law in zip(compositions, laws):
        terms = [size * p_y * (-math.log2(p_y))
                 for size, p_y in zip(counts, law.tolist()) if p_y > 0.0]
        rates.append(math.fsum(terms) / comp.length
                     - conditional_entropy(ch, comp.probabilities()))
    return rates


def cscc_composition_rate(ch: Channel, composition: Composition) -> CapacityResult:
    """CSCC rate (bits/use) for a fixed subblock composition, via the
    symmetry-reduced output-type sum."""
    rate, = class_rates(ch, [composition],
                        *class_laws(ch, [composition], composition.length))
    return CapacityResult(rate=max(rate, 0.0), composition=composition)


def cscc_capacity(ch: Channel, length: int, threshold: float) -> CapacityResult:
    """CSCC capacity: the best fixed composition among the energy-feasible set.

    Ties within ``RATE_TIE_TOL`` go to the composition with the larger mean
    energy, then to the lexicographically smallest counts vector.
    """
    feasible = feasible_compositions(ch, length, threshold)
    rates = class_rates(ch, feasible, *class_laws(ch, feasible, length))
    best: CapacityResult | None = None
    best_energy = -1.0
    for comp, rate in zip(feasible, rates):
        res = CapacityResult(rate=max(rate, 0.0), composition=comp)
        if best is None or res.rate > best.rate + RATE_TIE_TOL:
            best, best_energy = res, comp.mean_energy(ch.energy)
            continue
        if abs(res.rate - best.rate) <= RATE_TIE_TOL:
            energy = comp.mean_energy(ch.energy)
            if energy > best_energy + RATE_TIE_TOL:
                best, best_energy = res, energy
            elif abs(energy - best_energy) <= RATE_TIE_TOL and \
                    comp.counts < best.composition.counts:
                best = res
    return best


def ccc_composition_rate(ch: Channel, composition) -> float:
    """CCC rate for a codeword composition: plain mutual information I(P, W)."""
    p = composition.probabilities() if isinstance(composition, Composition) \
        else as_distribution(composition, ch.input_size)
    return mutual_information(p, ch)


# -- maximizing mutual information: Blahut-Arimoto and barrier Newton ----------


def _divergences(w: np.ndarray):
    """A function of an input prior p returning ``(pW, d)``, where d[x] is
    D(W(.|x) || pW) in nats; log W is computed once."""
    positive = w > 0.0
    logw = np.where(positive, np.log(np.where(positive, w, 1.0)), 0.0)

    def evaluate(p):
        pw = p @ w
        log_pw = np.log(np.maximum(pw, 1e-300))
        return pw, np.where(positive, w * (logw - log_pw[None, :]), 0.0).sum(axis=1)

    return evaluate


def blahut_arimoto(w: np.ndarray, *, tol_nats: float = 1e-12,
                   max_iter: int = 100_000, bonus: np.ndarray | None = None,
                   p_init: np.ndarray | None = None):
    """Alternating maximization of I(p, W) [+ p . bonus] over input priors.

    Stops when the duality gap max_x score_x - E_p[score] drops below
    ``tol_nats``; the gap certifies the distance to the true maximum.
    Returns ``(p, mutual_information_nats, iterations, gap_nats)``.
    """
    w = np.asarray(w, dtype=float)
    n_in = w.shape[0]
    divergences = _divergences(w)
    p = np.full(n_in, 1.0 / n_in) if p_init is None else np.asarray(p_init, float).copy()
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    iterations = 0
    info = 0.0
    gap = math.inf
    for iterations in range(1, max_iter + 1):
        _, d = divergences(p)
        score = d if bonus is None else d + bonus
        objective = float(p @ score)
        info = float(p @ d)
        gap = float(score.max() - objective)
        if gap <= tol_nats:
            break
        with np.errstate(divide="ignore"):
            log_p = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf) + score
        log_p -= log_p.max()
        p = np.exp(log_p)
        p /= p.sum()
    return p, info, iterations, gap


def barrier_newton(w: np.ndarray, *, tol_nats: float, p_init: np.ndarray | None = None,
                   bonus: np.ndarray | None = None,
                   energy: tuple[np.ndarray, float] | None = None):
    """Maximize I(p, W) + p . bonus over input priors by Newton steps on a
    log barrier: the optimizer of :func:`capacity_power`, and the finish of
    :func:`subblock.secc.secc_capacity` where :func:`blahut_arimoto` stalls
    (its linear rate tends to one when the channel is nearly useless and some
    optimal weights are small).

    The start is ``p_init`` (default uniform) blended halfway toward uniform.
    With ``energy = (b, B)`` the priors are also held to p . b = B, and the
    start is blended on toward the symbol of largest (or smallest) energy
    until it meets that hyperplane.
    Each step solves the equality-constrained Newton (KKT) system of
    F(p) + mu * sum(log p), F having Hessian -W diag(1/pW) W^T, and mu falls
    tenfold once the step's decrement is below mu / 4.  The energy row's
    multiplier gives lam >= 0, and the stopping rule is the weak-duality gap
    max_x (d_x + bonus_x + lam b_x) - p . (d + bonus) - lam B, which bounds
    the distance to the maximum (lam = 0 without ``energy``: the
    :func:`blahut_arimoto` gap).  The return value has the shape of
    :func:`blahut_arimoto`'s, with Newton steps (at most
    ``NEWTON_MAX_STEPS``) in place of iterations.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    bonus = np.zeros(n) if bonus is None else np.asarray(bonus, dtype=float)
    evaluate = _divergences(w)
    start = np.full(n, 1.0 / n) if p_init is None else np.asarray(p_init, dtype=float)
    p = 0.5 * start + 0.5 / n   # strictly inside
    rows, level = np.ones((1, n)), np.ones(1)
    b, threshold = np.zeros(n), 0.0
    if energy is not None:
        b, threshold = np.asarray(energy[0], dtype=float), float(energy[1])
        k = int(np.argmax(b)) if p @ b <= threshold else int(np.argmin(b))
        theta = (threshold - p @ b) / (b[k] - p @ b)
        p *= 1.0 - theta
        p[k] += theta
        # centred, the energy row stays independent of the first even
        # where p is nearly a vertex
        rows, level = np.vstack([rows, b - threshold]), np.array([1.0, 0.0])
    m = rows.shape[0]
    kkt = np.zeros((n + m, n + m))
    pw, d = evaluate(p)
    # positive, or the system is singular on a useless channel
    mu = max(float((d + bonus).max() - p @ (d + bonus)) / n, tol_nats)
    steps = 0
    while True:
        score = d + bonus
        grad = score + mu / p
        # The system in the scaled step p * s is well conditioned even where
        # some weights are tiny; its last rows also undo rounding drift off
        # the constraints.
        root = p[:, None] * w / np.sqrt(np.maximum(pw, 1e-300))[None, :]
        kkt[:n, :n] = root @ root.T + mu * np.eye(n)
        kkt[n:, :n] = rows * p
        kkt[:n, n:] = kkt[n:, :n].T
        solution = np.linalg.solve(kkt, np.concatenate([p * grad, level - rows @ p]))
        lam = max(-float(solution[-1]), 0.0) if energy is not None else 0.0
        gap = float((score + lam * b).max() - p @ score - lam * threshold)
        if gap <= tol_nats or steps == NEWTON_MAX_STEPS:
            return p, float(p @ d), steps, gap
        steps += 1
        step = p * solution[:n]
        decrement = float(grad @ step)
        # Slopes within this bound of zero are rounding noise: where the
        # constraints pin p (two inputs and an energy row) the step itself is.
        noise = 1e-12 * float(np.abs(grad) @ p)
        shrink = step < 0.0
        t = min(1.0, 0.99 * float(np.min(-p[shrink] / step[shrink]))) if shrink.any() else 1.0
        # The barrier objective is concave along the step, so it rises up to
        # any t at which its slope is still non-negative.  Testing the slope
        # rather than the value stays exact near the optimum, where changes
        # of the value fall below rounding.
        for _ in range(60):
            trial = p + t * step
            trial_pw, trial_d = evaluate(trial)
            if (trial_d + bonus + mu / trial) @ step >= -noise:
                break
            t *= 0.5
        p, pw, d = trial, trial_pw, trial_d
        if decrement <= 0.25 * mu:
            mu *= 0.1


def capacity_power(ch: Channel, threshold: float, tol: float = 1e-10) -> CapacityResult:
    """Capacity-power function: max I(P, W) subject to E_P[b] >= threshold.

    A cold-start :func:`barrier_newton` solve from the uniform prior gives the
    unconstrained optimizer; if it meets the energy constraint, it is the
    answer.  At threshold = b_max only the maximum-energy symbols are
    feasible, and the same solve runs on their rows.  Otherwise the
    constraint is active, and one :func:`barrier_newton` solve on
    {sum P = 1, E_P[b] = threshold}, started from the unconstrained
    optimizer, gives the optimizer and the Lagrange multiplier of the energy
    row together.  ``residual`` reports the certified weak-duality gap in
    bits, and ``iterations`` counts Newton steps.
    """
    if threshold > ch.b_max + 1e-12:
        raise Infeasible(
            f"threshold {threshold} exceeds the largest symbol energy {ch.b_max}"
        )
    b = ch.energy
    tol_nats = max(tol * LN2 / 2.0, 1e-14)

    p, info, iters, gap = barrier_newton(ch.w, tol_nats=tol_nats)
    if float(p @ b) >= threshold - 1e-12:
        return CapacityResult(rate=info / LN2, distribution=p,
                              iterations=iters, residual=gap / LN2)

    if ch.b_max - threshold <= 1e-12:
        # only the maximum-energy symbols are feasible
        keep = b >= ch.b_max - 1e-12
        sub_p, sub_info, sub_iters, gap = barrier_newton(ch.w[keep], tol_nats=tol_nats)
        full = np.zeros(ch.input_size)
        full[keep] = sub_p
        return CapacityResult(rate=sub_info / LN2, distribution=full,
                              iterations=iters + sub_iters, residual=gap / LN2)

    p, info, steps, gap = barrier_newton(ch.w, p_init=p, tol_nats=tol_nats,
                                         energy=(b, threshold))
    return CapacityResult(rate=info / LN2, distribution=p,
                          iterations=iters + steps, residual=max(gap, 0.0) / LN2)
