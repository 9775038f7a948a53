"""CSCC and CCC capacities over a DMC, plus the capacity-power function.

A constant subblock-composition code transmits, per subblock, a uniformly
random element of one type class.  The induced L-use vector channel is
symmetric, so its capacity needs only one output-probability evaluation per
output type class:

    rate = (1/L) * sum_Q |T_Q| * P(y_Q) * log2(1 / P(y_Q))  -  H(Y|X)

where y_Q is a canonical representative (symbols sorted ascending) of output
class Q, P(y_Q) is the uniform-input output probability, and H(Y|X) comes
from the pairwise law p(x) w(y|x).  The brute-force vector channel that
certifies this reduction, and the per-sequence route that certifies the
P(y_Q) kernel bit for bit, live in :mod:`subblock.oracle`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import (Channel, as_distribution, conditional_entropy,
                      mutual_information)
from .errors import DomainError, Infeasible, SizeLimit
from .typeclass import (FEASIBILITY_TOL, Composition, composition_array,
                        composition_count, enumerate_compositions, feasible_rows,
                        log_type_class_size, type_class_blocks, type_class_size)

CLASS_CAP = 10**6          # sequences per input type class; bounds time, not memory
OUTPUT_TYPE_CAP = 10**5    # number of output type classes
RATE_TIE_TOL = 1e-12
_PRUNE_MARGIN = 4 * RATE_TIE_TOL  # see cscc_from_table
NEWTON_MAX_STEPS = 500     # steps of one barrier Newton solve
LN2 = math.log(2.0)
_BLOCK = 1 << 14          # (row, matrix) pairs a walk holds per level


@dataclass(frozen=True)
class CapacityResult:
    """A rate in bits per channel use together with its optimizer and solver
    diagnostics (iteration count and certified residual)."""

    rate: float
    composition: Composition | None = None
    distribution: np.ndarray | None = None
    iterations: int = 0
    residual: float = 0.0


def check_class_caps(output_size: int, compositions, length: int) -> None:
    """Raise :class:`SizeLimit` from closed-form counts, before any class is
    filled, if an input type class exceeds ``CLASS_CAP``, the output type
    classes of length ``length`` over ``output_size`` symbols exceed
    ``OUTPUT_TYPE_CAP``, or the largest of them, the most balanced, has more
    sequences than a float holds.  The kernel holds one block of a class at
    a time, so ``CLASS_CAP`` bounds its time, not its memory."""
    n_out = composition_count(output_size, length)
    if n_out > OUTPUT_TYPE_CAP:
        raise SizeLimit(
            f"{n_out} output type classes exceed the cap of {OUTPUT_TYPE_CAP}")
    k = output_size
    widest = Composition(tuple(length // k + (y < length % k) for y in range(k)))
    bits = log_type_class_size(widest)      # the exact count only near 2**1024
    if bits > 1025 or (bits > 1023 and type_class_size(widest) > sys.float_info.max):
        raise SizeLimit(f"output type class {widest.counts} has more sequences "
                        f"than a float holds")
    for comp in compositions:
        n = type_class_size(comp)
        if n > CLASS_CAP:
            raise SizeLimit(f"type class {comp.counts} has {n} sequences, "
                            f"above the cap of {CLASS_CAP}")


def class_laws(a, compositions, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The P(y_Q) kernel over a nonnegative letter matrix ``a`` of shape
    ``(..., |X|, |Y|)``, a channel's ``w`` or a stack of them: ``(sizes,
    laws)`` where ``sizes[j]`` is |T_Q| of the j-th output type class Q of
    length ``length`` (in :func:`enumerate_compositions` order) and
    ``laws[..., i, j]`` is the mean over the sequences x of the type class of
    ``compositions[i]`` of a(x_0, y_0) * ... * a(x_{L-1}, y_{L-1}), for each
    matrix of the stack.  For a channel this is P(y_Q | P) with the input
    uniform on the type class; by symmetry every member of Q has this
    probability, so y_Q is taken as the canonical representative (symbols
    sorted non-decreasing).

    Each class is filled once per call, whatever the stack, in blocks of
    ``_BLOCK`` sequences (:func:`type_class_blocks`), and only one block is
    held at a time: ``laws[..., i, j]`` is the ``math.fsum`` of the blocks'
    ``math.fsum`` of the products over their rows x, divided by |T_P|.  The
    matrices of the stack are walked in slices of at most
    ``max(1, _BLOCK // rows)`` matrices, ``rows`` being a block's row count,
    so a walk's buffer holds at most ``(min(|Y|, L) + 1) * _BLOCK`` floats,
    one row per level of the walk and a scratch row, whatever |T_P|.  Within
    a block and slice, :func:`_block_sums` walks the representatives as a
    prefix tree, so the partial product of a prefix shared by several y_Q
    is computed once, and drops a row x once its
    partial product is exactly zero in every matrix of the slice, which
    zeros of ``a`` make it.  Both leave the values bit for bit what a
    single-matrix call gives: each kept product is still
    a(x_0, y_0) * a(x_1, y_1) * ... multiplied left to right, a dropped one
    is an exact zero, and ``math.fsum`` is correctly rounded, so leaving
    zeros out of it changes nothing.  Every cap is checked before any class
    is filled."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or not np.isfinite(a).all() or (a < 0.0).any():
        raise DomainError("the letter matrix must be finite and nonnegative, "
                          "of shape (..., |X|, |Y|)")
    inputs, outputs = a.shape[-2:]
    check_class_caps(outputs, compositions, length)
    if any(comp.alphabet_size != inputs for comp in compositions):
        raise DomainError("composition alphabet does not match the letter matrix")
    stack = a.reshape(-1, inputs, outputs)
    otypes = enumerate_compositions(outputs, length)
    plan = _prefix_plan(otypes)
    sizes = np.array([float(type_class_size(q)) for q in otypes])
    laws = np.empty((len(stack), len(compositions), len(otypes)))
    for i, comp in enumerate(compositions):
        n = type_class_size(comp)
        width = max(1, _BLOCK // min(n, _BLOCK))
        parts = [np.concatenate([_block_sums(stack[first:first + width], block, plan)
                                 for first in range(0, len(stack), width)])
                 for block in type_class_blocks(comp, _BLOCK, CLASS_CAP)]
        for m, blocks in enumerate(zip(*parts)):
            laws[m, i] = [math.fsum(column) / n for column in zip(*blocks)]
    laws = laws.reshape(a.shape[:-2] + laws.shape[1:])
    sizes.setflags(write=False)
    laws.setflags(write=False)
    return sizes, laws


def _prefix_plan(otypes) -> list[tuple[int, int, int, int, int, int]]:
    """The walk of :func:`_block_sums`: the prefix tree of the
    representatives as runs ``(parent, level, first, stop, y, j)``, in
    visiting order.  A run's nodes take symbol ``y`` at depths ``first`` to
    ``stop - 1`` on ``level``; the first extends the products on level
    ``parent`` (-1: the root), each later one the node before it, and
    ``j >= 0`` is the output type, in :func:`enumerate_compositions` order,
    whose leaf ends the run.

    A node's children with a higher symbol go one level up and come first,
    in ascending order; the child that repeats its symbol comes last, on the
    node's own level.  So a level is overwritten only once every node that
    reads it is done, and no level holds a symbol below its index, so
    ``min(|Y|, L)`` levels suffice.  Below the top symbol a run is one node;
    on the top symbol it goes straight to the leaf.  The stack holds
    ``(parent, level, depth, y, counts)``, ``counts`` those of the symbols
    below ``y``."""
    top, length = otypes[0].alphabet_size - 1, otypes[0].length
    index = {q.counts: j for j, q in enumerate(otypes)}
    plan = []
    stack = [(-1, 0, 0, y, (0,) * y) for y in range(top, -1, -1)]
    while stack:
        parent, level, depth, y, counts = stack.pop()
        if y == top:            # no switch children: straight to the leaf
            plan.append((parent, level, depth, length, y, index[counts + (length - depth,)]))
            continue
        run = depth - sum(counts) + 1                   # of y, through depth
        if depth == length - 1:
            plan.append((parent, level, depth, length, y,
                         index[counts + (run,) + (0,) * (top - y)]))
        else:
            plan.append((parent, level, depth, depth + 1, y, -1))
            stack.append((level, level, depth + 1, y, counts))
            stack.extend((level, level + 1, depth + 1, z, counts + (run,) + (0,) * (z - y - 1))
                         for z in range(top, y, -1))
    return plan


def _block_sums(part: np.ndarray, block: np.ndarray, plan) -> np.ndarray:
    """``sums[m, j]``: the ``math.fsum`` over the rows x of ``block`` of
    a_m(x_0, y_0) * ... * a_m(x_{L-1}, y_{L-1}) for each matrix a_m of the
    slice ``part`` and each output type j of ``plan``.

    Row l of one (min(|Y|, L) + 1, rows, matrices) buffer holds the partial
    products of the node last visited on level l, and the last row is
    scratch.  Each tree node is computed once, in :func:`_prefix_plan`
    order, from one gather of a_m(x_d, y_d) for every row and matrix and one
    multiply in place: a node one level above its parent gathers into its
    level's row and multiplies it by the parent's; a node on its parent's
    level gathers into the scratch row and multiplies the level's row by
    it.  Either way the product is the parent's times the new letter.  The
    walk is a loop rather than a recursion, so a class of length 1000 needs
    no deep stack.

    A row whose partial product is 0 stays 0, so after a node whose column
    a(., y_d) has a zero in some matrix, the rows still nonzero in any matrix
    are moved to the front of its level's row and their indices kept (int32,
    as rows <= ``_BLOCK``), one index array per level.  The nodes below, and
    so every representative that shares the prefix, gather and multiply only
    those rows, and the sum runs over them alone.  Columns without a zero
    are never checked, so a slice without zeros takes the walk as it was."""
    matrices = part.shape[0]
    rows, length = block.shape
    levels = min(part.shape[2], length)
    columns = list(np.ascontiguousarray(part.transpose(2, 1, 0)))  # columns[y][x, m]
    has_zero = (part == 0.0).any(axis=(0, 1)).tolist()  # has_zero[y]: a(., y) has a zero
    inputs = list(block.T)                      # inputs[d][r] = x_d of row r
    buffer = list(np.empty((levels + 1, rows, matrices)))
    scratch = buffer.pop()
    # partial[l]: the products of the node last visited on level l, over
    # the rows kept[l] (int32 indices; None while no row is dropped), one
    # column per matrix
    partial: list[np.ndarray | None] = [None] * levels
    kept: list[np.ndarray | None] = [None] * levels
    empty = scratch[:0]
    sums = np.empty((matrices, composition_count(part.shape[2], length)))
    multiply = np.multiply                      # a local name: the loop is hot
    for parent, level, first, stop, y, j in plan:
        column, prune, own = columns[y], has_zero[y], buffer[level]
        for d in range(first, stop):
            alive = kept[parent] if parent >= 0 else None
            if alive is None:
                symbols = inputs[d]
            elif alive.size:
                symbols = inputs[d][alive]
            else:                   # every row dropped: the rest stay empty
                partial[level], kept[level], parent = empty, alive, level
                continue
            if parent == level:
                row = partial[level]
                gathered = scratch if alive is None else scratch[:alive.size]
                column.take(symbols, 0, gathered, "clip")
                multiply(row, gathered, out=row)
            else:
                row = own if alive is None else own[:alive.size]
                column.take(symbols, 0, row, "clip")
                if parent >= 0:
                    multiply(partial[parent], row, out=row)
            if prune:
                # with one matrix, the row itself is the mask
                nonzero = (row if matrices == 1 else row.any(axis=1)).nonzero()[0]
                if nonzero.size < len(row):
                    row = row.take(nonzero, 0, own[:nonzero.size])
                    alive = nonzero.astype(np.int32) if alive is None else alive[nonzero]
            partial[level], kept[level], parent = row, alive, level
        if j >= 0:
            sums[:, j] = [math.fsum(products) for products in partial[level].T]
    return sums


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
                        *class_laws(ch.w, [composition], composition.length))
    return CapacityResult(rate=max(rate, 0.0), composition=composition)


class ClassTable:
    """The type classes of one channel and subblock length as rows, in
    :func:`composition_array` order: ``compositions``, their ``counts``,
    mean ``energies`` and ``bounds`` u(P) = min(I(P, W), log2|T_P| / L) on
    their CSCC rates in bits/use (I(X^L; Y^L) is at most L I(P, W), each
    letter having marginal P, and at most H(X^L)); and, computed on demand
    and kept, each row's output law P(y_Q | P) and unclamped CSCC rate.  A
    threshold is an argument of the readers, so one table serves a whole
    sweep of thresholds and computes each class at most once."""

    def __init__(self, ch: Channel, length: int):
        self.ch, self.length = ch, length
        self.counts = composition_array(ch.input_size, length)
        self.compositions = [Composition(tuple(row)) for row in self.counts.tolist()]
        self.energies = self.counts @ ch.energy / length
        p = self.counts / length
        info = np.maximum(_row_entropies(p @ ch.w) - p @ _row_entropies(ch.w), 0.0)
        log2_fact = np.array([math.lgamma(c + 1) for c in range(length + 1)]) / LN2 / length
        self.bounds = np.minimum(info, log2_fact[length] - log2_fact[self.counts].sum(axis=1))
        self._sizes, self._laws = None, [None] * len(self.compositions)
        self._rates = np.full(len(self.compositions), np.nan)

    def feasible(self, threshold: float) -> np.ndarray:
        """The rows feasible at ``threshold``, in order, those of
        :func:`feasible_compositions`, once :func:`check_class_caps` has
        passed them, so a reader fails before it computes any class."""
        rows = feasible_rows(self.energies, self.length, threshold)
        check_class_caps(self.ch.output_size, [self.compositions[i] for i in rows],
                         self.length)
        return rows

    def rates(self, rows) -> np.ndarray:
        """The unclamped CSCC rates of ``rows``, as :func:`class_rates`
        returns them.  The rows not kept yet are computed in one
        :func:`class_laws` call; a row does not depend on the others in its
        call, so it is bit for bit what any other call gives."""
        missing = [i for i in rows if self._laws[i] is None]
        if missing:
            classes = [self.compositions[i] for i in missing]
            self._sizes, laws = class_laws(self.ch.w, classes, self.length)
            self._rates[missing] = class_rates(self.ch, classes, self._sizes, laws)
            for i, law in zip(missing, laws):
                self._laws[i] = law
        return self._rates[rows]

    def laws(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """``(sizes, laws)`` for ``rows``, as :func:`class_laws` returns them
        for their compositions."""
        self.rates(rows)
        laws = np.array([self._laws[i] for i in rows])
        laws.setflags(write=False)
        return self._sizes, laws


def _row_entropies(m: np.ndarray) -> np.ndarray:
    """The entropy in bits of each row of ``m``, with 0 log 0 = 0."""
    return -np.where(m > 0.0, m * np.log2(np.where(m > 0.0, m, 1.0)), 0.0).sum(axis=-1)


def cscc_from_table(table: ClassTable, threshold: float) -> CapacityResult:
    """The best class of ``table`` feasible at ``threshold``.  Of the classes
    within ``RATE_TIE_TOL`` of the top rate, it keeps those within
    ``RATE_TIE_TOL`` of the largest mean energy and picks the smallest counts
    vector.  The rule reads a set, so the pick does not depend on scan order.

    Rates are computed in decreasing ``table.bounds``, ties in
    :meth:`ClassTable.feasible` order, until a bound is below the best rate so
    far by more than ``RATE_TIE_TOL + _PRUNE_MARGIN``: that class, and every
    later one, can be neither the top nor inside its tie window."""
    rows = table.feasible(threshold)
    bounds = table.bounds[rows]
    order = np.argsort(-bounds, kind="stable")
    rates, top = [], -math.inf
    for bound, row in zip(bounds[order].tolist(), rows[order].tolist()):
        if bound < top - RATE_TIE_TOL - _PRUNE_MARGIN:
            break
        rates.append(max(float(table.rates([row])[0]), 0.0))
        top = max(top, rates[-1])
    rows, rates = rows[order[:len(rates)]], np.array(rates)
    near = rates >= top - RATE_TIE_TOL
    near &= table.energies[rows] >= table.energies[rows[near]].max() - RATE_TIE_TOL
    best = np.flatnonzero(near)[np.lexsort(table.counts[rows[near]].T[::-1])[0]]
    return CapacityResult(rate=float(rates[best]), composition=table.compositions[rows[best]])


def cscc_capacity(ch: Channel, length: int, threshold: float) -> CapacityResult:
    """CSCC capacity: the best fixed composition among the energy-feasible
    set, by the order-independent tie rule of :func:`cscc_from_table`."""
    return cscc_from_table(ClassTable(ch, length), threshold)


def ccc_composition_rate(ch: Channel, composition) -> float:
    """CCC rate for a codeword composition: plain mutual information I(P, W)."""
    p = composition.probabilities() if isinstance(composition, Composition) \
        else as_distribution(composition, ch.input_size)
    return mutual_information(p, ch)


# -- maximizing mutual information: Blahut-Arimoto and barrier Newton ----------


def _divergences(w: np.ndarray):
    """A function of an input prior p returning ``(pW, d)``, where d[x] is
    D(W(.|x) || pW) in nats; log W is computed once.  Arrays passed as ``pw``
    and ``d`` receive the results, else fresh ones are returned; the terms
    w (log w - log pW) go to a work array of the closure.  The terms at
    the zeros of W are replaced by 0, so where W has no zero that step and
    the masks of log W are skipped: the values are the same bit for bit."""
    positive = w > 0.0
    zeros = None if positive.all() else ~positive
    logw = np.log(w) if zeros is None else \
        np.where(positive, np.log(np.where(positive, w, 1.0)), 0.0)
    log_pw, terms = np.empty(w.shape[1]), np.empty_like(w)

    def evaluate(p, pw=None, d=None):
        pw = np.matmul(p, w, out=pw)
        np.log(np.maximum(pw, 1e-300, out=log_pw), out=log_pw)
        np.multiply(w, np.subtract(logw, log_pw, out=terms), out=terms)
        if zeros is not None:
            np.copyto(terms, 0.0, where=zeros)
        return pw, np.add.reduce(terms, 1, out=d)

    return evaluate


def blahut_arimoto(w: np.ndarray, *, tol_nats: float = 1e-12,
                   max_iter: int = 100_000, bonus: np.ndarray | None = None,
                   p_init: np.ndarray | None = None):
    """Alternating maximization of I(p, W) [+ p . bonus] over input priors.

    Stops when the duality gap max_x score_x - E_p[score] drops below
    ``tol_nats``; the gap certifies the distance to the true maximum.
    Returns ``(p, mutual_information_nats, iterations, gap_nats)``; after
    ``max_iter`` iterations, p is the last update and the other values are
    those of the prior before it.

    Each iteration computes score = d + bonus and the update
    p <- p exp(score - max) / sum, with log p taken as -inf where p is 0, by
    direct ufunc calls into arrays allocated once per call.
    """
    w = np.asarray(w, dtype=float)
    n_in = w.shape[0]
    divergences = _divergences(w)
    p = np.full(n_in, 1.0 / n_in) if p_init is None else np.asarray(p_init, float).copy()
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    pw, d, log_p = np.empty(w.shape[1]), np.empty(n_in), np.empty(n_in)
    score = d if bonus is None else np.empty(n_in)
    add, maximum = np.add, np.maximum   # local names: the loop is hot
    iterations = 0
    info = 0.0
    gap = math.inf
    for iterations in range(1, max_iter + 1):
        divergences(p, pw, d)
        if bonus is not None:
            add(d, bonus, out=score)
        objective = float(p @ score)
        gap = float(maximum.reduce(score)) - objective
        if gap <= tol_nats or iterations == max_iter:
            info = objective if bonus is None else float(p @ d)
            if gap <= tol_nats:
                break
        if np.minimum.reduce(p) > 0.0:
            np.log(p, out=log_p)
        else:
            log_p[:] = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf)
        add(log_p, score, out=log_p)
        np.subtract(log_p, maximum.reduce(log_p), out=log_p)
        np.exp(log_p, out=p)
        np.divide(p, add.reduce(p), out=p)
    return p, info, iterations, gap


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(k, n)`` stacks, bit for bit ``a[i] @ b[i]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def barrier_newton(objective, start: np.ndarray, *, tol_nats: float,
                   energy: tuple[np.ndarray, float] | None = None):
    """Maximize a concave f over the simplex by Newton steps on a log
    barrier, for each row of the ``(k, n)`` stack ``start`` at once.

    ``objective(p, members, hessian=False)`` gets the priors of the members
    ``members`` (rows of ``start``) and returns their gradients of f, which
    may be off by a constant, and with ``hessian`` also their scaled
    Hessians -diag(p) H(f) diag(p).  A member starts at its row blended
    halfway toward uniform.  With ``energy = (b, B)``, for a stack of one,
    the prior is also held to p . b = B, and the start is blended on toward
    the symbol of largest (or smallest) energy until it meets that hyperplane.

    Each step solves the equality-constrained Newton (KKT) system of
    f(p) + mu * sum(log p) in the scaled step, and mu falls tenfold once the
    step's decrement is below mu / 4.  The energy row's multiplier gives
    lam >= 0, and the stopping rule is the Frank-Wolfe (weak-duality) gap
    max_x (g_x + lam b_x) - p . g - lam B, which bounds f(p*) - f(p) by
    concavity; without ``energy`` it is tested before any KKT system is
    built.  A member leaves once its gap is <= ``tol_nats``, and its
    arithmetic is that of a solve of its row alone.  Returns the priors,
    Newton steps and gaps, per member; after ``NEWTON_MAX_STEPS`` steps a
    member is returned as it stands.
    """
    k, n = start.shape
    p = 0.5 * start + 0.5 / n   # strictly inside
    rows, level = np.ones((1, n)), np.ones(1)
    if energy is not None:
        b, threshold = np.asarray(energy[0], dtype=float), float(energy[1])
        j = int(np.argmax(b)) if p[0] @ b <= threshold else int(np.argmin(b))
        theta = (threshold - p[0] @ b) / (b[j] - p[0] @ b)
        p[0] *= 1.0 - theta
        p[0, j] += theta
        # centred, the energy row stays independent of the first even
        # where p is nearly a vertex
        rows, level = np.vstack([rows, b - threshold]), np.array([1.0, 0.0])
    m, eye = rows.shape[0], np.eye(n)
    out, steps, gaps = np.empty_like(p), np.zeros(k, dtype=int), np.empty(k)
    members = np.arange(k)
    g = objective(p, members)
    gap = np.maximum.reduce(g, 1) - _dots(p, g)
    # positive, or the system is singular on a useless channel
    mu = np.maximum(gap / n, tol_nats)
    taken = 0
    while True:
        if energy is None:
            done = (gap <= tol_nats) | (taken == NEWTON_MAX_STEPS)
            if done.any():     # the members still running are written again later
                out[members], steps[members], gaps[members] = p, taken, gap
                if done.all():
                    return out, steps, gaps
                members, p, g, mu = members[~done], p[~done], g[~done], mu[~done]
        g, hessian = objective(p, members, hessian=True)
        grad = g + mu[:, None] / p
        # The system in the scaled step p * s is well conditioned even where
        # some weights are tiny; its last rows also undo rounding drift off
        # the constraints.
        kkt = np.zeros((len(p), n + m, n + m))
        kkt[:, :n, :n] = hessian + mu[:, None, None] * eye
        kkt[:, n:, :n] = rows * p[:, None, :]
        kkt[:, :n, n:] = kkt[:, n:, :n].transpose(0, 2, 1)
        rhs = np.concatenate([p * grad, level - np.matmul(rows, p[:, :, None])[:, :, 0]], 1)
        solution = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
        if energy is not None:
            lam = max(-float(solution[0, -1]), 0.0)
            gap = float((g[0] + lam * b).max() - p[0] @ g[0] - lam * threshold)
            if gap <= tol_nats or taken == NEWTON_MAX_STEPS:
                return p, np.array([taken]), np.array([gap])
        taken += 1
        step = p * solution[:, :n]
        decrement = _dots(grad, step)
        # Slopes within this bound of zero are rounding noise: where the
        # constraints pin p (two inputs and an energy row) the step itself is.
        noise = 1e-12 * _dots(np.absolute(grad), p)
        reach = np.divide(-p, step, out=np.full_like(p, np.inf), where=step < 0.0)
        t = np.minimum(1.0, 0.99 * np.minimum.reduce(reach, 1))
        # The barrier objective is concave along the step, so it rises up to
        # any t at which its slope is still non-negative.  Testing the slope
        # rather than the value stays exact near the optimum, where changes
        # of the value fall below rounding.
        trial = p + t[:, None] * step
        g = objective(trial, members)
        search = np.flatnonzero(_dots(g + mu[:, None] / trial, step) < -noise)
        for _ in range(59):     # 60 trials in all
            if not search.size:
                break
            t[search] *= 0.5
            trial[search] = p[search] + t[search, None] * step[search]
            g[search] = objective(trial[search], members[search])
            slope = _dots(g[search] + mu[search, None] / trial[search], step[search])
            search = search[slope < -noise[search]]
        p = trial
        mu = np.where(decrement <= 0.25 * mu, mu * 0.1, mu)
        gap = np.maximum.reduce(g, 1) - _dots(p, g)


def maximize_information(w: np.ndarray, *, tol_nats: float, p_init: np.ndarray | None = None,
                         bonus: np.ndarray | None = None,
                         energy: tuple[np.ndarray, float] | None = None):
    """Maximize I(p, W) + p . bonus over input priors by :func:`barrier_newton`
    from ``p_init`` (default uniform): the optimizer of :func:`capacity_power`,
    and the finish of :func:`subblock.secc.secc_capacity` where
    :func:`blahut_arimoto` stalls.  The gradient is d + bonus, d[x] =
    D(W(.|x) || pW) in nats, the scaled Hessian diag(p) W diag(1/pW) W^T
    diag(p), and the return value that of :func:`blahut_arimoto`, with
    Newton steps in place of iterations."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    bonus = np.zeros(n) if bonus is None else np.asarray(bonus, dtype=float)
    evaluate = _divergences(w)

    def objective(p, members, hessian=False):
        pw, d = evaluate(p[0])
        if not hessian:
            return (d + bonus)[None]
        root = p[0][:, None] * w / np.sqrt(np.maximum(pw, 1e-300))[None, :]
        return (d + bonus)[None], (root @ root.T)[None]

    start = np.full(n, 1.0 / n) if p_init is None else np.asarray(p_init, dtype=float)
    p, steps, gaps = barrier_newton(objective, start[None], tol_nats=tol_nats, energy=energy)
    return p[0], float(p[0] @ evaluate(p[0])[1]), int(steps[0]), float(gaps[0])


def capacity_power(ch: Channel, threshold: float, tol: float = 1e-10) -> CapacityResult:
    """Capacity-power function: max I(P, W) subject to E_P[b] >= threshold.

    A cold-start :func:`barrier_newton` solve from the uniform prior gives the
    unconstrained optimizer; if it meets the energy constraint, it is the
    answer.  At threshold = b_max only the maximum-energy symbols are
    feasible, and the same solve runs on their rows.  Otherwise the
    constraint is active.  With two inputs {sum P = 1, E_P[b] = threshold}
    is the single point P(x_hi) = (threshold - b_lo) / (b_hi - b_lo), so the
    answer is I(P, W) there, exact, with ``residual`` 0.  With more, one
    :func:`barrier_newton` solve on that set, started from the unconstrained
    optimizer, gives the optimizer and the Lagrange multiplier of the energy
    row together.  ``residual`` reports the certified weak-duality gap in
    bits, and ``iterations`` counts Newton steps: those of the solves run,
    so only the unconstrained one in the two-input closed form.
    """
    if threshold > ch.b_max + FEASIBILITY_TOL:
        raise Infeasible(
            f"threshold {threshold} exceeds the largest symbol energy {ch.b_max}"
        )
    b = ch.energy
    tol_nats = max(tol * LN2 / 2.0, 1e-14)

    p, info, iters, gap = maximize_information(ch.w, tol_nats=tol_nats)
    if float(p @ b) >= threshold - FEASIBILITY_TOL:
        return CapacityResult(rate=info / LN2, distribution=p,
                              iterations=iters, residual=gap / LN2)

    if ch.b_max - threshold <= FEASIBILITY_TOL:
        # only the maximum-energy symbols are feasible
        keep = b >= ch.b_max - FEASIBILITY_TOL
        sub_p, sub_info, sub_iters, gap = maximize_information(ch.w[keep], tol_nats=tol_nats)
        full = np.zeros(ch.input_size)
        full[keep] = sub_p
        return CapacityResult(rate=sub_info / LN2, distribution=full,
                              iterations=iters + sub_iters, residual=gap / LN2)

    if ch.input_size == 2:
        # {sum P = 1, E_P[b] = threshold} is a single point
        hi, lo = (1, 0) if b[1] > b[0] else (0, 1)
        p = np.zeros(2)
        p[hi] = (threshold - b[lo]) / (b[hi] - b[lo])
        p[lo] = 1.0 - p[hi]
        return CapacityResult(rate=mutual_information(p, ch), distribution=p,
                              iterations=iters, residual=0.0)

    p, info, steps, gap = maximize_information(ch.w, p_init=p, tol_nats=tol_nats,
                                         energy=(b, threshold))
    return CapacityResult(rate=info / LN2, distribution=p,
                          iterations=iters + steps, residual=max(gap, 0.0) / LN2)
