"""Independent oracles shared by the test modules."""

import math

import numpy as np

from subblock import mutual_information


def two_input_ccc(ch, threshold, steps=80):
    """Independent oracle for the capacity-power value of a two-input
    channel: I is concave in t = P(X = 1), so golden-section search over the
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
