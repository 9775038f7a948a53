"""Machine-speed calibration: a fixed piece of work that does not touch the
program, timed while the program runs to tell how fast the machine is going.

On a shared machine the speed of the processor drifts by tens of percent
over minutes, and the program's wall time drifts with it.  ``Sampler``
interrupts the main thread every ``SAMPLE_EVERY_S`` of wall time and times one
calibration chunk there, on the same processor and in the same phase of
machine speed as the program around it.  The time spent in the chunks is
kept apart, so the program's own time is the wall time less ``paused``.
``at_reference_speed`` then rescales that time by the mean speed of the
chunks, relative to a machine on which a chunk takes ``REFERENCE_S``.

The chunk mixes what the program's hot paths spend their time on:
interpreted Python, many numpy calls on tiny arrays, numpy arithmetic on an
array of half a megabyte, and matrix-vector products over a 4 MB matrix, as
in Blahut-Arimoto on a large channel.  The last part weighs most, because
memory-bound work slows most when the machine is busy.  Its inputs are built
once, so every chunk does exactly the same work; they add 4.5 MB to the
worker's resident memory.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.025      # one chunk on the machine the benchmark was defined on
SAMPLE_EVERY_S = 0.25    # wall time between two chunks while a Sampler is active

_MATRIX = np.random.default_rng(0).random((128, 512)) + 0.01
_SMALL = np.array([[0.9, 0.1], [0.2, 0.8]])
_LARGE = np.random.default_rng(1).random((512, 1024)) + 0.01
_LARGE /= _LARGE.sum(axis=1, keepdims=True)


def _interpreted() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


def _tiny_arrays() -> float:
    p = np.array([0.5, 0.5])
    for _ in range(300):
        q = p @ _SMALL
        d = np.sum(_SMALL * np.log(_SMALL / q), axis=1)
        p = p * np.exp(d)
        p /= p.sum()
    return float(p[0])


def _medium_arrays() -> float:
    w = np.full(_MATRIX.shape[0], 1.0 / _MATRIX.shape[0])
    for _ in range(4):
        q = w @ _MATRIX
        d = (_MATRIX * np.log(_MATRIX / q)).sum(axis=1)
        w = w * np.exp(d - d.max())
        w /= w.sum()
    return float(w[0])


def _large_matrix() -> float:
    """Blahut-Arimoto's update written as two matrix-vector products, so the
    4 MB matrix is streamed twice per iteration and nothing large is
    allocated."""
    w = np.full(_LARGE.shape[0], 1.0 / _LARGE.shape[0])
    for _ in range(36):
        d = _LARGE @ np.log(w @ _LARGE)
        w = w * np.exp(d.min() - d)
        w /= w.sum()
    return float(w[0])


def calibration_seconds() -> float:
    """Wall time of one calibration chunk."""
    start = time.perf_counter()
    _interpreted()
    _tiny_arrays()
    _medium_arrays()
    _large_matrix()
    return time.perf_counter() - start


class Sampler:
    """While entered (and ``active``), times a calibration chunk every
    ``SAMPLE_EVERY_S`` from a SIGALRM handler in the main thread.  ``samples``
    are the chunk times; ``paused`` is the wall time the handler took."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_seconds())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(seconds: float, samples) -> float:
    """``seconds`` measured alongside calibration ``samples``, rescaled to a
    machine on which a chunk takes ``REFERENCE_S``.  The samples are taken
    evenly in time, so the mean of their speeds is the machine's mean speed
    over those seconds."""
    return seconds * statistics.fmean(REFERENCE_S / c for c in samples)
