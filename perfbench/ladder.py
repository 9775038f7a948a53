"""The length ladder: the largest even subblock length L each capacity reaches
under a per-rung time limit.

Rungs climb in steps of 2 up to 16, then 4 up to 24, then 8 up to the ceiling.
A ladder stops at the first rung that runs over time, raises ``SizeLimit`` or
fails its check; ``max_L`` is the last rung that passed.  Rungs up to
``REFERENCE_L`` are fixed work that must pass: they are timed for ``run_s``,
and a stop below them is a failed check.  Rungs above it only explore, and
stop once a rung could end after the ladder's ``EXPLORE_BUDGET_S``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

LENGTHS = tuple(range(2, 17, 2)) + (20, 24) + tuple(range(32, 65, 8))
REFERENCE_L = {"cscc": 20, "secc": 12}
RUNG_LIMIT_S = 30.0
EXPLORE_BUDGET_S = 35.0  # per ladder, so that a traced run ends within minutes
CROSSOVER = 0.1
SECC_THRESHOLD = 0.6
SLACK = 1e-9
SECC_TOL = 1e-9        # secc_capacity's default duality-gap tolerance


@dataclass(frozen=True)
class Rung:
    length: int
    status: str          # ok | timeout | size_limit | failed | budget
    seconds: float
    detail: str = ""


@dataclass
class Ladder:
    kind: str
    rungs: list[Rung] = field(default_factory=list)

    @property
    def max_length(self) -> int:
        passed = [r.length for r in self.rungs if r.status == "ok"]
        return max(passed, default=0)

    @property
    def stop(self) -> Rung | None:
        """The rung the ladder stopped on, or None if it reached the ceiling."""
        last = self.rungs[-1] if self.rungs else None
        return last if last is not None and last.status != "ok" else None


def walk(ladder: Ladder, lengths, run_rung, limit_s: float = RUNG_LIMIT_S,
         deadline: float | None = None) -> None:
    """Climb ``lengths`` with ``run_rung(kind, L, limit_s) -> Rung`` until the
    ladder stops.  A rung slower than ``limit_s`` counts as a timeout even if
    it finished.  A rung that could end after ``deadline`` (a
    ``time.monotonic()`` value) is not started: the ladder stops on it."""
    for length in lengths:
        if ladder.stop is not None:
            return
        if deadline is not None and time.monotonic() + limit_s > deadline:
            ladder.rungs.append(Rung(length, "budget", 0.0, "exploration time used up"))
            return
        rung = run_rung(ladder.kind, length, limit_s)
        if rung.status == "ok" and rung.seconds > limit_s:
            rung = Rung(length, "timeout", rung.seconds, "finished over the limit")
        ladder.rungs.append(rung)


def reference_lengths(kind: str) -> list[int]:
    return [n for n in LENGTHS if n <= REFERENCE_L[kind]]


def explore_lengths(kind: str) -> list[int]:
    return [n for n in LENGTHS if n > REFERENCE_L[kind]]


def checks(ladder: Ladder) -> tuple[int, int]:
    """(attempted, failed): every rung's outcome is a check; a stop is a
    failure when it is a failed check or falls at or below the reference."""
    attempted = failed = 0
    for rung in ladder.rungs:
        attempted += 1
        if rung.status == "failed" or (
                rung.status != "ok" and rung.length <= REFERENCE_L[ladder.kind]):
            failed += 1
    return attempted, failed


def reference_seconds(ladder: Ladder) -> float:
    return sum(r.seconds for r in ladder.rungs
               if r.length <= REFERENCE_L[ladder.kind])
