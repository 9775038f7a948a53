"""Benchmark runner for the subblock toolkit.

    python3 perfbench/run.py --workload cscc-sweep --seed 3 --seconds 20 --trace 0

Run from the repository root.  Every repetition of a workload runs in a fresh
``python3 perfbench/worker.py`` process started from here, one at a time
(closed loop, one client).  The program is used straight from ``src``; no
install or build step.

``--trace 0`` repeats the workload on one thread until ``--seconds`` are
used and reports the end-to-end metrics as medians over the repetitions:

- ``setup_s``: launch of the fresh interpreter until ``subblock.cli`` is
  imported, over at least ``SETUP_SAMPLES`` launches;
- ``run_s``: wall time of the workload's fixed work;
- ``peak_rss_mb``: the worker's peak resident memory over that work.

Both times are given at reference machine speed.  While a repetition runs,
``calibrate.Sampler`` times a small fixed calibration chunk four times a
second in the worker; ``run_s`` leaves that time out, and every time is
multiplied by the chunks' mean speed relative to ``calibrate.REFERENCE_S``.  This
takes out the drift in processor speed of a shared machine, which reaches
tens of percent over minutes, and leaves in every change of the program.

``--trace 1`` runs the workload three times -- default threads, one thread,
and one thread traced -- and reports the per-layer metrics from the traced
run plus ``cli.pool_speedup``, ``trace.overhead`` and the one-thread run's
raw wall time and calibration.  There the ladder also explores above its
reference rungs.

Outputs are checked on every run: exit codes and invariants for any seed, and
the stored reference CSVs for the default seed.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count the
checks, and ``metrics`` maps each metric name to its value and unit.  With
``--workload all`` every workload runs in turn.  ``--write-references``
regenerates the reference CSVs from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import ladder
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("cscc-sweep", "secc-fig7", "figures-small", "length-ladder")
LIBRARY_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
RUNG_GRACE_S = 10.0      # time a rung's checks and replies may add to its limit

# metric names, units and order come from the benchmark definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


class Worker:
    """A fresh interpreter running ``worker.py``; ``setup_s`` is the time from
    launch until it reported ``subblock.cli`` imported.  ``threads`` sizes the
    CLI's pool and the numeric libraries' threads; None leaves their defaults."""

    def __init__(self, threads: int | None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for name in ("SUBBLOCK_THREADS",) + LIBRARY_THREADS:
            env.pop(name, None)
            if threads is not None:
                env[name] = str(threads)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.kill()
            raise BenchError("the worker could not import subblock.cli from src")

    def request(self, payload: dict, timeout: float | None = None) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        if timeout is not None:
            readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
            if not readable:
                raise TimeoutError
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the worker exited during {payload['op']!r}")
        return json.loads(line)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None and exc[0] is not None:
            self.kill()
        elif not self.proc.stdin.closed:
            self.close()


@dataclass
class Sample:
    """One repetition of a workload in its own worker process."""

    setup_s: float
    run_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    calibrations: list
    layers: dict = field(default_factory=dict)
    max_length: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.count = 0

    def _spans_path(self) -> str:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        return str(traces / f"{self.workload}-seed{self.seed}.json")

    def repetition(self, threads: int | None = 1, trace: bool = False,
                   explore: bool = False) -> Sample:
        self.count += 1
        if self.workload == "length-ladder":
            return self._ladder(threads, trace, explore)
        outdir = self.workdir / f"rep{self.count}"
        outdir.mkdir(parents=True)
        with Worker(threads) as worker:
            if trace:
                worker.request({"op": "trace"})
            reply = worker.request({
                "op": "commands", "outdir": str(outdir),
                "commands": workloads.commands(self.workload, self.seed),
                "passes": workloads.passes(self.workload),
                "sample": sampled(threads, trace)})
            report = worker.request({"op": "report", "spans": self._spans_path()})
        attempted, failed = workloads.check_outputs(
            self.workload, self.seed, reply["exit_codes"], outdir)
        shutil.rmtree(outdir)
        return Sample(worker.setup_s, reply["run_s"], report["peak_rss_mb"],
                      attempted, failed, reply["calibrations"], report.get("layers", {}))

    def _ladder(self, threads: int | None, trace: bool, explore: bool) -> Sample:
        """The reference rungs; then, with ``explore``, the rungs above them
        within ``ladder.EXPLORE_BUDGET_S`` per ladder."""
        def start() -> Worker:
            fresh = Worker(threads)
            if trace:
                fresh.request({"op": "trace"})
            return fresh

        worker = start()
        setup_s = worker.setup_s
        calibrations = []

        def run_rung(kind: str, length: int, limit_s: float) -> ladder.Rung:
            nonlocal worker
            if worker is None:
                worker = start()
            try:
                reply = worker.request({"op": "rung", "kind": kind, "length": length,
                                        "sample": sampled(threads, trace)},
                                       timeout=limit_s + RUNG_GRACE_S)
            except TimeoutError:
                worker.kill()
                worker = None
                return ladder.Rung(length, "timeout", limit_s, "stopped at the hard limit")
            calibrations.extend(reply["calibrations"])
            return ladder.Rung(**reply["rung"])

        try:
            ladders = {kind: ladder.Ladder(kind) for kind in ladder.REFERENCE_L}
            for kind, steps in ladders.items():
                ladder.walk(steps, ladder.reference_lengths(kind), run_rung)
            if worker is None:
                worker = start()
            report = worker.request({"op": "report", "spans": self._spans_path()})
            for kind, steps in ladders.items() if explore else ():
                ladder.walk(steps, ladder.explore_lengths(kind), run_rung,
                            deadline=time.monotonic() + ladder.EXPLORE_BUDGET_S)
        finally:
            if worker is not None:
                worker.close()
        attempted = failed = 0
        notes = []
        for kind, steps in ladders.items():
            a, f = ladder.checks(steps)
            attempted, failed = attempted + a, failed + f
            stop = steps.stop
            reason = f"stopped at L={stop.length}: {stop.status} ({stop.detail})" \
                if stop else "reached the ceiling" if explore else "reference rungs passed"
            notes.append(f"max_L.{kind}={steps.max_length} {reason}")
        return Sample(setup_s, sum(ladder.reference_seconds(s) for s in ladders.values()),
                      report["peak_rss_mb"], attempted, failed, calibrations,
                      report.get("layers", {}),
                      {kind: s.max_length for kind, s in ladders.items()}, notes)


def sampled(threads: int | None, trace: bool) -> bool:
    """Calibrate only on one untraced thread: there the sampler interrupts
    nothing but the measured work, which leaves its time out."""
    return threads == 1 and not trace


def setup_only() -> float:
    with Worker(1) as worker:
        return worker.setup_s


def metrics(section: str, values: dict) -> dict:
    """``values`` as the result's metric objects, in the order and with the
    units of ``section`` of BENCHMARK.json."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, int, int, list]:
    setup_only()   # fills bytecode caches; users pay that once, not per run
    samples, setups = [], []
    start = time.perf_counter()
    while True:
        samples.append(runner.repetition())
        setups += [samples[-1].setup_s, setup_only()]  # spread over the run
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) / 2 > seconds:
            break   # another repetition would end further from the budget
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    runs = [s.run_s for s in samples]
    scaled = [calibrate.at_reference_speed(s.run_s, s.calibrations) for s in samples]
    calibrations = [c for s in samples for c in s.calibrations]
    values = {"setup_s": calibrate.at_reference_speed(statistics.median(setups), calibrations),
              "run_s": statistics.median(scaled),
              "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples)}
    notes = [f"repetitions={len(samples)} wall run_s min={min(runs):.4f} "
             f"median={statistics.median(runs):.4f} max={max(runs):.4f}",
             "run_s at reference speed: " + " ".join(f"{x:.4f}" for x in scaled),
             f"setup samples={len(setups)} wall min={min(setups):.4f} "
             f"median={statistics.median(setups):.4f} max={max(setups):.4f}",
             f"calibrations={len(calibrations)} min={min(calibrations):.4f} "
             f"median={statistics.median(calibrations):.4f} max={max(calibrations):.4f} "
             f"(reference {calibrate.REFERENCE_S} s)"]
    notes += samples[0].notes
    return (metrics("end_to_end", values), sum(s.attempted for s in samples),
            sum(s.failed for s in samples), notes, {})


def per_layer(runner: Runner) -> tuple[dict, int, int, list]:
    default = runner.repetition(threads=None, explore=True)
    single = runner.repetition()
    traced = runner.repetition(trace=True)
    layers = dict(traced.layers)
    layers["cli.pool_speedup"] = single.run_s / default.run_s
    layers["trace.overhead"] = traced.run_s / single.run_s
    layers["run.unscaled_s"] = single.run_s
    layers["calibration_s"] = statistics.median(single.calibrations)
    for kind in ladder.REFERENCE_L:
        layers[f"ladder.max_L.{kind}"] = default.max_length.get(kind, 0)
    for m in SPEC["per_layer"]:
        layers.setdefault(m["name"], 0)     # a layer this workload never calls
    samples = (default, single, traced)
    notes = [f"run_s default={default.run_s:.4f} one-thread={single.run_s:.4f} "
             f"traced={traced.run_s:.4f}"] + default.notes
    return (metrics("per_layer", layers), sum(s.attempted for s in samples),
            sum(s.failed for s in samples), notes, {})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, int, int]:
    runner = Runner(workload, seed, workdir / workload)
    measured, attempted, failed, notes, shown = \
        per_layer(runner) if trace else end_to_end(runner, seconds)
    print(f"# workload={workload} seed={seed} trace={int(trace)}")
    for note in notes:
        print(f"#   {note}")
    # printed only: failed_frac is 0 when all is well and max_L is gated by
    # the ladder's checks, so neither is a metric of the JSON result
    shown["failed_frac"] = (failed / attempted, f"ratio ({failed} of {attempted} checks)")
    lines = [(name, m["value"], m["unit"]) for name, m in measured.items()]
    lines += [(name, value, unit) for name, (value, unit) in shown.items()]
    for name, value, unit in lines:
        print(f"{workload:14s} {name:36s} {value:14.6g} {unit}")
    return measured, attempted, failed


def write_references(workdir: Path) -> None:
    """Store the default-seed CSV of every fixed-work command."""
    for workload in WORKLOADS[:3]:
        outdir = workdir / workload
        outdir.mkdir(parents=True)
        with Worker(None) as worker:
            reply = worker.request({
                "op": "commands", "outdir": str(outdir), "passes": 1, "sample": False,
                "commands": workloads.commands(workload, workloads.DEFAULT_SEED)})
        if any(reply["exit_codes"]):
            raise BenchError(f"{workload}: exit codes {reply['exit_codes']}")
        for i in range(len(reply["exit_codes"])):
            shutil.copyfile(outdir / workloads.csv_name(0, i),
                            workloads.reference_path(workload, i))
            print(workloads.reference_path(workload, i).relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "subblock" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'subblock' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.write_references:
            write_references(workdir)
            return 0
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
                   for w in chosen}
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    if len(chosen) == 1:
        measured = results[chosen[0]][0]
    else:
        measured = {f"{w}.{name}": m for w, r in results.items() for name, m in r[0].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": measured}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
