"""One benchmark child process: a fresh interpreter that imports the program,
says ``ready``, then serves JSON requests from stdin, one per line, with one
JSON reply per line on stdout.  Run it with ``src`` on ``PYTHONPATH``.  Requests:

- ``{"op": "trace"}``: record spans from now on (see ``tracing``);
- ``{"op": "commands", "commands": [...], "passes": n, "outdir": dir,
  "sample": bool}``: run the argument lists through ``subblock.cli.main``
  in-process, ``passes`` times, writing CSV under ``outdir``; reply with the
  run time, exit codes and calibration samples (see ``calibrate``);
- ``{"op": "rung", "kind": "cscc" | "secc", "length": L, "sample": bool}``:
  one ladder rung, with its calibration samples;
- ``{"op": "report", "spans": path}``: peak memory so far, and with tracing
  on the per-layer numbers, the spans being written to ``path``.

The process exits at the end of its input.
"""

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time
import traceback

# the program's modules load here, before main() reports set-up done
from subblock.bounds import cscc_rate_lower_bound_bsc
from subblock.capacity import (capacity_power, ccc_composition_rate, cscc_capacity,
                               cscc_composition_rate)
from subblock.channel import Channel
from subblock.errors import SizeLimit
from subblock.secc import secc_capacity
from subblock.typeclass import Composition

import calibrate
import ladder
import tracing
from workloads import csv_name


def run_commands(cli, request) -> dict:
    """Run the command lists; ``run_s`` is their wall time less the time the
    calibration sampler took, if ``sample`` asks for one."""
    codes = []
    with calibrate.Sampler(request["sample"]) as sampler:
        start = time.perf_counter()
        for p in range(request["passes"]):
            for i, argv in enumerate(request["commands"]):
                out = os.path.join(request["outdir"], csv_name(p, i))
                err = io.StringIO()
                try:
                    with contextlib.redirect_stderr(err):
                        code = cli.main([*argv, "-o", out])
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught library error fails this command only
                    traceback.print_exc()
                    code = -1
                if code:
                    sys.stderr.write(err.getvalue())
                codes.append(code)
        run_s = time.perf_counter() - start - sampler.paused
    return {"run_s": run_s, "exit_codes": codes, "calibrations": sampler.samples}


def compute_rung(kind: str, length: int, untraced, sampler) -> ladder.Rung:
    """One ladder rung on BSC(0.1); only the capacity call is timed, less the
    sampler's time, and its check runs inside ``untraced()`` so a trace shows
    the rung alone."""
    ch = Channel.bsc(ladder.CROSSOVER)
    start, paused = time.perf_counter(), sampler.paused
    try:
        if kind == "cscc":
            result = cscc_composition_rate(ch, Composition((length // 2, length // 2)))
        else:
            result = secc_capacity(ch, length, ladder.SECC_THRESHOLD)
    except SizeLimit as exc:
        return ladder.Rung(length, "size_limit",
                           time.perf_counter() - start - (sampler.paused - paused), str(exc))
    seconds = time.perf_counter() - start - (sampler.paused - paused)
    try:
        with untraced():
            ok, detail = check_rung(kind, ch, length, result)
    except SizeLimit as exc:
        ok, detail = False, f"check needs more than the caps allow: {exc}"
    return ladder.Rung(length, "ok" if ok else "failed", seconds, detail)


def check_rung(kind: str, ch, length: int, result) -> tuple[bool, str]:
    """CSCC: between the closed-form lower bound and the CCC rate.  SECC:
    duality gap within tolerance, and CSCC <= SECC <= CCC."""
    slack = ladder.SLACK
    if kind == "cscc":
        comp = Composition((length // 2, length // 2))
        lower = cscc_rate_lower_bound_bsc(ladder.CROSSOVER, comp)
        upper = ccc_composition_rate(ch, comp)
        return (lower - slack <= result.rate <= upper + slack,
                f"rate={result.rate!r} lower={lower!r} ccc={upper!r}")
    cscc = cscc_capacity(ch, length, ladder.SECC_THRESHOLD).rate
    ccc = capacity_power(ch, ladder.SECC_THRESHOLD).rate
    return (result.residual <= ladder.SECC_TOL and cscc - slack <= result.rate <= ccc + slack,
            f"secc={result.rate!r} residual={result.residual!r} cscc={cscc!r} ccc={ccc!r}")


def run_rung(request, tracer) -> dict:
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    with calibrate.Sampler(request["sample"]) as sampler:
        try:
            rung = compute_rung(request["kind"], request["length"], untraced, sampler)
        except Exception as exc:  # any other error fails the rung's check
            traceback.print_exc()
            rung = ladder.Rung(request["length"], "failed", 0.0, repr(exc))
    return {"rung": dataclasses.asdict(rung), "calibrations": sampler.samples}


def main() -> None:
    import subblock.cli as cli
    print("ready", flush=True)      # set-up ends here
    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)
            reply = {}
        elif op == "commands":
            reply = run_commands(cli, request)
        elif op == "rung":
            reply = run_rung(request, tracer)
        elif op == "report":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            if tracer is not None:
                tracer.dump(request["spans"])
                reply["layers"] = tracer.layer_metrics()
        else:
            raise ValueError(f"unknown request {op!r}")
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
