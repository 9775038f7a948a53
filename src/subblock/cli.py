"""Batch front-end: sweeps capacities, bounds, exponents, energy traces, and
finite-blocklength rates into CSV, and runs the validation suite.

Exit codes: 0 success, 1 a failed validation criterion, 2 infeasible or
invalid input, 3 size cap exceeded, 4 an iterative solver did not converge.
Output is deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import validation
from .bounds import (cscc_rate_lower_bound_bsc, penalty_bound_bec,
                     penalty_bound_bsc, penalty_bound_z)
from .capacity import (ClassTable, capacity_power, ccc_composition_rate, class_laws,
                       class_rates, cscc_from_table)
from .channel import Channel
from .energy import (BufferConfig, balanced_composition, cscc_sequence,
                     max_subblock_length, simulate, worst_case_drawdown)
from .errors import DomainError, Infeasible, NoConvergence, SizeLimit
from .exponent import exponent_curve
from .finiteblock import bsc_capacity, lsd_rate_bsc
from .oracle import asymmetry_witness
from .secc import secc_from_table, secc_uniform_from_table
from .typeclass import Composition, rate_loss

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SIZE_LIMIT = 3
EXIT_NO_CONVERGENCE = 4


# -- argument parsing helpers --------------------------------------------------


def parse_number(token: str, kind=float):
    """``kind(token)``, with a token that is not a number an invalid input."""
    try:
        return kind(token)
    except ValueError:
        raise DomainError(f"{token.strip()!r} is not a valid {kind.__name__}") from None


def parse_list(spec: str, kind=float) -> list:
    """A comma-separated list of numbers; empty tokens are skipped."""
    return [parse_number(t, kind) for t in spec.split(",") if t.strip()]


def _grid_value(token: str) -> float:
    value = parse_number(token)
    if not math.isfinite(value):
        raise DomainError(f"grid value {token!r} is not finite")
    return value


def parse_grid(spec: str) -> list[float]:
    """A sweep grid: either 'start:stop:step' (endpoints included within half
    a step) or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid {spec!r} must be start:stop:step")
        start, stop, step = (_grid_value(t) for t in parts)
        if step <= 0:
            raise DomainError("grid step must be positive")
        values = []
        k = 0
        while True:
            value = start + k * step
            if value > stop + step / 2:
                break
            values.append(value)
            k += 1
        if not values:
            raise DomainError(f"grid {spec!r} is empty")
        return values
    values = [_grid_value(t) for t in spec.split(",") if t.strip()]
    if not values:
        raise DomainError(f"grid {spec!r} is empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError("grid values must be strictly increasing")
    return values


def parse_channel(spec: str, energies: str | None) -> Channel:
    """Channel source: a file path or a builtin spec such as bsc:0.1,
    bec:0.25, z:0.3, noiseless:2, or builtin (noiseless sized by --b)."""
    b = None
    if energies is not None:
        b = parse_list(energies)
    if os.path.exists(spec):
        ch = Channel.load(spec)
        return Channel(ch.w, b) if b is not None else ch
    name, _, arg = spec.partition(":")
    name = name.lower()
    if name == "builtin":
        if b is None:
            raise DomainError("--channel builtin needs --b to size the alphabet")
        return Channel.noiseless(len(b), b)
    if name == "noiseless":
        k = parse_number(arg, int) if arg else (len(b) if b else 2)
        return Channel.noiseless(k, b if b is not None else None)
    if not arg:
        raise DomainError(f"channel spec {spec!r} needs a parameter, e.g. {name}:0.1")
    value = parse_number(arg)
    if name == "bsc":
        return Channel.bsc(value, b if b is not None else (0.0, 1.0))
    if name == "bec":
        return Channel.bec(value, b if b is not None else (0.0, 1.0))
    if name == "z":
        return Channel.z(value, b if b is not None else (0.0, 1.0))
    raise DomainError(f"unknown channel spec {spec!r}")


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: str, header, rows) -> None:
    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])

    if path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            emit(handle)


def _parse_composition(spec: str) -> Composition:
    return Composition(tuple(parse_list(spec, int)))


# -- subcommands ---------------------------------------------------------------


def _tolerance(tol: float) -> float:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"--tol {tol!r} must be finite and positive")
    return tol


def _demand(demand: float) -> float:
    if not math.isfinite(demand):
        raise DomainError(f"--B {demand!r} is not finite")
    return demand


def _require(value, flag: str):
    if value is None:
        raise DomainError(f"missing required sweep argument {flag}")
    return value


def _class_tables(ch: Channel, lengths, threshold: float) -> dict[int, ClassTable]:
    """One :class:`ClassTable` per distinct length in ``lengths``, with the
    caps of the classes feasible at ``threshold`` checked for every length
    before any class is computed, so a sweep fails before it does any work."""
    tables = {length: ClassTable(ch, length) for length in lengths}
    for table in tables.values():
        table.feasible(threshold)
    return tables


def cmd_cscc_capacity(args) -> int:
    _demand(args.B)
    ch = parse_channel(args.channel, args.b)
    if args.emax_values:
        shape = np.array(parse_list(args.p_dist)) \
            if args.p_dist else np.full(ch.input_size, 1.0 / ch.input_size)
        grid = parse_grid(args.emax_values)
        lengths = []
        for e_max in grid:
            length = max_subblock_length(ch, shape, args.B, e_max,
                                         require_integral=True)
            if length is math.inf:
                raise Infeasible("no symbol draws the buffer down; pick a finite sweep")
            lengths.append(int(length))
        tables = _class_tables(ch, [length for length in lengths if length >= 1], args.B)
        rows = [(e_max, length, cscc_from_table(tables[length], args.B).rate) if length >= 1
                else (e_max, None, None) for e_max, length in zip(grid, lengths)]
        write_csv(args.output, ["e_max", "L", "cscc_capacity"], rows)
        return EXIT_OK

    lengths = parse_list(args.L, int)
    grid = parse_grid(_require(args.b_values, "--b-values"))
    header = ["B"] + [f"cscc_L{length}" for length in lengths]
    if args.ccc:
        header.append("ccc")

    # parse_grid lists thresholds in increasing order, so the classes
    # feasible at the first one hold those of every other
    tables = _class_tables(ch, lengths, grid[0])

    def point(threshold):
        row = [threshold]
        row.extend(cscc_from_table(tables[length], threshold).rate for length in lengths)
        if args.ccc:
            row.append(capacity_power(ch, threshold).rate)
        return row

    write_csv(args.output, header, [point(value) for value in grid])
    return EXIT_OK


def cmd_capacity_power(args) -> int:
    tol = _tolerance(args.tol)
    ch = parse_channel(args.channel, args.b)
    grid = parse_grid(args.b_values)
    rows = [(t, capacity_power(ch, t, tol).rate) for t in grid]
    write_csv(args.output, ["B", "capacity"], rows)
    return EXIT_OK


def cmd_secc(args) -> int:
    _demand(args.B)
    if args.asymmetry:
        if args.L != 2 or args.B != 0.5 or args.b is not None or args.b_values \
                or args.channel.lower() != "bsc":
            raise DomainError("--asymmetry is fixed at --channel bsc, --L 2 and "
                              "--B 0.5 with energies 0,1; sweep it with --p0-values")
        grid = parse_grid(_require(args.p0_values, "--p0-values"))
        rows = []
        for p0 in grid:
            i01, i11 = asymmetry_witness(p0)
            rows.append((p0, i01, i11))
        write_csv(args.output, ["p0", "info_01", "info_11"], rows)
        return EXIT_OK

    if args.p0_values:
        if not args.channel.lower().startswith("bsc"):
            raise DomainError("--p0-values sweeps require a bsc channel family")
        grid, column = parse_grid(args.p0_values), "p0"

        def setting(p0):
            ch = Channel.bsc(p0) if args.b is None else parse_channel(f"bsc:{p0}", args.b)
            return ch, args.B, ClassTable(ch, args.L)
    else:
        fixed = parse_channel(args.channel, args.b)
        grid, column = parse_grid(_require(args.b_values, "--b-values or --p0-values")), "B"
        table = ClassTable(fixed, args.L)

        def setting(threshold):
            return fixed, threshold, table

    def point(value):
        ch, threshold, table = setting(value)
        # the SECC rates read every feasible row, in one kernel call; the
        # CSCC scan then finds its rows computed
        uniform = secc_uniform_from_table(table, threshold)
        return [value, cscc_from_table(table, threshold).rate, uniform,
                secc_from_table(table, threshold).rate,
                capacity_power(ch, threshold).rate]

    write_csv(args.output, [column, "cscc", "secc_uniform", "secc", "ccc"],
              [point(value) for value in grid])
    return EXIT_OK


PENALTY_FAMILIES = {"bsc": (Channel.bsc, penalty_bound_bsc),
                    "bec": (Channel.bec, penalty_bound_bec),
                    "z": (Channel.z, penalty_bound_z)}


def cmd_penalty(args) -> int:
    family = args.channel.lower().partition(":")[0]
    if family not in PENALTY_FAMILIES:
        raise DomainError(f"unknown penalty family {args.channel!r}")
    make_channel, penalty_bound = PENALTY_FAMILIES[family]
    comp = _parse_composition(args.P)
    if comp.length != args.L:
        raise DomainError("--P counts must sum to --L")
    loss = rate_loss(comp)
    column = "eps" if family == "bec" else "p0"
    grid = parse_grid(_require(getattr(args, column), f"--{column}"))
    channels = [make_channel(value) for value in grid]
    # one kernel call for the whole grid; the exact column is left out, not
    # the command, when the class is beyond the caps
    try:
        sizes, laws = class_laws(np.stack([ch.w for ch in channels]), [comp.counts], comp.length)
    except SizeLimit:
        laws = None
    header = [column] + (["penalty_exact"] if laws is not None else []) \
        + ["bound", "rate_loss"]
    rows = []
    for k, (value, ch) in enumerate(zip(grid, channels)):
        row = [value]
        if laws is not None:
            rate, = class_rates(ch, [comp.counts], sizes, laws[k])
            row.append(ccc_composition_rate(ch, comp) - max(rate, 0.0))
        rows.append(row + [penalty_bound(value, comp).upper, loss])
    write_csv(args.output, header, rows)
    return EXIT_OK


def cmd_exponent(args) -> int:
    ch = parse_channel(args.channel, args.b)
    if args.P:
        p = np.array(parse_list(args.P))
    else:
        p = np.full(ch.input_size, 1.0 / ch.input_size)
    grid = parse_grid(args.r_values)
    curve = exponent_curve(ch, p, grid, tol=_tolerance(args.tol))
    print(f"critical_rate={curve.critical_rate:.12g}", file=sys.stderr)
    write_csv(args.output, ["R", "e_sp", "e_r"], curve.points)
    return EXIT_OK


def cmd_energy_sim(args) -> int:
    ch = parse_channel(args.channel, args.b)
    if args.P:
        comp = _parse_composition(args.P)
        if comp.length != args.L:
            raise DomainError("--P counts must sum to --L")
    else:
        comp = balanced_composition(ch.input_size, args.L, energy=ch.energy)
    drawdown = worst_case_drawdown(comp, ch, args.B)
    e_init = args.e_init if args.e_init is not None else min(drawdown, args.emax)
    order = "adversarial" if args.adversarial else args.order
    symbols = cscc_sequence(comp, args.m, order, ch=ch, demand=args.B,
                            rng=args.seed)
    trace = simulate(BufferConfig(e_max=args.emax, demand=args.B,
                                  e_init=e_init), ch, symbols)
    write_csv(args.output, ["index", "level", "event"], trace.rows())
    print(f"composition={','.join(str(c) for c in comp.counts)} "
          f"drawdown={drawdown:.12g} e_init={e_init:.12g} "
          f"outages={trace.outage_count} overflows={trace.overflow_count}",
          file=sys.stderr)
    return EXIT_OK


def cmd_lsd(args) -> int:
    grid = parse_grid(args.n_values)
    if not all(v.is_integer() for v in grid):
        raise DomainError("blocklengths --n-values must be integers")
    grid = [int(v) for v in grid]
    epsilons = parse_list(args.epsilon)
    capacity = bsc_capacity(args.p)
    header = ["n"] + [f"lsd_eps{eps:g}" for eps in epsilons] \
        + ["joint_lower_bound", "capacity"]
    rows = []
    for n in grid:
        row = [n] + [lsd_rate_bsc(args.p, n, eps) for eps in epsilons]
        if n % 2 == 0:
            row.append(cscc_rate_lower_bound_bsc(
                args.p, Composition((n // 2, n // 2))))
        else:
            row.append(None)
        row.append(capacity)
        rows.append(row)
    write_csv(args.output, header, rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    numbers = set(parse_list(args.criteria, int)) if args.criteria else None
    results = validation.run_all(seed=args.seed, numbers=numbers)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subblock",
        description="Capacities, bounds, exponents, and energy traces for "
                    "subblock-constrained codes over discrete memoryless channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", "-o", default="-",
                       help="CSV output path, '-' for stdout (default)")
        p.add_argument("--b", default=None,
                       help="per-symbol energies, e.g. 0,1 (overrides defaults)")

    p = sub.add_parser("cscc-capacity",
                       help="CSCC capacity versus energy threshold or buffer size")
    add_common(p)
    p.add_argument("--channel", required=True,
                   help="file path or builtin: bsc:P0 | bec:EPS | z:P0 | noiseless:K")
    p.add_argument("--b-values", default=None, help="grid of B, e.g. 0:1:0.05")
    p.add_argument("--L", default="2,4,8", help="subblock lengths, e.g. 2,4,8")
    p.add_argument("--ccc", action="store_true",
                   help="append the capacity-power (L = infinity) column")
    p.add_argument("--emax-values", default=None,
                   help="sweep buffer capacity instead of B; L follows the "
                        "outage-free bound for --P-dist")
    p.add_argument("--B", type=float, default=0.5,
                   help="energy threshold for the --emax-values sweep")
    p.add_argument("--p-dist", dest="p_dist", default=None,
                   help="composition shape for the --emax-values sweep, e.g. 0.5,0.5")
    p.set_defaults(func=cmd_cscc_capacity)

    p = sub.add_parser("capacity-power", help="capacity-power function C(B)")
    add_common(p)
    p.add_argument("--channel", required=True)
    p.add_argument("--b-values", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_capacity_power)

    p = sub.add_parser("secc",
                       help="SECC rates (uniform and exact) against CSCC and CCC")
    add_common(p)
    p.add_argument("--channel", default="bsc")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--B", type=float, default=0.5)
    p.add_argument("--b-values", default=None, help="sweep B on a fixed channel")
    p.add_argument("--p0-values", default=None, help="sweep BSC crossover")
    p.add_argument("--asymmetry", action="store_true",
                   help="emit the uniform-input per-class informations at "
                        "L=2, B=0.5 instead of rates")
    p.set_defaults(func=cmd_secc)

    p = sub.add_parser("penalty", help="rate penalty bounds versus the exact penalty")
    add_common(p)
    p.add_argument("--channel", required=True, help="family: bsc | bec | z")
    p.add_argument("--p0", default=None, help="crossover / flip grid")
    p.add_argument("--eps", default=None, help="erasure grid (bec)")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", required=True, help="composition counts, e.g. 8,8")
    p.set_defaults(func=cmd_penalty)

    p = sub.add_parser("exponent", help="sphere-packing and random-coding exponents")
    add_common(p)
    p.add_argument("--channel", required=True)
    p.add_argument("--P", default=None, help="input distribution (default uniform)")
    p.add_argument("--r-values", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("energy-sim", help="receiver energy-buffer trace")
    add_common(p)
    p.add_argument("--channel", default="builtin",
                   help="noise model is irrelevant to the buffer; 'builtin' "
                        "builds a noiseless channel sized by --b")
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", default=None,
                   help="composition counts; default: balanced with leftovers "
                        "on the lowest-energy symbols (outage worst case)")
    p.add_argument("--m", type=int, default=2, help="number of subblocks")
    p.add_argument("--order", choices=("sorted", "random", "adversarial"),
                   default="sorted")
    p.add_argument("--adversarial", action="store_true",
                   help="shorthand for --order adversarial")
    p.add_argument("--e-init", type=float, default=None,
                   help="initial buffer level (default: the worst-case "
                        "drawdown, capped at e_max)")
    p.add_argument("--seed", type=int, default=0, help="seed for --order random")
    p.set_defaults(func=cmd_energy_sim)

    p = sub.add_parser("lsd", help="local-subblock-decoding achievable rates (BSC)")
    add_common(p)
    p.add_argument("--p", type=float, required=True, help="BSC crossover")
    p.add_argument("--n-values", required=True, help="blocklength grid")
    p.add_argument("--epsilon", default="1e-3",
                   help="comma-separated target error probabilities")
    p.set_defaults(func=cmd_lsd)

    p = sub.add_parser("validate", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)
    p.add_argument("--criteria", default=None,
                   help="subset to run, e.g. 1,2,6 (default: all)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SizeLimit as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
