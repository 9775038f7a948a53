"""Workload definitions: the CLI command lists, their seeded grids, and the
checks that decide whether each output is correct.

The default seed runs the grids exactly as written, and its CSVs are also
compared with the stored references.  Any other seed moves every interior
grid point by a seeded amount of at most a tenth of a step, keeping each grid's
count and end points; such runs are checked by the invariants alone.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

DEFAULT_SEED = 0
JITTER_STEPS = 0.1
TOL = 1e-9
PRINTED = 5e-12     # relative rounding of a value the CLI writes with 12 digits
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FIGURE_PASSES = 4      # figures-small repeats its list so a run lasts seconds


class Grids:
    """Grid specs for one seed: unchanged for the default seed, otherwise
    interior points jittered by less than a step."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def __call__(self, spec: str) -> str:
        if self.rng is None:
            return spec
        start, stop, step = (float(t) for t in spec.split(":"))
        values = []
        k = 0
        while start + k * step <= stop + step / 2:
            values.append(start + k * step)
            k += 1
        for i in range(1, len(values) - 1):
            values[i] += self.rng.uniform(-JITTER_STEPS, JITTER_STEPS) * step
        return ",".join(repr(v) for v in values)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists one repetition of ``workload`` runs, in order."""
    g = Grids(seed)
    if workload == "cscc-sweep":
        return [
            ["penalty", "--channel", "bsc", "--p0", g("0:0.5:0.01"), "--L", "16", "--P", "8,8"],
            ["penalty", "--channel", "bec", "--eps", g("0:1:0.02"), "--L", "14", "--P", "7,7"],
            ["cscc-capacity", "--channel", "bsc:0.1", "--b-values", g("0:1:0.1"), "--L", "12,16"],
        ]
    if workload == "secc-fig7":
        return [
            ["secc", "--channel", "bsc", "--L", "8", "--B", "0.6",
             "--p0-values", g("0.30:0.48:0.03")],
            ["secc", "--channel", "bsc:0.1", "--L", "8", "--b-values", g("0.3:0.7:0.1")],
        ]
    if workload == "figures-small":
        return [
            ["cscc-capacity", "--channel", "bsc:0.1", "--b-values", g("0:1:0.05"),
             "--L", "2,4,8", "--ccc"],
            ["cscc-capacity", "--channel", "bsc:0.01", "--emax-values", g("1:8:0.5"),
             "--B", "0.5"],
            ["secc", "--channel", "noiseless:2", "--L", "8", "--b-values", g("0:1:0.05")],
            ["secc", "--asymmetry", "--L", "2", "--p0-values", g("0.01:0.49:0.01")],
            ["exponent", "--channel", "bsc:0.1", "--r-values", g("0.02:0.5:0.02")],
            ["energy-sim", "--channel", "builtin", "--b", "0,1", "--B", "0.5",
             "--emax", "4", "--L", "9", "--adversarial"],
            ["lsd", "--p", "0.11", "--n-values", "16,32,64,128,256,512",
             "--epsilon", "1e-3,1e-6"],
            ["capacity-power", "--channel", "bsc:0.1", "--b-values", g("0:1:0.05")],
        ]
    raise ValueError(f"no command list for workload {workload!r}")


def passes(workload: str) -> int:
    return FIGURE_PASSES if workload == "figures-small" else 1


# -- checks ---------------------------------------------------------------------


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def matches_reference(path, reference) -> bool:
    """Same header and shape as the reference; numeric fields within ``TOL``
    absolute, other fields equal."""
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return False
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref):
            return False
        for got, want in zip(row, ref):
            a, b = _number(got), _number(want)
            if a is None or b is None:
                if got != want:
                    return False
            elif not (a == b or abs(a - b) <= TOL):
                return False
    return True


def invariant_checks(path) -> list[bool]:
    """One boolean per invariant per row; these hold whatever the grid."""
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    results = []

    def le(row, small, large):
        """small <= large + TOL for the program's values, which the CSV
        holds rounded to 12 significant digits."""
        a, b = _number(row[col[small]]), _number(row[col[large]])
        return a is not None and b is not None and \
            a <= b + TOL + PRINTED * (abs(a) + abs(b))

    for row in rows:
        if "penalty_exact" in col:
            results.append(_number(row[col["penalty_exact"]]) >= -TOL)
            results.append(le(row, "penalty_exact", "bound"))
        if "bound" in col and "rate_loss" in col:
            results.append(le(row, "bound", "rate_loss"))
        if "secc" in col:
            results.append(le(row, "cscc", "secc"))
            results.append(le(row, "secc_uniform", "secc"))
            results.append(le(row, "secc", "ccc"))
        elif "secc_uniform" in col:
            results.append(le(row, "cscc", "ccc"))
            results.append(le(row, "secc_uniform", "ccc"))
        if "e_sp" in col:
            results.append(le(row, "e_r", "e_sp"))
        for name in header:
            if name.startswith("cscc_L") and "ccc" in col:
                results.append(le(row, name, "ccc"))
            if name.startswith("lsd_eps"):
                results.append(le(row, name, "capacity"))
    # capacities can only fall as the energy threshold rises
    if header[0] == "B":
        for name in header[1:]:
            if name.startswith("cscc_L") or name == "capacity":
                values = [_number(r[col[name]]) for r in rows]
                results.extend(b <= a + TOL for a, b in zip(values, values[1:]))
    return results


def check_outputs(workload: str, seed: int, exit_codes, outdir) -> tuple[int, int]:
    """Check one repetition's outputs; returns (attempted, failed)."""
    attempted = failed = 0
    n_commands = len(commands(workload, seed))
    for index, code in enumerate(exit_codes):
        attempted += 1
        if code != 0:
            failed += 1
            continue
        path = Path(outdir) / csv_name(index // n_commands, index % n_commands)
        try:
            verdicts = invariant_checks(path)
            if seed == DEFAULT_SEED:
                verdicts.append(matches_reference(path, reference_path(workload, index % n_commands)))
        except (OSError, IndexError, KeyError, TypeError):  # missing or malformed CSV
            verdicts = [False]
        attempted += len(verdicts)
        failed += sum(1 for ok in verdicts if not ok)
    return attempted, failed


def csv_name(pass_index: int, command_index: int) -> str:
    return f"p{pass_index}-c{command_index}.csv"


def reference_path(workload: str, command_index: int) -> Path:
    return REFERENCE_DIR / f"{workload}-c{command_index}.csv"
