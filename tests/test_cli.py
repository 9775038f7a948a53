import ast
import csv
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subblock.capacity
from subblock import (Composition, DomainError, ccc_composition_rate,
                      cscc_composition_rate)
from subblock.cli import PENALTY_FAMILIES, _format, main, parse_channel, parse_grid

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the README's figure commands; their CSVs are pinned byte for byte
README_COMMANDS = {
    "fig3.csv": "cscc-capacity --channel bsc:0.1 --b-values 0:1:0.05 --L 2,4,8 --ccc",
    "fig4.csv": "cscc-capacity --channel bsc:0.01 --emax-values 1:8:0.5 --B 0.5",
    "fig5.csv": "penalty --channel bsc --p0 0:0.5:0.01 --L 16 --P 8,8",
    "fig6.csv": "secc --channel noiseless:2 --L 8 --b-values 0:1:0.05",
    "fig7.csv": "secc --channel bsc --L 8 --B 0.6 --p0-values 0:0.5:0.01",
    "fig8.csv": "secc --asymmetry --L 2 --p0-values 0.01:0.49:0.01",
    "exponents.csv": "exponent --channel bsc:0.1 --r-values 0.02:0.5:0.02",
    "trace.csv": "energy-sim --channel builtin --b 0,1 --B 0.5 --emax 4 --L 9 --adversarial",
    "fig9.csv": "lsd --p 0.11 --n-values 16,32,64,128,256,512 --epsilon 1e-3,1e-6",
}


def run_python(args, **kwargs):
    """Run the interpreter with the checkout's ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, **kwargs)


def run_cli(args, **kwargs):
    return run_python(["-m", "subblock", *args], **kwargs)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_parse_grid():
    assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_grid("2,4,8") == [2.0, 4.0, 8.0]
    assert parse_grid("0:0.5:0.1")[-1] == pytest.approx(0.5)
    with pytest.raises(Exception):
        parse_grid("3,2,1")
    for spec in ("nan", "0,inf", "-inf,1", "1e400", "nan:1:0.1", "0:inf:0.1",
                 "0:1:nan", "0:1:inf"):
        with pytest.raises(DomainError, match="finite"):
            parse_grid(spec)


def test_parse_channel_builtins():
    assert parse_channel("bsc:0.1", None).w[0, 1] == pytest.approx(0.1)
    assert parse_channel("bec:0.3", None).output_size == 3
    assert parse_channel("z:0.2", None).w[0, 0] == 1.0
    assert parse_channel("noiseless:3", None).input_size == 3
    ch = parse_channel("bsc:0.1", "0,2")
    assert list(ch.energy) == [0.0, 2.0]


def test_cscc_capacity_csv(tmp_path):
    out = tmp_path / "fig3.csv"
    result = run_cli(["cscc-capacity", "--channel", "bsc:0.1",
                      "--b-values", "0:1:0.25", "--L", "2,4",
                      "-o", str(out)])
    assert result.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["B", "cscc_L2", "cscc_L4"]
    assert len(rows) == 6
    for column in (1, 2):
        series = [float(r[column]) for r in rows[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    # longer subblocks dominate at every threshold
    for row in rows[1:]:
        assert float(row[2]) >= float(row[1]) - 1e-9


def test_penalty_csv(tmp_path):
    out = tmp_path / "fig5.csv"
    result = run_cli(["penalty", "--channel", "bsc", "--p0", "0:0.5:0.05",
                      "--L", "16", "--P", "8,8", "-o", str(out)])
    assert result.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["p0", "penalty_exact", "bound", "rate_loss"]
    for row in rows[1:]:
        exact, bound, loss = (float(v) for v in row[1:])
        assert -1e-9 <= exact <= bound + 1e-9 <= loss + 1e-9


@pytest.mark.parametrize("family, column, grid, counts", [
    ("bsc", "p0", "0:0.5:0.05", (5, 7)),
    ("bec", "eps", "0:1:0.1", (6, 6)),
    ("z", "p0", "0:1:0.1", (4, 8))])
def test_penalty_sweep_equals_its_points_one_at_a_time(family, column, grid, counts,
                                                       tmp_path):
    # one kernel call over the whole grid writes what a single-matrix call
    # per point gives
    out = tmp_path / "penalty.csv"
    assert main(["penalty", "--channel", family, f"--{column}", grid, "--L",
                 str(sum(counts)), "--P", ",".join(map(str, counts)), "-o", str(out)]) == 0
    comp, make_channel = Composition(counts), PENALTY_FAMILIES[family][0]
    rows = read_csv(out)[1:]
    assert len(rows) == len(parse_grid(grid))
    for value, row in zip(parse_grid(grid), rows):
        ch = make_channel(value)
        exact = ccc_composition_rate(ch, comp) - cscc_composition_rate(ch, comp).rate
        assert row[1] == _format(exact), row


def test_penalty_omits_exact_column_beyond_caps(tmp_path):
    # the balanced class of length 24 is above the class cap; the bounds
    # need no enumeration, so only the exact column goes
    out = tmp_path / "penalty.csv"
    assert main(["penalty", "--channel", "bsc", "--p0", "0.1,0.2",
                 "--L", "24", "--P", "12,12", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["p0", "bound", "rate_loss"]
    assert len(rows) == 3


def test_penalty_omits_exact_column_beyond_the_float_range(tmp_path):
    # (1999, 1) has 2,000 sequences, but |T_Q| of the balanced output type
    # (1000, 1000) is above 2**1024, so |T_Q| cannot be a float
    out = tmp_path / "penalty.csv"
    assert main(["penalty", "--channel", "bsc", "--p0", "0.1",
                 "--L", "2000", "--P", "1999,1", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["p0", "bound", "rate_loss"]
    assert len(rows) == 2


def test_energy_sim_adversarial_reports_outage(tmp_path):
    out = tmp_path / "trace.csv"
    result = run_cli(["energy-sim", "--channel", "builtin", "--b", "0,1",
                      "--B", "0.5", "--emax", "4", "--L", "9",
                      "--adversarial", "-o", str(out)])
    assert result.returncode == 0
    assert "outages=" in result.stderr
    outages = int(result.stderr.split("outages=")[1].split()[0])
    assert outages >= 1
    rows = read_csv(out)
    assert rows[0] == ["index", "level", "event"]
    assert any(r[2] == "outage" for r in rows[1:])


def test_energy_sim_within_bound_is_outage_free(tmp_path):
    out = tmp_path / "trace8.csv"
    result = run_cli(["energy-sim", "--channel", "builtin", "--b", "0,1",
                      "--B", "0.5", "--emax", "4", "--L", "8", "--m", "4",
                      "--order", "random", "--seed", "11", "-o", str(out)])
    assert result.returncode == 0
    assert "outages=0" in result.stderr


def test_energy_sim_deterministic(tmp_path):
    args = ["energy-sim", "--channel", "builtin", "--b", "0,1", "--B", "0.5",
            "--emax", "2", "--L", "6", "--m", "5", "--order", "random",
            "--seed", "7"]
    first = run_cli([*args, "-o", str(tmp_path / "a.csv")])
    second = run_cli([*args, "-o", str(tmp_path / "b.csv")])
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_exit_code_infeasible():
    result = run_cli(["capacity-power", "--channel", "bsc:0.1",
                      "--b-values", "1.5"])
    assert result.returncode == 2
    assert result.stderr.strip()


def test_exit_code_non_finite_grid():
    result = run_cli(["capacity-power", "--channel", "bsc:0.1",
                      "--b-values", "nan"])
    assert result.returncode == 2
    assert "finite" in result.stderr
    assert not result.stdout


INVALID_COMMANDS = [
    "capacity-power --channel bsc:0.1 --b-values abc",
    "cscc-capacity --channel bsc:0.1 --b-values 0.5 --L 2,x",
    "capacity-power --channel bsc:zz --b-values 0.5",
    "capacity-power --channel noiseless:x --b-values 0.5",
    "capacity-power --channel bsc:0.1 --b 0,q --b-values 0.5",
    "lsd --p 0.11 --n-values 16 --epsilon e",
    "penalty --channel bsc --p0 0.1 --L 4 --P 2,a",
    "energy-sim --b 0,1 --B 0.5 --emax 4 --L 4 --P 2,x",
    "exponent --channel bsc:0.1 --r-values 0.1 --P 0.5,x",
    "cscc-capacity --channel bsc:0.01 --emax-values 1:2:1 --p-dist x,y",
    "validate --criteria x",
    # criterion numbers outside 1..9 would select nothing and read as a pass
    "validate --criteria 10",
    "validate --criteria 0,1",
    "validate --criteria ,",
    # the asymmetry witness is fixed at L = 2, B = 0.5 on a BSC with b = (0, 1)
    "secc --asymmetry --L 4 --p0-values 0.1",
    "secc --asymmetry --L 2 --B 0.6 --p0-values 0.1",
    "secc --asymmetry --L 2 --b 0,2 --p0-values 0.1",
    # outside the (0, 0.5) the BSC formulas cover
    "lsd --p 0 --n-values 16 --epsilon 1e-3",
    "lsd --p 1 --n-values 16 --epsilon 1e-3",
    "lsd --p=-0.1 --n-values 16 --epsilon 1e-3",
    # solver tolerances must be finite and positive
    "exponent --channel bsc:0.1 --r-values 0.1 --tol 0",
    "exponent --channel bsc:0.1 --r-values 0.1 --tol nan",
    "capacity-power --channel bsc:0.1 --b-values 0.5 --tol=-1",
    "capacity-power --channel bsc:0.1 --b-values 0.5 --tol inf",
    # energies and the buffer's demand must be finite
    "capacity-power --channel bsc:0.1 --b nan,1 --b-values 0.5",
    "cscc-capacity --channel bsc:0.1 --b 0,inf --b-values 0.5 --L 4",
    "energy-sim --b 0,1 --B nan --emax 4 --L 9",
    # a negative demand would charge the buffer
    "energy-sim --channel builtin --b 0,1 --B -1 --emax 4 --L 9",
]


@pytest.mark.parametrize("command", INVALID_COMMANDS)
def test_exit_code_invalid_input(command, capsys):
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ")
    assert captured.err.count("\n") == 1
    assert not captured.out


@pytest.mark.parametrize("command", [
    "exponent --channel bsc:0.1 --P nan,1 --r-values 0.1",
    "cscc-capacity --channel bsc:0.01 --emax-values 1:2:0.5 --B 0.5 --p-dist nan,1",
])
def test_exit_code_non_finite_distribution(command, capsys):
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ") and "finite" in captured.err


def test_exit_code_missing_sweep_argument():
    result = run_cli(["secc", "--channel", "bsc:0.1", "--L", "2"])
    assert result.returncode == 2
    assert "sweep argument" in result.stderr
    result = run_cli(["penalty", "--channel", "bec", "--L", "4", "--P", "2,2"])
    assert result.returncode == 2


def test_exit_code_size_limit():
    result = run_cli(["cscc-capacity", "--channel", "bsc:0.1",
                      "--b-values", "0.5", "--L", "64"])
    assert result.returncode == 3
    assert "cap" in result.stderr
    assert main(["secc", "--channel", "bsc:0.1", "--L", "24",
                 "--b-values", "0.5"]) == 3


def recorded_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the first argument of each call."""
    calls, original = [], getattr(module, name)

    def recording(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_caps_of_every_length_are_checked_before_any_work(monkeypatch):
    # L = 12 is within the caps and L = 64 is not; nothing of L = 12 is built
    calls = recorded_calls(monkeypatch, subblock.capacity, "materialize_type_class")
    assert main(["cscc-capacity", "--channel", "bsc:0.1", "--b-values", "0.5",
                 "--L", "12,64", "-o", os.devnull]) == 3
    assert calls == []


def test_sweeps_compute_one_law_table_per_channel_and_length(monkeypatch):
    calls = recorded_calls(monkeypatch, subblock.capacity, "class_laws")
    fig4_lengths = {row[1] for row in read_csv(GOLDEN / "fig4.csv")[1:] if row[1]}
    for command, expected in [
            ("cscc-capacity --channel bsc:0.1 --b-values 0:1:0.1 --L 12,16", 2),
            ("secc --channel bsc:0.1 --L 8 --b-values 0.3:0.7:0.1", 1),
            ("secc --channel bsc --L 4 --B 0.6 --p0-values 0.1,0.2,0.3,0.4", 4),
            (README_COMMANDS["fig4.csv"], len(fig4_lengths))]:
        calls.clear()
        assert main([*command.split(), "-o", os.devnull]) == 0
        assert len(calls) == expected, command


def test_secc_sweep(tmp_path):
    out = tmp_path / "fig7.csv"
    result = run_cli(["secc", "--channel", "bsc", "--L", "2", "--B", "0.5",
                      "--p0-values", "0.05,0.1,0.2", "-o", str(out)])
    assert result.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["p0", "cscc", "secc_uniform", "secc", "ccc"]
    for row in rows[1:]:
        cscc, uniform, secc, ccc = (float(v) for v in row[1:])
        assert secc >= max(cscc, uniform) - 1e-9
        assert ccc >= secc - 1e-9


def test_secc_asymmetry(tmp_path):
    out = tmp_path / "fig8.csv"
    result = run_cli(["secc", "--asymmetry", "--L", "2",
                      "--p0-values", "0.1,0.25,0.4", "-o", str(out)])
    assert result.returncode == 0
    for row in read_csv(out)[1:]:
        assert abs(float(row[1]) - float(row[2])) > 1e-4


def test_lsd_csv(tmp_path):
    out = tmp_path / "fig9.csv"
    result = run_cli(["lsd", "--p", "0.11", "--n-values", "32,64,128",
                      "--epsilon", "1e-3,1e-6", "-o", str(out)])
    assert result.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["n", "lsd_eps0.001", "lsd_eps1e-06",
                       "joint_lower_bound", "capacity"]
    for row in rows[1:]:
        assert float(row[1]) > float(row[2])     # looser target, higher rate
        assert float(row[1]) < float(row[3])     # below the joint bound
        assert float(row[3]) < float(row[4])     # bound below capacity


def test_lsd_rejects_non_integral_blocklengths(capsys):
    for spec in ("16.7,32", "1:3:0.5"):
        assert main(["lsd", "--p", "0.11", "--n-values", spec,
                     "--epsilon", "1e-3", "-o", "-"]) == 2
        captured = capsys.readouterr()
        assert "integers" in captured.err
        assert not captured.out


NO_SCIPY = """
import os, sys
sys.modules["scipy"] = None  # every "import scipy..." now fails
from subblock import cli
for command in sys.argv[1:]:
    print(cli.main([*command.split(), "-o", os.devnull]))
"""


def test_commands_run_without_scipy():
    commands = ["lsd --p 0.11 --n-values 16,32 --epsilon 1e-3,1e-6",
                "penalty --channel bsc --p0 0.1 --L 8 --P 4,4",
                "exponent --channel bsc:0.1 --r-values 0.1,0.3"]
    result = run_python(["-c", NO_SCIPY, *commands])
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"] * len(commands), result.stderr


def test_exponent_csv(tmp_path):
    out = tmp_path / "exp.csv"
    result = run_cli(["exponent", "--channel", "bsc:0.1",
                      "--r-values", "0.1:0.5:0.1", "-o", str(out)])
    assert result.returncode == 0
    assert "critical_rate=" in result.stderr
    rows = read_csv(out)
    assert rows[0] == ["R", "e_sp", "e_r"]
    e_r = [float(r[2]) for r in rows[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(e_r, e_r[1:]))


def test_emax_sweep(tmp_path):
    out = tmp_path / "fig4.csv"
    result = run_cli(["cscc-capacity", "--channel", "bsc:0.01",
                      "--emax-values", "1:5:1", "--B", "0.5", "-o", str(out)])
    assert result.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["e_max", "L", "cscc_capacity"]
    rates = [float(r[2]) for r in rows[1:] if r[2]]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_channel_file_roundtrip(tmp_path):
    spec = tmp_path / "chan.txt"
    spec.write_text("# custom channel\n2 2\n0.8 0.2\n0.3 0.7\n0 1\n")
    out = tmp_path / "cap.csv"
    result = run_cli(["capacity-power", "--channel", str(spec),
                      "--b-values", "0.0,0.5", "-o", str(out)])
    assert result.returncode == 0
    rows = read_csv(out)
    assert float(rows[1][1]) >= float(rows[2][1]) - 1e-9


def test_main_direct_invocation(capsys):
    code = main(["lsd", "--p", "0.11", "--n-values", "64", "-o", "-"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n,lsd_eps0.001")


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_matches_golden_csv(name, tmp_path):
    out = tmp_path / name
    assert main([*README_COMMANDS[name].split(), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_benchmark_trace_target_exists():
    # the benchmark's tracer looks each (module, attribute) of its TARGETS up
    # by name, so a rename here would silently break its traced run
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert len(names) >= 10
    for module, attribute in names:
        assert hasattr(importlib.import_module(module), attribute), (module, attribute)
