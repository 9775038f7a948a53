"""Self-tests of the benchmark harness (not of the program it measures).

    python3 -m pytest -q perfbench/selftest.py
"""

import shutil
import sys
import time
from pathlib import Path

import pytest

import calibrate
import ladder
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("parent", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("b", 3.0, 6.0, 0),      # overlaps a: counted once
        tracing.Span("c", 8.0, 9.0, 0),
        tracing.Span("grandchild", 3.5, 5.0, 2),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[4] == pytest.approx(1.5)


def test_union_length_clips_to_the_parent():
    assert tracing.union_length([(-1.0, 2.0), (1.0, 3.0), (5.0, 12.0)], 0.0, 10.0) == \
        pytest.approx(3.0 + 5.0)


def fake_rungs(outcomes):
    """run_rung that answers from ``outcomes[L] = (status, seconds)``."""
    calls = []

    def run_rung(kind, length, limit_s):
        calls.append(length)
        status, seconds = outcomes.get(length, ("ok", 0.1))
        return ladder.Rung(length, status, seconds)

    return run_rung, calls


@pytest.mark.parametrize("status, seconds", [
    ("timeout", 1.0),        # stopped at the hard limit
    ("ok", 5.0),             # finished, but over the limit
    ("size_limit", 0.0),
    ("failed", 0.1),         # wrong answer
])
def test_ladder_stops_and_does_not_count_the_stopping_rung(status, seconds):
    steps = ladder.Ladder("secc")
    run_rung, calls = fake_rungs({6: (status, seconds)})
    ladder.walk(steps, [2, 4, 6, 8, 10], run_rung, limit_s=1.0)
    assert calls == [2, 4, 6]
    assert steps.max_length == 4
    assert steps.stop.length == 6
    assert steps.stop.status == ("timeout" if status == "ok" else status)
    # a stop below the reference length is a failed check
    attempted, failed = ladder.checks(steps)
    assert (attempted, failed) == (3, 1)
    # a stopped ladder does not climb on
    ladder.walk(steps, [14, 16], run_rung)
    assert calls == [2, 4, 6]


def test_ladder_stop_above_the_reference_is_not_a_failure_unless_wrong():
    ref = ladder.REFERENCE_L["cscc"]
    for status, expected_failed in (("size_limit", 0), ("timeout", 0), ("failed", 1)):
        steps = ladder.Ladder("cscc")
        run_rung, _ = fake_rungs({ref + 4: (status, 0.0)})
        ladder.walk(steps, ladder.reference_lengths("cscc"), run_rung)
        ladder.walk(steps, ladder.explore_lengths("cscc"), run_rung)
        assert steps.max_length == ref
        assert ladder.checks(steps)[1] == expected_failed


def perturbed_copy(tmp_path, delta):
    reference = workloads.reference_path("secc-fig7", 1)
    header, rows = workloads.read_csv(reference)
    rows[2][3] = repr(float(rows[2][3]) + delta)
    path = tmp_path / "out.csv"
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    return path, reference


def test_reference_comparison_flags_a_1e_8_perturbation(tmp_path):
    path, reference = perturbed_copy(tmp_path, 1e-8)
    assert not workloads.matches_reference(path, reference)
    path, reference = perturbed_copy(tmp_path, 1e-10)
    assert workloads.matches_reference(path, reference)
    shutil.copyfile(reference, path)
    assert workloads.matches_reference(path, reference)


def test_invariants_flag_secc_above_ccc(tmp_path):
    path = tmp_path / "secc.csv"
    path.write_text("B,cscc,secc_uniform,secc,ccc\n0.3,0.49,0.52,0.53,0.531\n"
                    "0.4,0.49,0.50,0.531000002,0.531\n")
    assert workloads.invariant_checks(path) == [True, True, True, True, True, False]


def test_invariants_allow_for_the_printed_digits_only(tmp_path):
    # cscc - secc is 9.99982e-10 in the program and reads as 1.000000000e-9
    # once both are printed with 12 significant digits
    path = tmp_path / "secc.csv"
    path.write_text("p0,cscc,secc_uniform,secc,ccc\n"
                    "0.422,0.016461162138,0.015089731686,0.016461161138,0.0168824954458\n"
                    "0.422,0.016461162139,0.015089731686,0.016461161138,0.0168824954458\n")
    assert workloads.invariant_checks(path) == [True, True, True, False, True, True]


def test_default_seed_keeps_grids_and_other_seeds_jitter_inside_a_step():
    assert workloads.Grids(workloads.DEFAULT_SEED)("0:1:0.1") == "0:1:0.1"
    values = [float(v) for v in workloads.Grids(7)("0:1:0.1").split(",")]
    assert len(values) == 11 and values[0] == 0.0 and values[-1] == 1.0
    assert all(abs(v - k * 0.1) < 0.1 for k, v in enumerate(values))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert workloads.Grids(7)("0:1:0.1") == workloads.Grids(7)("0:1:0.1")
    assert workloads.Grids(7)("0:1:0.1") != workloads.Grids(8)("0:1:0.1")


def test_install_traces_names_imported_into_other_modules():
    sys.path.insert(0, str(SRC))
    from subblock.channel import Channel
    import subblock.secc
    tracer = tracing.Tracer()
    tracing.install(tracer)
    subblock.secc.secc_capacity(Channel.bsc(0.1), 2, 0.5)
    names = [s.name for s in tracer.spans]
    assert "secc.secc_capacity" in names
    # secc imported blahut_arimoto by name; its calls nest under secc_capacity
    ba = [s for s in tracer.spans if s.name == "capacity.ba"]
    assert ba and all(tracer.spans[s.parent].name == "secc.secc_capacity" for s in ba)
    metrics = tracer.layer_metrics()
    assert metrics["secc.secc_capacity.calls"] == 1
    assert metrics["capacity.ba.iterations"] >= 1


def test_exploration_stops_on_its_budget_without_failing():
    steps = ladder.Ladder("cscc")
    run_rung, calls = fake_rungs({})
    ladder.walk(steps, ladder.reference_lengths("cscc"), run_rung)
    ladder.walk(steps, ladder.explore_lengths("cscc"), run_rung, limit_s=1.0,
                deadline=time.monotonic() + 0.5)
    assert calls == ladder.reference_lengths("cscc")
    assert steps.stop.status == "budget"
    assert steps.max_length == ladder.REFERENCE_L["cscc"]
    assert ladder.checks(steps)[1] == 0


def test_calibration_rescales_by_the_mean_speed_of_the_samples():
    ref = calibrate.REFERENCE_S
    assert calibrate.at_reference_speed(10.0, [2 * ref] * 3) == pytest.approx(5.0)
    # half the time at reference speed and half at half of it
    assert calibrate.at_reference_speed(10.0, [ref, 2 * ref]) == pytest.approx(7.5)
