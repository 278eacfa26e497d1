"""Tests of the benchmark itself: its declared metrics, checks and spans."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from checks import (  # noqa: E402
    check_newton_cotes_text,
    check_rule_text,
    check_verify_output,
    check_weights_output,
)
from probes import PROBE_LAYERS, PROBE_SIZES, probe_name  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
D5_RULE = (BENCH_DIR / "corpus" / "tri_d5_s9.txt").read_text()


def test_metric_names_follow_the_naming_rule():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
            if group == "end_to_end":
                assert set(metric) == {"name", "unit", "better", "bound"}
                assert 0 < metric["bound"] <= 0.25, metric
            else:
                assert set(metric) == {"name", "unit", "better"}
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_runner_reports_exactly_the_declared_metrics():
    measured = run.Measured(passes=[{1: (0.0, 2.0)}], rounds=[(0.0, 1.0, 0.004, [0.001, 0.003])])
    end_to_end = run.end_to_end_metrics(measured, run.Tally(attempted=2), [(0.0, 0.4)])
    result = json.loads(run.result_line(run.Tally(attempted=2), end_to_end, SPEC["end_to_end"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    probes = {probe_name(d, big_d, layer): 1.0
              for d, big_d in PROBE_SIZES for layer in PROBE_LAYERS}
    per_layer = run.per_layer_metrics(Tracer(), measured, probes, [])
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    with pytest.raises(RuntimeError, match="differ from BENCHMARK.json"):
        run.result_line(run.Tally(attempted=1), per_layer, SPEC["end_to_end"])


def _bound(name):
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == name)


def _verify_registry_tally(rounds, extra_failing=()):
    """The ops of a verify-registry run: nc_d10 fails in every round."""
    tally = run.Tally()
    for _ in range(rounds):
        for d in range(1, 11):
            tally.record(f"weights nc_d{d}", ["OracleDisagreementError"] if d == 10 else [])
        for k in range(16):
            op = f"verify rule{k}"
            tally.record(op, ["exit 1"] if op in extra_failing else [])
    return tally


def test_one_more_failing_op_breaches_the_success_bound():
    bound = _bound("success_frac")
    base = _verify_registry_tally(100).success_frac()
    assert base == pytest.approx(25 / 26)
    assert _verify_registry_tally(60).success_frac() == base  # run length does not move it
    worse = _verify_registry_tally(100, extra_failing={"verify rule3"}).success_frac()
    assert (base - worse) / base > bound

    table = run.Tally()  # table-low: 3 passes of 5 rows, 300 verify ops each
    for _ in range(3):
        for d in range(1, 6):
            table.record(f"generate d={d}", [])
        for k in range(300):
            table.record(f"verify tri_d{k % 5 + 1}", [])
    assert table.success_frac() == 1.0
    table.record("generate d=5", ["exit 1"])  # a row that fails in one pass only
    assert 1.0 - table.success_frac() > bound


def test_run_length_is_fixed_by_seconds_not_by_the_clock(tmp_path):
    assert run.registry_rounds(20) == 120
    assert [run.table_passes(w, 20) for w in ("table-low", "table-d6")] == [3, 2]
    assert run.table_passes("table-d6", 1) == run.MIN_TABLE_PASSES
    counts = []
    for seed in (0, 1):
        tally = run.Tally()
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        measured = run.run_registry(seed, 0.3, work, tally)
        assert len(measured.rounds) == run.registry_rounds(0.3) == 2
        counts.append((tally.attempted, tally.failed, sorted(tally.failed_ops)))
    assert counts[0] == counts[1]


def test_timings_are_scaled_by_the_host_speed_while_they_ran():
    measured = run.Measured(
        passes=[{1: (0.0, 2.0), 5: (2.0, 1.0)}, {1: (10.0, 4.0), 5: (14.0, 2.0)}],
        rounds=[(3.0, 3.1, 0.01, [0.004, 0.005]), (20.0, 20.1, 0.02, [0.02])],
    )

    def scale(t0, t1):  # the host ran at half speed until t = 10
        return 2.0 if t1 <= 10.0 else 1.0

    assert measured.verify() == (3, 0.03, [0.004, 0.005, 0.02])
    assert measured.verify(scale) == (3, 0.04, [0.008, 0.01, 0.02])
    raw = run.end_to_end_metrics(measured, run.Tally(attempted=3), [(0.0, 0.4), (30.0, 0.3)])
    scaled = run.end_to_end_metrics(measured, run.Tally(attempted=3),
                                    [(0.0, 0.4), (30.0, 0.3)], scale)
    assert (raw["generate_s"], scaled["generate_s"]) == (4.5, 6.0)
    assert (raw["setup_s"], scaled["setup_s"]) == (0.35, 0.55)


def test_host_speed_sampler_runs_and_stops():
    import os

    speed = run.HostSpeed(dict(os.environ))
    with speed:
        t0 = run.time.perf_counter()
        run.time.sleep(0.5)
        t1 = run.time.perf_counter()
        drained_while_running = len(speed.kernel)
    assert drained_while_running >= 2  # read as written, so the pipe never fills
    assert speed._proc.poll() is not None
    assert len(speed.kernel) >= 2
    assert 0.0 < speed.scale(t0, t1) < 1e3
    assert speed.scale(t1 + 100.0, t1 + 101.0) == speed.scale(t1 + 200.0, t1 + 200.0)


def _flip_first_weight(text: str) -> str:
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    b1, b2, w = lines[i].split()
    lines[i] = f"{b1} {b2} {-float(w): .17e}"
    return "\n".join(lines) + "\n"


def test_rule_check_accepts_the_corpus_rule():
    assert check_rule_text(D5_RULE, 5, 9) == []


def test_rule_check_flags_a_flipped_weight_sign():
    assert check_rule_text(_flip_first_weight(D5_RULE), 5, 9)


def test_rule_check_flags_a_lowered_header_strength():
    lowered = D5_RULE.replace("# strength = 9", "# strength = 7")
    assert lowered != D5_RULE
    assert check_rule_text(lowered, 5, 9)


def test_rule_check_flags_a_row_below_its_table_strength():
    assert check_rule_text(D5_RULE, 5, 10)


def test_verify_op_checks_flag_wrong_outputs():
    weights = run.parse_rule(D5_RULE).weights
    assert check_weights_output(D5_RULE, weights) == []
    flipped = weights.copy()
    flipped[0] = -flipped[0]
    assert check_weights_output(D5_RULE, flipped)
    assert check_verify_output('{"strength": 9}\n', 9) == []
    assert check_verify_output('{"strength": 8}\n', 9)
    assert check_verify_output("", 9)


def test_newton_cotes_check_flags_a_perturbed_weight():
    assert check_newton_cotes_text(D5_RULE, 5) == []
    assert check_newton_cotes_text(D5_RULE, 4)  # 21 points is not dim P_4
    lines = D5_RULE.splitlines()
    i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    j = i + 1
    b1, b2, w = lines[i].split()
    c1, c2, v = lines[j].split()
    shift = 1e-6  # keeps the weight sum, breaks exactness
    lines[i] = f"{b1} {b2} {float(w) + shift: .17e}"
    lines[j] = f"{c1} {c2} {float(v) - shift: .17e}"
    assert check_newton_cotes_text("\n".join(lines) + "\n", 5)


def test_self_times_sum_to_the_traced_wall_time():
    tracer = Tracer()

    def leaf(x, derivatives=False):
        return sum(range(2000)) + x

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x, derivatives=True)

    wrapped_leaf = tracer.wrap(leaf, "basis.vandermonde")
    wrapped_middle = tracer.wrap(middle, "rule.certify")
    wrapped_middle(1)  # no root span open: not recorded
    assert not tracer.calls
    for _ in range(3):
        with tracer.span("cli.main"):
            wrapped_middle(1)
    assert tracer.calls == {"cli.main": 3, "rule.certify": 3,
                            "basis.vandermonde": 3, "basis.vandermonde_deriv": 3}
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.wall(), rel=1e-9)
    assert tracer.total["rule.certify"] >= tracer.total["basis.vandermonde"]


def test_installed_wrappers_are_removed_afterwards():
    import triquad.rule

    original = triquad.rule.vandermonde
    with Tracer().installed():
        assert triquad.rule.vandermonde is not original
        assert triquad.rule.vandermonde.__wrapped__ is original
    assert triquad.rule.vandermonde is original


def test_shuffled_records_keep_their_weights():
    entry = run.Entry.from_text("d5", 5, 9, D5_RULE)
    text, weights = entry.shuffled(run.random.Random(3))
    assert text != D5_RULE
    assert np.array_equal(run.parse_rule(text).weights, weights)
