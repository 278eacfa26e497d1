import numpy as np
import pytest

from triquad.optimizer import OptimizerConfig, optimize
from triquad.rule import QuadratureRule, certify
from triquad.ruleio import (
    Registry,
    RuleParseError,
    emit_rule,
    parse_points_xyw,
    parse_rule,
)

MIDPOINT_FILE = """\
0.5 0.5 0.33333333333333333
0.5 0.0 0.33333333333333333
0.0 0.5 0.33333333333333334
"""


def midpoint_rule():
    return QuadratureRule(
        cardinal_degree=1,
        points=np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]]),
        weights=np.full(3, 2.0 / 3.0),
    )


def test_parse_midpoint_rule():
    rule = parse_rule(MIDPOINT_FILE)
    assert rule.n_points == 3
    assert rule.cardinal_degree == 1  # inferred from N = 3
    assert rule.weights == pytest.approx([2.0 / 3.0] * 3, abs=1e-15)
    report = certify(rule)
    assert report.strength == 2


def test_parse_single_centroid_line():
    rule = parse_rule("0.33333333333333333 0.33333333333333333 1.0\n")
    assert rule.n_points == 1
    assert rule.weights == pytest.approx([2.0], abs=1e-15)
    assert rule.points[0] == pytest.approx([-1.0 / 3.0, -1.0 / 3.0], abs=1e-15)


def test_parse_reports_malformed_line_number():
    text = "0.5 0.5 0.6\n0.5 0.0\n"
    with pytest.raises(RuleParseError, match="line 2"):
        parse_rule(text)


def test_parse_rejects_bad_weight_sum():
    text = "0.3 0.3 0.5\n0.2 0.2 0.6\n"
    with pytest.raises(RuleParseError, match="sum"):
        parse_rule(text)


def test_parse_warns_on_exterior_points():
    text = "1.1 -0.05 0.5\n0.2 0.2 0.5\n"
    with pytest.warns(UserWarning, match="outside"):
        rule = parse_rule(text)
    assert rule.n_points == 2


def test_parse_reads_header_claims():
    text = "# d = 1\n# strength = 2\n" + MIDPOINT_FILE
    rule = parse_rule(text)
    assert rule.metadata["header_strength"] == "2"
    assert rule.cardinal_degree == 1


def test_round_trip_midpoint_rule():
    rule = midpoint_rule()
    back = parse_rule(emit_rule(rule))
    assert np.max(np.abs(back.points - rule.points)) <= 1e-15
    assert np.max(np.abs(back.weights - rule.weights)) <= 1e-15


def test_emitted_weights_sum_to_one():
    text = emit_rule(midpoint_rule())
    weights = [float(line.split()[2]) for line in text.splitlines()
               if line and not line.startswith("#")]
    assert abs(sum(weights) - 1.0) <= 1e-14


def test_round_trip_preserves_certification():
    result = optimize(1, OptimizerConfig(target_e=1, seed=2, restarts=5))
    rule = result.rule
    recovered = parse_rule(emit_rule(rule))
    before = certify(rule)
    after = certify(recovered)
    assert before.strength == after.strength
    assert np.max(np.abs(recovered.points - rule.points)) <= 1e-15
    assert np.max(np.abs(recovered.weights - rule.weights)) <= 1e-15


def test_emit_is_deterministic():
    rule = midpoint_rule()
    assert emit_rule(rule) == emit_rule(rule)


# --------------------------------------------------------------- adapter


def test_xyw_adapter_with_explicit_scale():
    # unit-triangle convention: weights sum to the area 1/2, so scale by 4
    text = (
        "0.5 0.5 0.16666666666666667\n"
        "0.5 0.0 0.16666666666666667\n"
        "0.0 0.5 0.16666666666666667\n"
    )
    rule = parse_points_xyw(text, weight_scale=4.0)
    assert rule.weights == pytest.approx([2.0 / 3.0] * 3, rel=1e-14)
    assert certify(rule).strength == 2


def test_xyw_adapter_infers_scale():
    text = "0.5 0.5 3.0\n0.5 0.0 3.0\n0.0 0.5 3.0\n"
    rule = parse_points_xyw(text)
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert certify(rule).strength == 2


def test_xyw_adapter_rejects_garbage():
    with pytest.raises(RuleParseError, match="line 1"):
        parse_points_xyw("0.5 0.5\n")


# --------------------------------------------------------------- registry


def test_registry_save_load_and_table(tmp_path):
    result = optimize(1, OptimizerConfig(target_e=1, seed=4, restarts=5))
    registry = Registry(tmp_path / "reg")
    path = registry.save(result.rule)
    assert path.name == "tri_d1_s2.txt"
    assert (tmp_path / "reg" / "index.txt").exists()

    loaded = registry.load(path.name)
    assert np.max(np.abs(loaded.points - result.rule.points)) <= 1e-15

    rows = registry.table_rows()
    assert len(rows) == 1
    assert (rows[0]["d"], rows[0]["n_points"], rows[0]["strength"]) == (1, 3, 2)


def test_registry_detects_tampering(tmp_path):
    result = optimize(1, OptimizerConfig(target_e=1, seed=4, restarts=5))
    registry = Registry(tmp_path / "reg")
    path = registry.save(result.rule)
    text = path.read_text()
    path.write_text(text.replace("2.", "3.", 1))
    with pytest.raises(RuleParseError, match="digest"):
        registry.load(path.name)


def test_registry_refuses_a_file_missing_from_the_index(tmp_path):
    result = optimize(1, OptimizerConfig(target_e=1, seed=4, restarts=5))
    registry = Registry(tmp_path / "reg")
    path = registry.save(result.rule)
    (tmp_path / "reg" / "tri_d9_s99.txt").write_bytes(path.read_bytes())
    with pytest.raises(RuleParseError, match="tri_d9_s99.txt"):
        registry.load("tri_d9_s99.txt")
    with pytest.raises(RuleParseError, match="tri_d9_s99.txt"):
        registry.table_rows()


def test_registry_empty_dir(tmp_path):
    registry = Registry(tmp_path / "nothing")
    assert registry.names() == []
    assert registry.table_rows() == []
