from dataclasses import replace

import numpy as np
import pytest

from triquad.optimizer import optimize
from triquad.rule import QuadratureRule, certify
from triquad.ruleio import (
    Registry,
    RuleParseError,
    emit_rule,
    parse_points_xyw,
    parse_rule,
)
from triquad.svgplot import plot_rule

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


def header_keys(text):
    return [
        line[2:].split(" = ")[0]
        for line in text.splitlines()
        if line.startswith("# ") and " = " in line
    ]


def test_emitted_header_keys_keep_their_order():
    rule = replace(midpoint_rule(), metadata={"generator": "triquad", "seed": 7})
    keys = header_keys(emit_rule(replace(rule, certification=certify(rule))))
    assert keys == [
        "d",
        "n_points",
        "strength",
        "max_error",
        "symmetry",
        "positive_weights",
        "all_interior",
        "generator",
        "seed",
    ]


def test_an_uncertified_rule_emits_no_certification_lines():
    rule = replace(midpoint_rule(), metadata={"generator": "triquad", "seed": 7})
    assert header_keys(emit_rule(rule)) == ["d", "n_points", "generator", "seed"]


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


def test_parse_skips_blank_lines():
    spaced = "\n# d = 1\n\n" + MIDPOINT_FILE.replace("\n", "\n   \n", 1)
    rule, plain = parse_rule(spaced), parse_rule(MIDPOINT_FILE)
    assert np.array_equal(rule.points, plain.points)
    assert np.array_equal(rule.weights, plain.weights)


@pytest.mark.parametrize("parse", [parse_rule, parse_points_xyw])
def test_parsers_reject_an_unparseable_number_by_line(parse):
    with pytest.raises(RuleParseError, match="^line 2: unparseable number") as info:
        parse("0.5 0.5 0.5\n0.5 0.O 0.25\n0.0 0.5 0.25\n")
    assert info.value.line == 2


@pytest.mark.parametrize("parse", [parse_rule, parse_points_xyw])
def test_parsers_reject_a_text_without_records(parse):
    with pytest.raises(RuleParseError, match="^no point records found$") as info:
        parse("# d = 1\n\n# strength = 2\n")
    assert info.value.line is None


def test_xyw_adapter_refuses_to_infer_a_scale_from_a_zero_weight_sum():
    with pytest.raises(RuleParseError, match="weight sum is zero"):
        parse_points_xyw("0.5 0.5 1.0\n0.5 0.0 -1.0\n0.0 0.5 0.0\n")


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


def test_parse_refuses_a_non_integer_strength_claim():
    text = "# d = 1\n# strength = 3.5\n" + MIDPOINT_FILE
    with pytest.raises(RuleParseError, match=r"^header strength is not an integer: '3\.5'$"):
        parse_rule(text)


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
    result = optimize(1, target_e=1)
    rule = result.rule
    recovered = parse_rule(emit_rule(rule))
    before = certify(rule)
    after = certify(recovered)
    assert before.strength == after.strength
    assert np.max(np.abs(recovered.points - rule.points)) <= 1e-15
    assert np.max(np.abs(recovered.weights - rule.weights)) <= 1e-15
    # the file's claims come back as header metadata, not as a certification
    assert recovered.certification is None
    assert recovered.metadata["header_strength"] == str(rule.certification.strength)
    assert recovered.metadata["header_symmetry"] == rule.certification.symmetry


def test_plot_title_names_only_a_certified_strength():
    title = "<title>triangle quadrature rule: 3 points, d=1"
    certified = optimize(1, target_e=1).rule
    assert f"{title}, strength=2</title>" in plot_rule(certified)
    # a parsed file's strength claim is not certified, so the title omits it
    claimed = parse_rule("# d = 1\n# strength = 2\n" + MIDPOINT_FILE)
    assert f"{title}</title>" in plot_rule(claimed)


def test_plot_of_all_zero_weights_draws_each_point_at_the_least_radius():
    with pytest.warns(UserWarning, match="weights sum to 0.0"):
        rule = replace(midpoint_rule(), weights=np.zeros(3))
    svg = plot_rule(rule)
    assert svg.count('r="0.75" fill="#c03020"') == 3


def test_emit_is_deterministic():
    rule = midpoint_rule()
    assert emit_rule(rule) == emit_rule(rule)


def test_emitted_records_match_the_f_string_reference(monkeypatch):
    # every finite float64 exponent (random bit patterns), signed zeros,
    # subnormals and the extremes, written as record fields
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.5, 1.0 / 3.0]
    values = np.concatenate([bits[np.isfinite(bits)], special])
    if values.size % 2:
        values = np.append(values, 2.0)
    cols = values.reshape(-1, 2)
    n = cols.shape[0]
    rule = QuadratureRule(None, np.full((n, 2), -1.0 / 3.0), rng.dirichlet(np.ones(n)) * 2.0)
    monkeypatch.setattr("triquad.ruleio.ref_to_bary",
                        lambda pts: np.column_stack([cols, np.zeros(n)]))
    records = emit_rule(rule).splitlines()[-n:]
    w_file = rule.weights / 2.0
    assert records == [f"{b1: .17e} {b2: .17e} {w: .17e}"
                       for (b1, b2), w in zip(cols, w_file)]


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


@pytest.mark.parametrize("parse", [parse_rule, parse_points_xyw])
@pytest.mark.parametrize(
    "text,line",
    [
        ("0.5 0.5 0.5\n0.5 0.0 0.5\n0.0 0.5 nan\n", 3),
        ("0.5 0.5 0.5\ninf 0.0 0.25\n0.0 0.5 0.25\n", 2),
    ],
    ids=["nan_weight", "inf_coordinate"],
)
def test_parsers_reject_non_finite_fields(parse, text, line):
    with pytest.raises(RuleParseError, match=f"line {line}: non-finite") as info:
        parse(text)
    assert info.value.line == line


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -4.0])
def test_xyw_adapter_refuses_a_bad_weight_scale(scale):
    with pytest.raises(ValueError, match="weight_scale must be finite and positive"):
        parse_points_xyw(MIDPOINT_FILE, weight_scale=scale)


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_rule, "# d = 1\n0.5 0.25 0.5\n0.25 0.5 0.5\n"),
        (parse_rule, "0.5 0.25 0.5\n0.25 0.5 0.5\n"),
        (parse_points_xyw, "0.5 0.25 0.5\n0.25 0.5 0.5\n"),
    ],
    ids=["stale_header", "no_header", "xyw"],
)
def test_two_records_parse_as_a_non_cardinal_rule(parse, text):
    rule = parse(text)
    assert rule.cardinal_degree is None
    emitted = emit_rule(rule)
    assert not any(line.startswith("# d =") for line in emitted.splitlines())
    assert parse_rule(emitted).cardinal_degree is None


# --------------------------------------------------------------- registry


def test_registry_save_load_and_table(tmp_path):
    result = optimize(1, target_e=1)
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
    result = optimize(1, target_e=1)
    registry = Registry(tmp_path / "reg")
    path = registry.save(result.rule)
    text = path.read_text()
    path.write_text(text.replace("2.", "3.", 1))
    with pytest.raises(RuleParseError, match="digest"):
        registry.load(path.name)


def test_registry_refuses_a_file_missing_from_the_index(tmp_path):
    result = optimize(1, target_e=1)
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
