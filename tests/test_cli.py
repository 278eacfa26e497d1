import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triquad.rule
from triquad.cli import main

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "perfbench" / "corpus"
REPORT_FIELDS = {
    "strength",
    "max_error",
    "positive_weights",
    "all_interior",
    "symmetry",
    "n_points",
    "d",
}

MIDPOINT_FILE = """\
# d = 1
# strength = 2
0.5 0.5 0.33333333333333333
0.5 0.0 0.33333333333333333
0.0 0.5 0.33333333333333334
"""


@pytest.fixture
def midpoint_path(tmp_path):
    path = tmp_path / "midpoint.txt"
    path.write_text(MIDPOINT_FILE)
    return path


def test_bound_output(capsys):
    assert main(["bound", "--d", "5"]) == 0
    assert capsys.readouterr().out.strip() == "N=21 3N=63 max_degree=9"


def test_bound_d1(capsys):
    assert main(["bound", "--d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "N=3 3N=9 max_degree=2"


def test_verify_midpoint_rule(capsys, midpoint_path):
    assert main(["verify", str(midpoint_path)]) == 0
    out = capsys.readouterr().out
    assert "strength=2" in out


def test_verify_json_fields(capsys, midpoint_path):
    assert main(["verify", str(midpoint_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == REPORT_FIELDS
    assert report["strength"] == 2
    assert report["n_points"] == 3


def test_verify_fails_inflated_claim(tmp_path, capsys):
    path = tmp_path / "inflated.txt"
    path.write_text(MIDPOINT_FILE.replace("strength = 2", "strength = 4"))
    assert main(["verify", str(path)]) == 1
    assert "falls short" in capsys.readouterr().err


def test_verify_truncated_file_fails(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("0.5 0.5 0.5\n0.5 0.0\n")
    assert main(["verify", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record,line",
    [("0.0 0.5 nan", 5), ("0.0 inf 0.33333333333333334", 5)],
    ids=["nan_weight", "inf_coordinate"],
)
def test_verify_refuses_non_finite_records(tmp_path, capsys, record, line):
    # a NaN weight used to certify strength 60 and pass any header claim
    text = MIDPOINT_FILE.replace("strength = 2", "strength = 60")
    text = text.replace("0.0 0.5 0.33333333333333334", record)
    path = tmp_path / "non_finite.txt"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert f"line {line}: non-finite" in capsys.readouterr().err


def test_verify_reports_oracle_disagreement_in_one_line(monkeypatch, capsys, midpoint_path):
    original = triquad.rule.vandermonde

    def scaled_constant(spec, points, derivatives=False):
        ev = original(spec, points, derivatives)
        ev.values[:, 0] *= 2.0
        return ev

    monkeypatch.setattr(triquad.rule, "vandermonde", scaled_constant)
    assert main(["verify", str(midpoint_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: basis residuals certify strength")


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
def test_verify_refuses_a_bad_tolerance(capsys, midpoint_path, tolerance):
    # nan used to report an oracle disagreement, -1 to certify strength -1
    assert main(["verify", str(midpoint_path), "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: tolerance must be finite and positive")


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-4"])
def test_verify_refuses_a_bad_weight_scale(capsys, midpoint_path, scale):
    argv = ["verify", str(midpoint_path), "--input-format", "xyw", "--weight-scale", scale]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: weight_scale must be finite and positive, got {float(scale)!r}"
    ]


@pytest.mark.parametrize("command", [["verify"], ["weights", "--d", "1"],
                                     ["plot", "--out"], ["convert", "--to", "unit"]])
def test_weight_scale_is_refused_for_a_rule_file(capsys, tmp_path, midpoint_path, command):
    # a rule file carries its own weights: a scale is refused, not dropped
    if command[0] == "plot":
        command = [*command, str(tmp_path / "rule.svg")]
    argv = [command[0], str(midpoint_path), *command[1:], "--weight-scale", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --weight-scale applies only with --input-format xyw"
    ]


@pytest.mark.parametrize(
    "options,field",
    [
        (["--restarts", "0"], "restarts"),
        (["--restarts", "-2"], "restarts"),
        (["--restarts", "1", "--seed", "-1"], "seed"),
    ],
    ids=["restarts_zero", "restarts_negative", "seed_negative"],
)
def test_generate_refuses_invalid_search_settings(capsys, options, field):
    assert main(["generate", "--d", "1", "--e", "1"] + options) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {field} must be")


def test_generate_has_no_tolerance_option(capsys):
    # the search converges at optimizer.RESIDUAL_TOLERANCE, not a setting
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--d", "1", "--e", "1", "--tolerance", "1e-14"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-14" in capsys.readouterr().err


def test_generate_reports_an_unconverged_search(capsys):
    assert main(["generate", "--d", "3", "--e", "3", "--restarts", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(
        r"unconverged: best residual \S+ after 2 restarts \(certified strength \d+\)",
        lines[0],
    )


def test_generate_prints_the_bound_warning_as_one_line(capsys):
    assert main(["generate", "--d", "1", "--e", "5", "--restarts", "1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0] == (
        "warning: target degree 6 exceeds the degrees-of-freedom bound 2; "
        "the counting argument makes it infeasible"
    )
    assert re.fullmatch(
        r"unconverged: best residual \S+ after 1 restarts \(certified strength \d+\)",
        lines[1],
    )


def test_verify_prints_the_exterior_point_warning_as_one_line(tmp_path, capsys):
    path = tmp_path / "exterior.txt"
    path.write_text("1.1 -0.05 0.5\n0.2 0.2 0.5\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 point(s) outside the triangle (records [1])"
    ]


def test_verify_missing_file_fails(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_generate_writes_file_and_registers(tmp_path, capsys):
    out = tmp_path / "rule.txt"
    reg = tmp_path / "registry"
    code = main(
        [
            "generate", "--d", "1", "--e", "1", "--seed", "7",
            "--restarts", "6", "--out", str(out), "--register", str(reg),
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strength"] >= 2
    assert out.exists()
    assert (reg / "tri_d1_s2.txt").exists()
    assert (reg / "index.txt").exists()

    # verifying what generate wrote must succeed
    assert main(["verify", str(out)]) == 0


def test_generate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code = main(
            [
                "generate", "--d", "2", "--e", "2", "--seed", "9",
                "--restarts", "6", "--out", str(path),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_weights_command(capsys, midpoint_path):
    assert main(["weights", str(midpoint_path), "--d", "1"]) == 0
    out = capsys.readouterr().out
    records = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(records) == 3
    for line in records:
        assert float(line.split()[2]) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_table_lists_registry(tmp_path, capsys):
    reg = tmp_path / "registry"
    main(
        [
            "generate", "--d", "1", "--e", "1", "--seed", "7",
            "--restarts", "6", "--out", str(tmp_path / "r.txt"),
            "--register", str(reg),
        ]
    )
    capsys.readouterr()
    assert main(["table", "--registry", str(reg), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert (rows[0]["d"], rows[0]["n_points"], rows[0]["strength"]) == (1, 3, 2)


def test_table_refuses_an_unindexed_rule_file(tmp_path, capsys):
    reg = tmp_path / "registry"
    main(
        [
            "generate", "--d", "1", "--e", "1", "--seed", "7",
            "--restarts", "6", "--out", str(tmp_path / "r.txt"),
            "--register", str(reg),
        ]
    )
    (reg / "tri_d9_s99.txt").write_bytes((reg / "tri_d1_s2.txt").read_bytes())
    capsys.readouterr()
    assert main(["table", "--registry", str(reg)]) == 2
    assert "tri_d9_s99.txt" in capsys.readouterr().err


def test_plot_is_deterministic(tmp_path, midpoint_path):
    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    assert main(["plot", str(midpoint_path), "--out", str(svg1)]) == 0
    assert main(["plot", str(midpoint_path), "--out", str(svg2)]) == 0
    data = svg1.read_bytes()
    assert data == svg2.read_bytes()
    text = data.decode()
    assert text.count("<circle") == 3
    assert "<svg" in text and "</svg>" in text


def test_plot_centroid_circle_at_center(tmp_path):
    path = tmp_path / "centroid.txt"
    path.write_text("0.33333333333333333 0.33333333333333333 1.0\n")
    svg = tmp_path / "c.svg"
    assert main(["plot", str(path), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 1
    # the lone circle sits at the centroid of the drawn triangle
    circle = [l for l in text.splitlines() if "<circle" in l][0]
    cx = float(circle.split('cx="')[1].split('"')[0])
    cy = float(circle.split('cy="')[1].split('"')[0])
    path = [l for l in text.splitlines() if "<path" in l][0]
    nums = path.split('d="')[1].split('"')[0]
    coords = [float(t) for t in nums.replace("M", " ").replace("L", " ")
              .replace("Z", " ").split()]
    xs, ys = coords[0::2], coords[1::2]
    assert cx == pytest.approx(sum(xs) / 3.0, abs=0.5)
    assert cy == pytest.approx(sum(ys) / 3.0, abs=0.5)


def test_convert_reference(capsys, midpoint_path):
    assert main(["convert", str(midpoint_path), "--to", "reference"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    total = sum(float(l.split()[2]) for l in lines)
    assert total == pytest.approx(2.0, abs=1e-14)


def test_convert_unit(capsys, midpoint_path):
    assert main(["convert", str(midpoint_path), "--to", "unit"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    total = sum(float(l.split()[2]) for l in lines)
    assert total == pytest.approx(0.5, abs=1e-14)
    first = lines[0].split()
    assert float(first[0]) == pytest.approx(0.5, abs=1e-15)


def test_convert_xyw_adapter_with_scale(tmp_path, capsys):
    path = tmp_path / "foreign.txt"
    path.write_text(
        "0.5 0.5 0.16666666666666667\n"
        "0.5 0.0 0.16666666666666667\n"
        "0.0 0.5 0.16666666666666667\n"
    )
    code = main(
        [
            "convert", str(path), "--to", "barycentric",
            "--input-format", "xyw", "--weight-scale", "4.0",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    total = sum(float(l.split()[2]) for l in lines)
    assert total == pytest.approx(1.0, abs=1e-14)


def test_reused_parser_drops_the_previous_calls_flags(capsys, midpoint_path):
    assert main(["verify", str(midpoint_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["strength"] == 2
    assert main(["verify", str(midpoint_path)]) == 0
    assert capsys.readouterr().out.startswith("strength=2 max_error=")


def test_reused_parser_gives_each_call_its_own_options(capsys, midpoint_path):
    for path, d, n in [(midpoint_path, 1, 3), (CORPUS / "tri_d2_s4.txt", 2, 6)]:
        assert main(["weights", str(path), "--d", str(d)]) == 0
        out = capsys.readouterr().out
        assert f"# d = {d}\n" in out
        assert len([l for l in out.splitlines() if l and not l.startswith("#")]) == n


def test_parser_survives_an_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert "invalid choice" in capsys.readouterr().err
    assert main(["bound", "--d", "5"]) == 0
    assert capsys.readouterr().out.strip() == "N=21 3N=63 max_degree=9"


def test_main_builds_its_parser_once(monkeypatch, capsys, midpoint_path):
    main(["bound", "--d", "1"])
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["bound", "--d", "2"]) == 0
    assert main(["verify", str(midpoint_path), "--json"]) == 0
    assert main(["weights", str(midpoint_path), "--d", "1"]) == 0
    assert built == []


def _fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120, check=False,
    )


def test_module_entry_point_verifies_in_a_fresh_interpreter():
    proc = _fresh_python("-m", "triquad.cli", "verify", str(CORPUS / "tri_d1_s2.txt"), "--json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == REPORT_FIELDS
    assert (report["strength"], report["n_points"], report["d"]) == (2, 3, 1)


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "original = argparse.ArgumentParser.__init__\n"
        "def spy(self, *a, **k):\n"
        "    built.append(1)\n"
        "    original(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import triquad.cli\n"
        "print(len(built))\n"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
