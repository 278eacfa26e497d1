import json

import pytest

from triquad.cli import main

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
    assert set(report) == {
        "strength",
        "max_error",
        "positive_weights",
        "all_interior",
        "symmetry",
        "n_points",
        "d",
    }
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
