"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 2's required rows are the desk-scale cardinal degrees 1..5
(d=6..9, 12 and 13 are included as stretch rows since each runs in under
five seconds).  Set TRIQUAD_STRETCH to a comma-separated list of degrees
(e.g. "14") to also generate them with the default two starts; each must
certify at its table row and write its STRETCH_PINS bytes where it has a
pin, except the rows in UNREACHED_ROWS, which are reported, not required
(d = 10 fails after about 3 s).
"""

import contextlib
import hashlib
import io
import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from triquad.basis import BasisSpec, dim_poly, rounding_floor, vandermonde
from triquad.cli import main
from triquad.domain import gauss_quadrature, monomial_integral, points_inside, ref_to_unit
from triquad.optimizer import residual_jacobian
from triquad.rule import (
    CERTIFY_TOL,
    D3_SYMMETRIC,
    QuadratureRule,
    certify,
    classify_symmetry,
    dof_bound,
)
from triquad.ruleio import emit_rule, parse_rule
from triquad.weights import (
    WeightSolution,
    newton_cotes_weights,
    weight_jacobian,
)

# (d, N, strength, expected D3 flag) from the reference results table
TABLE_ROWS = {
    1: (3, 2, "sym"),
    2: (6, 4, "sym"),
    3: (10, 5, "sym"),
    4: (15, 7, "sym"),
    5: (21, 9, "sym"),
    6: (28, 11, "asym"),
    7: (36, 13, "asym"),
    8: (45, 14, "sym"),
    9: (55, 16, "asym"),
    10: (66, 18, "asym"),
    11: (78, 20, "asym"),
    12: (91, 21, "sym"),
    13: (105, 23, "sym"),
    14: (120, 25, "asym"),
}

REQUIRED_DEGREES = [1, 2, 3, 4, 5]
FAST_STRETCH_DEGREES = [6, 7, 8, 9, 12, 13]
# e chosen so d + e is the table strength (d=3, 4 sit below the dof bound)
TARGET_E = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 6, 9: 7, 12: 9, 13: 10}
# the SHA-256 of the file a requested stretch row writes (CI requests 14,
# at one and at two OpenBLAS threads)
STRETCH_PINS = {14: "035b80719b2ab74ae4feb45d77d4fb665bf82b7141e9d4ad6f4819dc3b40263c"}
# table rows that neither start reaches: restart 0 plateaus and node
# elimination fails at some level
UNREACHED_ROWS = {10, 11}

# what the fixture's `generate` runs write: the SHA-256 of the rule file, and
# the restarts --verbose reports with the steps of the last one.  The
# search follows every rounding of the evaluation, so a change that moves
# one bit of a tabulated value, weight or Jacobian shows here first
PINNED_RUNS = {
    1: ("ea978667d1d1b24a24897fdd3dd3f1b1a85ddec87a10a46fbf21f0337bdea8b8", 1, 6),
    2: ("0c2adede51cc811ceb9492e1523043f3ce7fd9f198a7d37a346376f102f3034c", 1, 9),
    3: ("e9c38b15d23ee18191b16550ccb70f8afe6faeb9cc3a3f9aa0c362e84097e4ea", 1, 7),
    4: ("bcd811fb316aadc9433783856fbfd0fbd2cb6d2fdaab55c960dec3cf3ef38293", 1, 6),
    5: ("c2f22a2f881d53566bc11d50d3459ab8ada87eec7e43d73798263e889cd42878", 1, 9),
    6: ("fee8dd634e26b8cffa88b62a9b6bd2350d1e8052274dad030ca276a1f19cd53a", 1, 63),
    7: ("b897d307b16207804cd07ec68d247a0b7bdb78299ce351c135ae19cd51b5b3e1", 2, 0),
    8: ("82c9b163c5ff9db435b19955dc342fcab60299b75b2d6bc371aa09513417cb54", 1, 8),
    9: ("f6258ee8c7371cc1dddd4510435761ec584c1e13ccc9fd9a4ac60bac782ee4b2", 1, 17),
    12: ("51b2976fc35a9e7e85d65da6ef8b723092dc839fa9b2a4a8eba722c7eaf9d26a", 2, 0),
    13: ("0a6510b66b6d35fef47cb65a56e5d649329b6bde38662c4b1ae9c80dcb6ba51c", 1, 114),
}


def _verdict(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")


def random_interior(rng, count):
    b = rng.dirichlet([2.0, 2.0, 2.0], size=count)
    return 2.0 * b[:, :2] - 1.0


@pytest.fixture(scope="module")
def generated_rules(tmp_path_factory):
    """Run `generate` once per desk/fast-stretch row; yield parsed rules,
    times, and each run's (file bytes, --verbose output)."""
    root = tmp_path_factory.mktemp("acceptance_rules")
    rules = {}
    elapsed = {}
    runs = {}
    for d in REQUIRED_DEGREES + FAST_STRETCH_DEGREES:
        out = root / f"d{d}.txt"
        log = io.StringIO()
        t0 = time.time()
        with contextlib.redirect_stdout(log):
            code = main(
                [
                    "generate",
                    "--d", str(d),
                    "--e", str(TARGET_E[d]),
                    "--seed", "0",
                    "--restarts", "12",
                    "--verbose",
                    "--out", str(out),
                ]
            )
        elapsed[d] = time.time() - t0
        assert code == 0, f"generate failed for d={d}"
        runs[d] = (out.read_bytes(), log.getvalue())
        rules[d] = parse_rule(runs[d][0].decode())
    return rules, elapsed, runs


def test_criterion_1_monomial_oracle_exactness():
    label = "criterion 1: Newton-Cotes weights integrate P_d monomials (d=1..6)"
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in range(1, 7):
        spec = BasisSpec(d)
        points = random_interior(rng, spec.dim)
        weights = newton_cotes_weights(spec, points).weights
        xy = ref_to_unit(points)
        w_unit = weights / 4.0
        for a in range(d + 1):
            for b in range(d + 1 - a):
                approx = float(w_unit @ (xy[:, 0] ** a * xy[:, 1] ** b))
                worst = max(worst, abs(approx - monomial_integral(a, b)))
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    _verdict(ok, label, f"worst error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 1.0


def _row_checks(rule) -> tuple[bool, str]:
    """Whether the parsed file `rule` meets its table row (N, strength,
    error <= 1e-12, positive weights, interior points) and its header states
    the file's own strength and max_error, and a line reporting it."""
    n_expect, strength_expect, _ = TABLE_ROWS[rule.cardinal_degree]
    report = certify(rule)
    header = (rule.metadata.get("header_strength"), rule.metadata.get("header_max_error"))
    good = (
        rule.n_points == n_expect
        and report.strength == strength_expect
        and report.max_error <= 1e-12
        and report.positive_weights
        and bool(np.all(points_inside(rule.points)))
        and header == (str(report.strength), f"{report.max_error:.3e}")  # as emit_rule writes
    )
    return good, (f"strength={report.strength}/{strength_expect} "
                  f"error={report.max_error:.2e} header_max_error={header[1]}")


def test_criterion_2_table_regeneration(generated_rules):
    label = "criterion 2: regenerate (d, N, strength) rows 1..5 as PI rules"
    rules, elapsed, _ = generated_rules
    failures = []
    for d in REQUIRED_DEGREES:
        good, detail = _row_checks(rules[d])
        if not good:
            failures.append(d)
        print(f"    d={d}: N={rules[d].n_points} {detail} generate_time={elapsed[d]:.1f}s")
    total_time = sum(elapsed[d] for d in REQUIRED_DEGREES)
    ok = not failures and total_time < 600.0
    _verdict(ok, label, f"total generate time {total_time:.1f}s")
    assert not failures, failures
    assert total_time < 600.0


def test_criterion_2_stretch_rows(generated_rules, tmp_path):
    label = "criterion 2 (stretch): higher table rows"
    rules, elapsed, _ = generated_rules
    attempted = list(FAST_STRETCH_DEGREES)
    extra = os.environ.get("TRIQUAD_STRETCH", "")
    stretch_requested = [int(tok) for tok in extra.split(",") if tok.strip()]
    failures = []
    for d in attempted:
        good, detail = _row_checks(rules[d])
        print(f"    d={d}: {detail} time={elapsed[d]:.1f}s")
        if not good:
            failures.append(d)
    for d in stretch_requested:
        out = tmp_path / f"d{d}.txt"
        t0 = time.time()
        code = main(
            [
                "generate", "--d", str(d), "--e",
                str(TABLE_ROWS[d][1] - d), "--out", str(out),
            ]
        )
        good, detail = _row_checks(parse_rule(out.read_text())) if code == 0 else (False, "")
        if code == 0 and d in STRETCH_PINS:
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            good = good and digest == STRETCH_PINS[d]
            detail += f" sha256={digest[:12]}"
        print(f"    d={d} (requested stretch): generate exit {code} {detail} "
              f"time={time.time() - t0:.1f}s")
        if not good and d not in UNREACHED_ROWS:
            failures.append(d)
    ok = not failures
    _verdict(ok, label, f"attempted {attempted + stretch_requested}")
    assert not failures, failures


def test_generate_writes_the_pinned_bytes(generated_rules):
    label = "pinned runs: generate d=1..9, 12 and 13 at seed 0 writes the pinned files"
    _, _, runs = generated_rules
    moved = []
    for d, pinned in PINNED_RUNS.items():
        text, log = runs[d]
        restarts = re.findall(r"^restart \d+: .* after (\d+) iterations", log, re.M)
        seen = (hashlib.sha256(text).hexdigest(), len(restarts), int(restarts[-1]))
        if seen != pinned:
            moved.append(f"d={d}: {seen} != {pinned}")
    versions = f"numpy {np.__version__}"
    ok = not moved
    _verdict(ok, label, versions)
    assert ok, f"generated runs moved under {versions}: " + "; ".join(moved)


def test_every_gate_keeps_its_constant_on_the_pinned_and_corpus_rules(generated_rules):
    # positive weights (sum|w| = 2): each rounding floor sits below its
    # gate's constant, so the floors loosen no gate for these rules
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
    rules = list(generated_rules[0].values()) + [
        parse_rule(path.read_text()) for path in sorted(corpus.glob("tri_*.txt"))
    ]
    for rule in rules:
        d, w = rule.cardinal_degree, rule.weights
        top = certify(rule).strength + 1  # certify's tabulation
        values = np.abs(vandermonde(BasisSpec(top), rule.points).values)
        assert rounding_floor(w, values.max(axis=1)) < CERTIFY_TOL, d
        assert rounding_floor(w / 4.0, 1.0) < CERTIFY_TOL, d
        # the weight solve's gate is its floor alone: below the constant
        # 1e-10 that gated it before, so it got no looser
        assert rounding_floor(w, values[:, : dim_poly(d)].max(axis=1)) < 1e-10, d
        assert rounding_floor(w, 1.0) < 1e-12, d


def test_criterion_3_dof_bound_table():
    label = "criterion 3: degrees-of-freedom bound vs table strengths"
    mismatches = []
    for d, (_, strength, _) in TABLE_ROWS.items():
        bound = dof_bound(d)
        if d in (3, 4):
            if bound != strength + 1:
                mismatches.append((d, bound, strength))
        elif bound != strength:
            mismatches.append((d, bound, strength))
    ok = not mismatches
    _verdict(ok, label, "exact integer agreement, +1 at d=3,4")
    assert not mismatches, mismatches


def test_criterion_4_jacobian_fidelity():
    label = "criterion 4: analytic Jacobians match finite differences"
    t0 = time.time()
    rng = np.random.default_rng(77)
    h = 1e-7
    worst = 0.0
    for trial in range(20):
        d = 1 + trial % 4
        e = min(2, dof_bound(d) - d)
        spec_d, spec_de = BasisSpec(d), BasisSpec(d + e)
        pts = random_interior(rng, spec_d.dim)
        jac_w = weight_jacobian(spec_d, pts)
        jac_r = residual_jacobian(spec_d, spec_de, pts)
        fd_w = np.zeros_like(jac_w)
        fd_r = np.zeros_like(jac_r)
        for j in range(spec_d.dim):
            for c in range(2):
                plus, minus = pts.copy(), pts.copy()
                plus[j, c] += h
                minus[j, c] -= h
                wp = newton_cotes_weights(spec_d, plus).weights
                wm = newton_cotes_weights(spec_d, minus).weights
                fd_w[:, 2 * j + c] = (wp - wm) / (2.0 * h)
                fd_r[:, 2 * j + c] = (
                    WeightSolution(spec_d, plus, spec_de).shell_residual
                    - WeightSolution(spec_d, minus, spec_de).shell_residual
                ) / (2.0 * h)
        for jac, fd in ((jac_w, fd_w), (jac_r, fd_r)):
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(jac - fd))) / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    _verdict(ok, label, f"worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 10.0


def test_criterion_5_basis_integrity():
    label = "criterion 5: Gram matrix at degree 10 equals 2*identity"
    t0 = time.time()
    spec, (pts, wts) = BasisSpec(10), gauss_quadrature(40)
    v = vandermonde(spec, pts).values
    gram = v.T @ (wts[:, None] * v)
    deviation = float(np.max(np.abs(gram - 2.0 * np.eye(spec.dim))))
    elapsed = time.time() - t0
    ok = deviation <= 1e-11 and elapsed < 5.0
    _verdict(ok, label, f"max deviation {deviation:.2e}, {elapsed:.2f}s")
    assert deviation <= 1e-11
    assert elapsed < 5.0


def test_criterion_6_symmetry_classification(generated_rules):
    label = "criterion 6: D3 classification of fixtures and regenerated rules"
    midpoint = QuadratureRule(
        1,
        np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]]),
        np.full(3, 2.0 / 3.0),
    )
    centroid = QuadratureRule(
        0, np.array([[-1.0 / 3.0, -1.0 / 3.0]]), np.array([2.0])
    )
    fixtures_ok = (
        classify_symmetry(midpoint) == D3_SYMMETRIC
        and classify_symmetry(centroid) == D3_SYMMETRIC
    )
    rules, _, _ = generated_rules
    for d, rule in rules.items():
        _, strength_expect, flag = TABLE_ROWS[d]
        report = certify(rule)
        if report.strength != strength_expect:
            continue
        observed = "asym" if report.symmetry != D3_SYMMETRIC else "sym"
        if observed != flag:
            # optimizer solutions are non-unique; log, do not fail
            print(
                f"    d={d}: classified {observed}, table says {flag} "
                "(logged, non-unique optimum)"
            )
    _verdict(fixtures_ok, label, "midpoint and centroid fixtures")
    assert fixtures_ok


def test_criterion_7_round_trip_and_determinism(generated_rules, tmp_path):
    label = "criterion 7: parse/emit round-trip and generate determinism"
    rules, _, _ = generated_rules
    worst = 0.0
    for rule in rules.values():
        back = parse_rule(emit_rule(rule))
        worst = max(
            worst,
            float(np.max(np.abs(back.points - rule.points))),
            float(np.max(np.abs(back.weights - rule.weights))),
        )
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code = main(
            [
                "generate", "--d", "2", "--e", "2", "--seed", "31",
                "--restarts", "8", "--out", str(path),
            ]
        )
        assert code == 0
    identical = a.read_bytes() == b.read_bytes()
    ok = worst <= 1e-15 and identical
    _verdict(ok, label, f"round-trip error {worst:.1e}, bytes identical: {identical}")
    assert worst <= 1e-15
    assert identical
