"""Output checks for the benchmark's operations.

Each check returns a list of problems, empty when the output is right, so
the runner can count and name every failure and carry on.
"""

from __future__ import annotations

import json

import numpy as np

from triquad.basis import dim_poly
from triquad.domain import monomial_integral, ref_to_bary, ref_to_unit
from triquad.rule import CERTIFY_TOL, OracleDisagreementError, certify
from triquad.ruleio import RuleParseError, parse_rule

#: Newton-Cotes monomial residuals may reach this share of sum|w|.
NC_EXACTNESS = 1e-12

#: Recomputed weights may differ from stored ones by this share of sum|w|.
#: Re-solving on points read back from 17-digit text moves them by about
#: condition * eps; the largest corpus rule (d = 10) has condition 4e6.
WEIGHT_AGREEMENT = 1e-8


def check_rule_text(text: str, d: int, strength: int) -> list[str]:
    """A generated rule file for table row d with table strength `strength`.

    The file must re-parse, certify to at least `strength` with positive
    weights, strictly interior points and max error within CERTIFY_TOL,
    and its header must claim exactly the certified strength.
    """
    try:
        rule = parse_rule(text)
    except RuleParseError as exc:
        return [f"does not re-parse: {exc}"]
    problems = []
    if rule.cardinal_degree != d:
        problems.append(f"cardinal degree {rule.cardinal_degree}, expected {d}")
    try:
        report = certify(rule)
    except OracleDisagreementError as exc:
        return problems + [f"certify raised OracleDisagreementError: {exc}"]
    if report.strength < strength:
        problems.append(f"certifies strength {report.strength} < {strength}")
    claimed = rule.metadata.get("header_strength")
    if claimed != str(report.strength):
        problems.append(
            f"header claims strength {claimed}, certifies {report.strength}"
        )
    if not report.positive_weights:
        problems.append("a weight is not positive")
    if not np.all(ref_to_bary(rule.points) > 0.0):
        problems.append("a point is not strictly interior")
    if not report.max_error <= CERTIFY_TOL:
        problems.append(f"max error {report.max_error:.3e} > {CERTIFY_TOL:g}")
    return problems


def check_newton_cotes_text(text: str, d: int) -> list[str]:
    """`weights` output for dim P_d points: parses and integrates P_d exactly.

    Exactness is judged by the monomial oracle, independent of the basis
    the weights were solved in.
    """
    try:
        rule = parse_rule(text)
    except RuleParseError as exc:
        return [f"does not parse: {exc}"]
    if rule.n_points != dim_poly(d):
        return [f"{rule.n_points} points, expected dim P_{d} = {dim_poly(d)}"]
    xy = ref_to_unit(rule.points)
    w_unit = rule.weights / 4.0  # reference area 2 -> unit area 1/2
    worst = max(
        abs(float(w_unit @ (xy[:, 0] ** a * xy[:, 1] ** (t - a))) - monomial_integral(a, t - a))
        for t in range(d + 1)
        for a in range(t + 1)
    )
    limit = NC_EXACTNESS * max(1.0, float(np.abs(rule.weights).sum()))
    if not worst <= limit:
        return [f"monomial residual {worst:.3e} > {limit:.3e} on P_{d}"]
    return []


def check_verify_output(stdout: str, min_strength: int) -> list[str]:
    """`verify --json` output: a report certifying at least `min_strength`."""
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
        strength = int(report["strength"])
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable verify report ({type(exc).__name__}: {exc})"]
    if strength < min_strength:
        return [f"verify certifies strength {strength} < {min_strength}"]
    return []


def check_weights_output(stdout: str, stored_weights: np.ndarray) -> list[str]:
    """`weights` output: a rule whose weights match the stored ones, in order."""
    try:
        weights = parse_rule(stdout).weights
    except RuleParseError as exc:
        return [f"weights output does not parse: {exc}"]
    if weights.shape != stored_weights.shape:
        return [f"{weights.size} weights, expected {stored_weights.size}"]
    deviation = float(np.max(np.abs(weights - stored_weights)))
    limit = WEIGHT_AGREEMENT * float(np.abs(stored_weights).sum())
    if not deviation <= limit:
        return [f"recomputed weights deviate by {deviation:.3e} > {limit:.3e}"]
    return []
