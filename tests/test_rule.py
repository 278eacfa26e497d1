import dataclasses
import warnings
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import triquad.basis
import triquad.rule
from triquad.basis import BasisSpec, dim_poly, rounding_floor, vandermonde
from triquad.domain import bary_to_ref, gauss_quadrature, ref_to_bary
from triquad.rule import (
    ASYMMETRIC,
    CERTIFY_TOL,
    D3_SYMMETRIC,
    STRENGTH_CAP,
    SYMMETRY_TOL,
    OracleDisagreementError,
    QuadratureRule,
    _legendre_shell_errors,
    certify,
    classify_symmetry,
    dof_bound,
)
from triquad.ruleio import parse_rule
from triquad.weights import newton_cotes_weights

MIDPOINT_RULE = QuadratureRule(
    cardinal_degree=1,
    points=np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]]),
    weights=np.full(3, 2.0 / 3.0),
)

CENTROID_RULE = QuadratureRule(
    cardinal_degree=0,
    points=np.array([[-1.0 / 3.0, -1.0 / 3.0]]),
    weights=np.array([2.0]),
)


def test_certify_midpoint_rule():
    report = certify(MIDPOINT_RULE)
    assert report.strength == 2
    assert report.max_error <= 1e-15
    assert report.positive_weights and report.all_interior
    assert report.symmetry == D3_SYMMETRIC


def test_certify_centroid_rule():
    report = certify(CENTROID_RULE)
    assert report.strength == 1
    assert report.symmetry == D3_SYMMETRIC


def test_certify_reports_failing_shell():
    report = certify(MIDPOINT_RULE)
    assert 3 in report.per_degree_error
    assert report.per_degree_error[3] > 1e-12  # the first failing shell
    assert max(e for t, e in report.per_degree_error.items() if t <= 2) == (
        report.max_error
    )


def test_certify_cumulative_error_is_monotone():
    report = certify(MIDPOINT_RULE)
    degrees = sorted(report.per_degree_error)
    cumulative = np.maximum.accumulate(
        [report.per_degree_error[t] for t in degrees]
    )
    assert np.all(np.diff(cumulative) >= 0.0)


def test_certify_invariant_under_symmetry_transform():
    bary = np.column_stack(
        [
            (MIDPOINT_RULE.points[:, 0] + 1.0) / 2.0,
            (MIDPOINT_RULE.points[:, 1] + 1.0) / 2.0,
        ]
    )
    bary = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
    base = certify(MIDPOINT_RULE)
    for perm in [(1, 2, 0), (0, 2, 1), (2, 1, 0)]:
        rotated = QuadratureRule(
            cardinal_degree=1,
            points=bary_to_ref(bary[:, perm][:, :2]),
            weights=MIDPOINT_RULE.weights.copy(),
        )
        report = certify(rotated)
        assert report.strength == base.strength
        assert abs(report.max_error - base.max_error) <= 1e-13


def _walk_certify(rule):
    """Reference: one basis tabulation per degree, ascending to the first
    failing shell, then the Legendre-product walk; (strength, per-degree
    errors).  A shell fails beyond both CERTIFY_TOL and its rounding floor:
    of |w| over the degree-t tabulation's values, or of |w|/4 over 1 for
    the Legendre products."""
    per_degree = {}
    strength = -1
    for t in range(STRENGTH_CAP + 1):
        v = vandermonde(BasisSpec(t), rule.points).values
        approx = v[:, dim_poly(t - 1):].T @ rule.weights
        if t == 0:
            approx[0] -= 2.0
        per_degree[t] = float(np.max(np.abs(approx)))
        floor = rounding_floor(rule.weights, np.abs(v).max(axis=1))
        if per_degree[t] > max(CERTIFY_TOL, floor):
            break
        strength = t
    legendre_strength = -1
    for t, error in enumerate(_legendre_shell_errors(rule)):
        if error > max(CERTIFY_TOL, rounding_floor(rule.weights / 4.0, 1.0)):
            break
        legendre_strength = t
    if legendre_strength != strength:
        raise OracleDisagreementError(f"{strength} != {legendre_strength}")
    return strength, per_degree


def _init_collapsed_tensor(d):
    """Gauss-Legendre tensor nodes on the collapsed square, lower triangle."""
    nodes, _ = np.polynomial.legendre.leggauss(d + 1)
    pts = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            eta, xi2 = nodes[i], nodes[j]
            xi1 = (1.0 + eta) * (1.0 - xi2) / 2.0 - 1.0
            pts.append((xi1, xi2))
    return np.array(pts)


def _newton_cotes_rules():
    """Newton-Cotes rules with sum|w| <= 100 on collapsed Gauss nodes and on
    random interior points, d = 1..6, each also with point 0 moved."""
    rng = np.random.default_rng(11)
    rules = []
    for d in range(1, 7):
        spec = BasisSpec(d)
        gauss = _init_collapsed_tensor(d)
        sets = [(gauss, newton_cotes_weights(spec, gauss).weights)]
        while len(sets) < 3:
            uv = rng.random((spec.dim, 2))
            fold = uv.sum(axis=1) > 1.0
            uv[fold] = 1.0 - uv[fold]
            pts = bary_to_ref(uv)
            weights = newton_cotes_weights(spec, pts).weights
            if np.abs(weights).sum() <= 100.0:
                sets.append((pts, weights))
        for pts, weights in sets:
            for shift in (0.0, 1e-9, 1e-3):
                moved = pts.copy()
                moved[0, 0] += shift
                rules.append(QuadratureRule(None, moved, weights))
    return rules


NEWTON_COTES_RULES = _newton_cotes_rules()


def test_certify_tabulates_the_basis_once(monkeypatch):
    calls = []
    original = triquad.rule.vandermonde

    def counting(*args, **kwargs):
        calls.append(args[0].degree)
        return original(*args, **kwargs)

    monkeypatch.setattr(triquad.rule, "vandermonde", counting)
    for rule in [MIDPOINT_RULE, CENTROID_RULE] + NEWTON_COTES_RULES[::3]:
        calls.clear()
        report = certify(rule)
        assert calls == [report.strength + 1]


@pytest.mark.parametrize("rule", [MIDPOINT_RULE, CENTROID_RULE] + NEWTON_COTES_RULES)
def test_certify_matches_the_per_degree_walk(rule):
    strength, per_degree = _walk_certify(rule)
    report = certify(rule)
    assert report.strength == strength
    assert sorted(report.per_degree_error) == sorted(per_degree)
    floor = 4.0 * np.finfo(float).eps * np.abs(rule.weights).sum()
    for t, ref in per_degree.items():
        assert abs(report.per_degree_error[t] - ref) <= floor * max(1.0, abs(ref))


def _oracle_rules():
    """(rule, certified strength): corpus rules, Newton-Cotes rules d = 1..10
    on collapsed Gauss nodes (sum|w| up to ~1e4 at d = 10) and random rules
    with signed weights."""
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
    rules = [
        pytest.param(parse_rule(path.read_text()), int(path.stem.split("_s")[1]), id=path.stem)
        for path in sorted(corpus.glob("tri_*.txt"))
    ]
    for d in range(1, 11):
        pts = _init_collapsed_tensor(d)
        rule = QuadratureRule(d, pts, newton_cotes_weights(BasisSpec(d), pts).weights)
        rules.append(pytest.param(rule, d, id=f"newton_cotes_d{d}"))
    rng = np.random.default_rng(5)
    for n in (1, 4, 17, 40):
        uv = rng.random((n, 2))
        fold = uv.sum(axis=1) > 1.0
        uv[fold] = 1.0 - uv[fold]
        weights = rng.standard_normal(n)
        weights += (2.0 - weights.sum()) / n
        rule = QuadratureRule(None, bary_to_ref(uv), weights)
        rules.append(pytest.param(rule, 0, id=f"signed_n{n}"))
    return rules


def _strength_rules():
    """The oracle rules, Gauss rules up to the cap, and the midpoint rule
    slightly moved."""
    rules = _oracle_rules()
    # from degree 20 on, an inexact shell of unit-triangle monomials can read
    # below CERTIFY_TOL (3.7e-13 at n = 10); the Legendre products cannot
    for n in (2, 9, 10, 13, 20, 30, 31):
        rule = QuadratureRule(None, *gauss_quadrature(n))
        rules.append(pytest.param(rule, min(2 * n - 1, STRENGTH_CAP), id=f"gauss_n{n}"))
    # the degree-2 shell reads 1.9e-12 in the orthonormal basis and 8.7e-16
    # on the Legendre products: a near-tolerance split, not a defect
    bary = ref_to_bary(MIDPOINT_RULE.points)[:, :2]
    bary[0, 0] -= 2.5e-13
    rule = QuadratureRule(1, bary_to_ref(bary), MIDPOINT_RULE.weights)
    rules.append(pytest.param(rule, 1, id="midpoint_moved"))
    return rules


@pytest.mark.parametrize("rule,strength", _strength_rules())
def test_certify_gives_each_oracle_rule_its_strength(rule, strength):
    assert certify(rule).strength == strength


def _inline_shell_error(rule, degree):
    """Reference: the Legendre-product shell error formed from scratch for
    one shell, its exact integrals read off per product."""
    s = rule.points.T
    p = [np.ones_like(s), s]
    for t in range(2, degree + 1):
        p.append((2 - 1 / t) * s * p[t - 1] - (1 - 1 / t) * p[t - 2])
    exact = np.zeros(degree + 1)
    for a in range(degree + 1):
        c = degree - a
        if degree == 0:
            exact[a] = 0.5
        elif abs(a - c) == 1:
            k = min(a, c)
            exact[a] = (-1) ** (k + 1) / (2 * (2 * k + 1) * (2 * k + 3))
    # one matrix product per shell, as in the walk: per-product dots sum in
    # another order and move large signed-weight errors
    products = np.array([p[a][0] * p[degree - a][1] for a in range(degree + 1)])
    return float(np.abs(products @ (rule.weights / 4.0) - exact).max())


@pytest.mark.parametrize("rule,strength", _oracle_rules())
def test_monomial_walk_is_bitwise_the_per_shell_formula(rule, strength):
    # the shell walk of the Legendre-product oracle, in place of the monomials
    walk = _legendre_shell_errors(rule)
    for degree in range(STRENGTH_CAP + 1):
        assert next(walk).hex() == _inline_shell_error(rule, degree).hex(), degree


def test_legendre_walk_integrates_every_shell_of_a_strength_61_rule():
    errors = list(_legendre_shell_errors(QuadratureRule(None, *gauss_quadrature(31))))
    assert len(errors) == STRENGTH_CAP + 1
    assert max(errors) <= 1e-14


def test_a_perturbed_basis_recurrence_still_raises(monkeypatch):
    # the first P_2^{1,0} recurrence coefficient off by 1e-3
    original = triquad.basis._plan

    def perturbed(degree):
        plan = original(degree)
        a2 = plan.a2.copy()
        a2[1:2] *= 1.001  # no row 1 below degree 2
        return dataclasses.replace(plan, a2=a2)

    monkeypatch.setattr(triquad.basis, "_plan", perturbed)
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
    rule = parse_rule((corpus / "tri_d6_s11.txt").read_text())
    with pytest.raises(OracleDisagreementError, match="Legendre-product oracle certifies 11"):
        certify(rule)


def test_a_weight_moved_by_1e9_still_fails_the_raised_gates():
    # sum|w| is about 1.1e4: the rule certifies only within its rounding
    # floors, which still refuse one weight moved by 1e-9
    pts = _init_collapsed_tensor(10)
    weights = newton_cotes_weights(BasisSpec(10), pts).weights
    report = certify(QuadratureRule(10, pts, weights))
    assert report.strength >= 10 and report.max_error > CERTIFY_TOL
    for j in range(weights.size):
        moved = weights.copy()
        moved[j] += 1e-9
        with pytest.warns(UserWarning, match="weights sum to"):
            rule = QuadratureRule(10, pts, moved)
        assert certify(rule).strength < 10, j


def test_certify_never_passes_a_nan_shell():
    # NaN compares false both ways; neither oracle may pass it.
    # The rule refuses a NaN at construction, so it is set in place afterwards
    rule = QuadratureRule(1, MIDPOINT_RULE.points, MIDPOINT_RULE.weights.copy())
    rule.weights[1] = np.nan
    assert certify(rule).strength == -1


@pytest.mark.parametrize(
    "d,expected",
    [
        (1, 2), (2, 4), (3, 6), (4, 8), (5, 9), (6, 11), (7, 13),
        (8, 14), (9, 16), (10, 18), (11, 20), (12, 21), (13, 23), (14, 25),
    ],
)
def test_dof_bound_table(d, expected):
    assert dof_bound(d) == expected


def test_dof_bound_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="^d must be nonnegative$"):
        dof_bound(-1)


def test_dof_bound_counting_details():
    # d=1: dim P2 = 6 <= 9 < dim P3 = 10
    assert dof_bound(1) == 2
    # d=4 sits exactly on the bound: dim P8 = 45 = 3 * 15
    assert dof_bound(4) == 8


def test_classify_symmetry_fixtures():
    assert classify_symmetry(MIDPOINT_RULE) == D3_SYMMETRIC
    assert classify_symmetry(CENTROID_RULE) == D3_SYMMETRIC


def test_classify_symmetry_of_the_empty_rule():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        empty = QuadratureRule(None, np.empty((0, 2)), np.empty(0))
    assert classify_symmetry(empty) == D3_SYMMETRIC


def test_classify_detects_asymmetry():
    points = MIDPOINT_RULE.points.copy()
    points[0, 0] += 1e-3
    lopsided = QuadratureRule(None, points, MIDPOINT_RULE.weights.copy())
    assert classify_symmetry(lopsided) == ASYMMETRIC


def test_classify_detects_weight_mismatch():
    # symmetric points but asymmetric weights
    rule = QuadratureRule(
        1, MIDPOINT_RULE.points.copy(), np.array([0.7, 0.7, 0.6])
    )
    assert classify_symmetry(rule) == ASYMMETRIC


def _generic_orbit(shuffle_seed):
    """The 6 permutations of barycentric (0.1, 0.25, 0.65), in shuffled order."""
    orbit = np.array([
        (0.1, 0.25), (0.25, 0.1), (0.1, 0.65), (0.65, 0.1), (0.25, 0.65), (0.65, 0.25),
    ])
    order = np.random.default_rng(shuffle_seed).permutation(6)
    return bary_to_ref(orbit[order]), np.full(6, 2.0 / 6.0)


def test_classify_shuffled_generic_orbit_is_symmetric():
    points, weights = _generic_orbit(3)
    assert classify_symmetry(QuadratureRule(None, points, weights)) == D3_SYMMETRIC


def test_classify_generic_orbit_with_one_moved_weight_is_asymmetric():
    points, weights = _generic_orbit(3)
    weights[4] += 1e-9
    with pytest.warns(UserWarning, match="sum"):
        rule = QuadratureRule(None, points, weights)
    assert classify_symmetry(rule) == ASYMMETRIC


def _loop_classify(rule, tolerance=SYMMETRY_TOL):
    """Reference: greedy point-by-point D3 matching with a used-point mask."""
    bary = ref_to_bary(rule.points)
    for perm in permutations(range(3)):
        transformed = 2.0 * bary[:, list(perm)][:, :2] - 1.0
        used = np.zeros(rule.n_points, dtype=bool)
        for i in range(rule.n_points):
            dist = np.max(np.abs(rule.points - transformed[i]), axis=1)
            j = int(np.argmin(dist))
            if dist[j] > tolerance or used[j] or abs(rule.weights[i] - rule.weights[j]) > tolerance:
                return ASYMMETRIC
            used[j] = True
    return D3_SYMMETRIC


def _orbit_rules():
    """Centroid, 3- and 6-point orbits in shuffled order, intact and perturbed."""
    rng = np.random.default_rng(7)
    orbit6, _ = _generic_orbit(0)
    orbit3 = bary_to_ref(np.array([(0.2, 0.2), (0.2, 0.6), (0.6, 0.2)]))
    centroid = CENTROID_RULE.points
    rules = []
    for parts in ([orbit3], [orbit6], [centroid, orbit3], [centroid, orbit3, orbit6]):
        points = np.vstack(parts)
        weights = np.concatenate([np.full(len(p), 0.1 * (k + 1)) for k, p in enumerate(parts)])
        weights *= 2.0 / weights.sum()
        for shift in (0.0, 1e-11, 1e-9):
            moved_point, moved_weight = points.copy(), weights.copy()
            moved_point[-1, 0] += shift
            moved_weight[-1] += shift
            moved_weight[0] -= shift
            for pts, wts in ((moved_point, weights), (points, moved_weight)):
                order = rng.permutation(len(pts))
                rules.append(QuadratureRule(None, pts[order], wts[order]))
    return rules + NEWTON_COTES_RULES[::3]


@pytest.mark.parametrize("rule", _orbit_rules())
def test_classify_matches_the_point_by_point_loop(rule):
    assert classify_symmetry(rule) == _loop_classify(rule)


def test_classify_refuses_to_match_one_point_twice():
    # both copies of the centroid have the first copy as their nearest point
    points = np.array([[-1.0 / 3.0, -1.0 / 3.0]] * 2)
    rule = QuadratureRule(None, points, np.ones(2))
    assert classify_symmetry(rule) == ASYMMETRIC


def test_validate_flags_negative_weight():
    report = certify(QuadratureRule(
        None,
        np.array([[0.0, -1.0], [0.0, 0.0]]),
        np.array([2.1, -0.1]),
    ))
    assert (report.positive_weights, report.all_interior) == (False, True)


def test_validate_flags_exterior_point():
    # barycentric (1.1, -0.05) sits outside the triangle
    pts = bary_to_ref(np.array([[1.1, -0.05], [1.0 / 3.0, 1.0 / 3.0]]))
    report = certify(QuadratureRule(None, pts, np.array([1.0, 1.0])))
    assert (report.positive_weights, report.all_interior) == (True, False)


@pytest.mark.parametrize("offset, inside", [(0.0, True), (5e-13, True), (2e-12, False)])
def test_all_interior_admits_points_within_the_interior_tolerance(offset, inside):
    # the centroid rule plus a weightless point on the edge y = -1, moved
    # `offset` outside: all_interior holds up to INTERIOR_TOL = 1e-12
    points = np.array([[-1.0 / 3.0, -1.0 / 3.0], [0.0, -1.0 - offset]])
    report = certify(QuadratureRule(None, points, np.array([2.0, 0.0])))
    assert report.strength == 1
    assert report.all_interior is inside


def test_rule_rejects_inconsistent_lengths():
    with pytest.raises(ValueError):
        QuadratureRule(None, np.zeros((3, 2)), np.ones(2))


def test_rule_refuses_a_flat_points_array():
    with pytest.raises(ValueError, match=r"^expected points of shape \(n, 2\), got \(6,\)$"):
        QuadratureRule(None, np.array([0.0, -1.0, 0.0, 0.0, -1.0, 0.0]), np.full(3, 2.0 / 3.0))


@pytest.mark.parametrize(
    "row,column,value,message",
    [
        (1, 0, np.nan, r"point 1 is not finite: \(nan, 0.0\)"),
        (2, 1, -np.inf, r"point 2 is not finite: \(-1.0, -inf\)"),
        (0, None, np.nan, "weight 0 is not finite: nan"),
        (2, None, np.inf, "weight 2 is not finite: inf"),
    ],
)
def test_rule_refuses_non_finite_points_and_weights(row, column, value, message):
    points = MIDPOINT_RULE.points.copy()
    weights = MIDPOINT_RULE.weights.copy()
    if column is None:
        weights[row] = value
    else:
        points[row, column] = value
    with pytest.raises(ValueError, match=message):
        QuadratureRule(1, points, weights)


def test_rule_names_the_first_non_finite_entry():
    points = MIDPOINT_RULE.points.copy()
    points[1:] = np.nan
    weights = np.full(3, np.nan)
    with pytest.raises(ValueError, match="point 1 is not finite"):
        QuadratureRule(1, points, weights)


def test_rule_rejects_wrong_cardinal_count():
    with pytest.raises(ValueError):
        QuadratureRule(2, np.zeros((3, 2)), np.ones(3))


def test_rule_warns_on_bad_weight_sum():
    with pytest.warns(UserWarning, match="sum"):
        QuadratureRule(0, np.array([[-0.3, -0.3]]), np.array([2.0 + 1e-9]))
