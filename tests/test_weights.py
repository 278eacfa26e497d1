import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

import triquad.basis
from triquad.basis import BasisSpec, _one_blas_thread, _openblas_threads, vandermonde
from triquad.cli import main
from triquad.domain import bary_to_ref, monomial_integral, ref_to_unit
from triquad.optimizer import _init_warp_blend, optimize, residual_jacobian
from triquad.rule import dof_bound
from triquad.ruleio import emit_rule
from triquad.weights import (
    CONDITION_LIMIT,
    DegenerateConfigurationError,
    WeightSolution,
    newton_cotes_weights,
    weight_jacobian,
)

# Classical 6-point strength-4 rule (Strang-Fix/Dunavant), barycentric
# coordinates and weights normalized to sum 1 on the unit triangle.
_D4_A = 0.445948490915965
_D4_B = 0.091576213509771
_D4_WA = 0.223381589678011
_D4_WB = 0.109951743655322
PUBLISHED_STRENGTH4_BARY = np.array(
    [
        [1.0 - 2.0 * _D4_A, _D4_A],
        [_D4_A, 1.0 - 2.0 * _D4_A],
        [_D4_A, _D4_A],
        [1.0 - 2.0 * _D4_B, _D4_B],
        [_D4_B, 1.0 - 2.0 * _D4_B],
        [_D4_B, _D4_B],
    ]
)
PUBLISHED_STRENGTH4_WEIGHTS = np.array([_D4_WA] * 3 + [_D4_WB] * 3)

MIDPOINTS = np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]])

D3_PERMUTATIONS = [
    (0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2),
]


def random_interior(rng, count):
    b = rng.dirichlet([2.0, 2.0, 2.0], size=count)
    return 2.0 * b[:, :2] - 1.0


def monomial_errors(points, weights, degree):
    """Worst monomial residual up to `degree`, unit-triangle convention."""
    xy = ref_to_unit(points)
    w = weights / 4.0
    worst = 0.0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = float(w @ (xy[:, 0] ** a * xy[:, 1] ** b))
            worst = max(worst, abs(approx - monomial_integral(a, b)))
    return worst


def test_single_point_weight_is_area():
    sol = newton_cotes_weights(BasisSpec(0), [(-0.4, -0.2)])
    assert sol.weights == pytest.approx([2.0], abs=1e-15)
    assert sol.solve_residual <= 1e-10


def test_midpoint_weights():
    sol = newton_cotes_weights(BasisSpec(1), MIDPOINTS)
    assert sol.weights == pytest.approx([2.0 / 3.0] * 3, abs=1e-15)


def test_published_strength4_weights_recovered():
    points = bary_to_ref(PUBLISHED_STRENGTH4_BARY)
    # the published rule must itself pass the monomial oracle at degree 4
    assert monomial_errors(points, 2.0 * PUBLISHED_STRENGTH4_WEIGHTS, 4) <= 1e-14
    sol = newton_cotes_weights(BasisSpec(2), points)
    assert np.max(np.abs(sol.weights - 2.0 * PUBLISHED_STRENGTH4_WEIGHTS)) <= 1e-12


@pytest.mark.parametrize("d", range(1, 7))
def test_weights_integrate_all_monomials(d):
    rng = np.random.default_rng(100 + d)
    spec = BasisSpec(d)
    points = random_interior(rng, spec.dim)
    sol = newton_cotes_weights(spec, points)
    assert monomial_errors(points, sol.weights, d) <= 1e-11


def test_weights_are_basis_independent():
    # re-deriving the system from a random orthogonal recombination of the
    # basis must give identical weights: Eq-level uniqueness
    rng = np.random.default_rng(9)
    spec = BasisSpec(3)
    points = random_interior(rng, spec.dim)
    sol = newton_cotes_weights(spec, points)

    q, _ = np.linalg.qr(rng.standard_normal((spec.dim, spec.dim)))
    v = vandermonde(spec, points).values @ q
    b = np.zeros(spec.dim)
    b[0] = 2.0
    w_alt = np.linalg.solve(v.T, q.T @ b)
    assert np.max(np.abs(w_alt - sol.weights)) <= 1e-11


def test_weights_equivariant_under_triangle_symmetries():
    rng = np.random.default_rng(21)
    spec = BasisSpec(3)
    points = random_interior(rng, spec.dim)
    w = newton_cotes_weights(spec, points).weights
    bary = np.column_stack([
        (points[:, 0] + 1.0) / 2.0,
        (points[:, 1] + 1.0) / 2.0,
    ])
    bary = np.column_stack([bary, 1.0 - bary.sum(axis=1)])
    for perm in D3_PERMUTATIONS:
        transformed = bary_to_ref(bary[:, perm][:, :2])
        w_t = newton_cotes_weights(spec, transformed).weights
        assert np.max(np.abs(w_t - w)) <= 1e-12


def test_wrong_point_count_rejected():
    with pytest.raises(ValueError):
        newton_cotes_weights(BasisSpec(2), MIDPOINTS)


def collinear_points():
    t = np.linspace(-0.9, 0.5, 6)
    return np.column_stack([t, -0.2 - 0.3 * t])


def test_degenerate_configuration_detected():
    # all points on one line: Vandermonde cannot be invertible
    with pytest.raises(DegenerateConfigurationError):
        newton_cotes_weights(BasisSpec(2), collinear_points())


def test_an_exactly_singular_system_is_degenerate_with_infinite_condition():
    # two coincident points at d = 1: the LU factorization meets an exactly
    # zero pivot, which is a degenerate configuration, not a warning
    points = np.array([[-0.6, -0.2], [-0.6, -0.2], [0.1, -0.7]])
    with pytest.raises(
        DegenerateConfigurationError, match="^degenerate configuration: condition estimate inf"
    ) as info:
        newton_cotes_weights(BasisSpec(1), points)
    assert info.value.condition_estimate == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_point_is_refused_before_the_solve(bad):
    points = MIDPOINTS.copy()
    points[1, 0] = bad
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        newton_cotes_weights(BasisSpec(1), points)


# every path to the weights of dim P_2 = 6 points goes through one solve
SOLVE_PATHS = {
    "newton_cotes_weights": lambda pts: newton_cotes_weights(BasisSpec(2), pts),
    "weight_jacobian": lambda pts: weight_jacobian(BasisSpec(2), pts),
    "residual": lambda pts: WeightSolution(BasisSpec(2), pts, BasisSpec(4)).shell_residual,
    "residual_jacobian": lambda pts: residual_jacobian(BasisSpec(2), BasisSpec(4), pts),
}


@pytest.mark.parametrize("path", sorted(SOLVE_PATHS))
def test_every_solve_path_rejects_a_wrong_point_count(path):
    with pytest.raises(ValueError, match="need exactly dim P_2 = 6 points, got 3"):
        SOLVE_PATHS[path](MIDPOINTS)


@pytest.mark.parametrize("path", sorted(SOLVE_PATHS))
def test_every_solve_path_names_the_exceeded_limit(path):
    limit = re.escape(f"exceeds {CONDITION_LIMIT:.1e}")
    with pytest.raises(DegenerateConfigurationError, match=limit):
        SOLVE_PATHS[path](collinear_points())


@pytest.mark.parametrize(
    "path",
    [lambda sd, sde, pts: WeightSolution(sd, pts, sde).shell_residual, residual_jacobian],
    ids=["residual", "residual_jacobian"],
)
def test_every_shell_path_refuses_an_extended_degree_below_the_cardinal(path):
    points = random_interior(np.random.default_rng(4), 6)
    with pytest.raises(ValueError, match="^extended degree must be at least"):
        path(BasisSpec(2), BasisSpec(1), points)


# ---------------------------------------------------------------- jacobian


def test_linearize_is_idempotent_and_returns_the_solution():
    points = random_interior(np.random.default_rng(5), 6)
    sol = WeightSolution(BasisSpec(2), points, BasisSpec(4))
    assert sol.weight_jacobian is None and sol.shell_jacobian is None
    assert sol.linearize() is sol
    wjac, jac = sol.weight_jacobian, sol.shell_jacobian
    assert wjac.shape == (6, 12) and jac.shape == (9, 12)
    sol.linearize()
    assert sol.weight_jacobian is wjac and sol.shell_jacobian is jac


def test_weight_jacobian_single_point_is_zero():
    jac = weight_jacobian(BasisSpec(0), [(-0.2, -0.3)])
    assert jac.shape == (1, 2)
    assert np.max(np.abs(jac)) == 0.0


def fd_weight_jacobian(spec, points, h):
    n = points.shape[0]
    out = np.zeros((n, 2 * n))
    for j in range(n):
        for c in range(2):
            plus, minus = points.copy(), points.copy()
            plus[j, c] += h
            minus[j, c] -= h
            wp = newton_cotes_weights(spec, plus).weights
            wm = newton_cotes_weights(spec, minus).weights
            out[:, 2 * j + c] = (wp - wm) / (2.0 * h)
    return out


def test_weight_jacobian_midpoints_vs_finite_differences():
    spec = BasisSpec(1)
    jac = weight_jacobian(spec, MIDPOINTS)
    fd = fd_weight_jacobian(spec, MIDPOINTS, 1e-7)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(jac - fd)) / scale <= 1e-6


def test_weight_jacobian_random_vs_finite_differences():
    rng = np.random.default_rng(33)
    spec = BasisSpec(3)
    points = random_interior(rng, spec.dim)
    jac = weight_jacobian(spec, points)
    fd = fd_weight_jacobian(spec, points, 1e-7)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def _solve_outcome(*args):
    """(weights, condition estimate) of a solve, or the degenerate verdict."""
    try:
        sol = WeightSolution(*args)
    except DegenerateConfigurationError as exc:
        return str(exc)
    return sol.weights, sol.condition_estimate


@pytest.mark.parametrize(
    "d,e",
    [(d, e) for d in range(1, 15) for e in sorted({1, dof_bound(d) - d})],
)
def test_extended_solve_has_the_bits_of_the_plain_one(d, e):
    # the search's configurations carry the extension d + e; the rule keeps
    # their weights without solving again, so the two must be the same bits
    spec = BasisSpec(d)
    rng = np.random.default_rng(d)
    for points in (_init_warp_blend(d, 0.05), random_interior(rng, spec.dim)):
        extended = _solve_outcome(spec, points, BasisSpec(d + e))
        plain = _solve_outcome(spec, points)
        if isinstance(plain, str):
            # random points at large d fail the gates; they must fail alike
            assert extended == plain
            continue
        assert np.array_equal(extended[0], plain[0])
        assert extended[1] == plain[1]


def test_the_blas_pin_restores_the_callers_count_also_when_its_body_raises(
    tmp_path, capsys
):
    if _openblas_threads() is None:
        pytest.skip("this numpy's OpenBLAS exports no thread-count functions")
    get, put = _openblas_threads()
    caller = get()
    try:
        put(2)
        with pytest.raises(KeyError), _one_blas_thread():
            assert get() == 1
            raise KeyError("body")
        assert get() == 2
        assert main(["verify", str(tmp_path / "missing.txt")]) == 2
        assert "error:" in capsys.readouterr().err
        assert get() == 2
    finally:
        put(caller)


def test_a_nested_blas_pin_sets_nothing(monkeypatch):
    # the outer pin sets 1 and restores 3; the decorated call inside it
    # finds the count at 1 and makes no setter call
    count, puts = [3], []

    def put(threads):
        puts.append(threads)
        count[0] = threads

    monkeypatch.setattr(triquad.basis, "_openblas_threads", lambda: (lambda: count[0], put))
    inner = _one_blas_thread()(lambda: count[0])
    with _one_blas_thread():
        assert inner() == 1
    assert puts == [1, 3] and count[0] == 3


def test_a_numpy_without_the_thread_functions_gets_a_pin_that_sets_nothing(monkeypatch):
    # another numpy build: its library lacks the OpenBLAS thread symbols
    real = _openblas_threads()
    if real is not None:
        get, put = real
        caller = get()
        put(2)
    try:
        monkeypatch.setattr(triquad.basis.ctypes, "CDLL", lambda path: SimpleNamespace())
        _openblas_threads.cache_clear()
        assert _openblas_threads() is None
        with _one_blas_thread():
            assert real is None or get() == 2
    finally:
        monkeypatch.undo()
        _openblas_threads.cache_clear()
        if real is not None:
            put(caller)
    assert _openblas_threads() is not None or real is None


def test_without_the_thread_functions_the_search_keeps_its_bytes(monkeypatch):
    # another numpy build: the pin does nothing, and d = 1 (whose arrays are
    # far below OpenBLAS's threading sizes) still writes PINNED_RUNS[1] of
    # test_acceptance.py, less the "# seed = 0" header line that only the
    # CLI adds
    monkeypatch.setattr(triquad.basis, "_openblas_threads", lambda: None)
    text = emit_rule(optimize(1, target_e=1).rule)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "53ad82ab402211f1ec6a2fc0ab9d9b1fece4a9eaa5941c07ae7d93535fbdf9ea"
    )
