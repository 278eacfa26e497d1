import warnings

import numpy as np
import pytest

from triquad.basis import BasisSpec, dim_poly
from triquad.domain import points_inside
from triquad.optimizer import (
    OptimizerConfig,
    _barrier_terms,
    optimize,
    residual,
    residual_jacobian,
)
from triquad.rule import certify

MIDPOINTS = np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]])
VERTICES = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])

# residual of the vertex rule over the degree-2 shell, derived symbolically:
# (2/3) * sum over vertices of g for g in {g_{0,2}, g_{1,1}, g_{2,0}}
VERTEX_SHELL_RESIDUAL = np.array(
    [10.0 * np.sqrt(3.0) / 3.0, 0.0, 4.0 * np.sqrt(15.0) / 3.0]
)


def random_interior(rng, count):
    b = rng.dirichlet([2.0, 2.0, 2.0], size=count)
    return 2.0 * b[:, :2] - 1.0


def test_residual_midpoints_is_zero():
    r = residual(BasisSpec(1), BasisSpec(2), MIDPOINTS)
    assert r.shape == (3,)
    assert np.max(np.abs(r)) <= 1e-15


def test_residual_vertices_matches_symbolic_oracle():
    r = residual(BasisSpec(1), BasisSpec(2), VERTICES)
    assert np.max(np.abs(r - VERTEX_SHELL_RESIDUAL)) <= 1e-13


def test_residual_zero_extension_is_empty():
    r = residual(BasisSpec(2), BasisSpec(2), random_interior(np.random.default_rng(0), 6))
    assert r.shape == (0,)


def test_residual_length_matches_shell_dimension():
    pts = random_interior(np.random.default_rng(1), dim_poly(2))
    r = residual(BasisSpec(2), BasisSpec(4), pts)
    assert r.shape == (dim_poly(4) - dim_poly(2),)


@pytest.mark.parametrize("d,e", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_residual_jacobian_matches_finite_differences(d, e):
    rng = np.random.default_rng(50 + d)
    spec_d, spec_de = BasisSpec(d), BasisSpec(d + e)
    pts = random_interior(rng, spec_d.dim)
    jac = residual_jacobian(spec_d, spec_de, pts)
    h = 1e-7
    fd = np.zeros_like(jac)
    for j in range(spec_d.dim):
        for c in range(2):
            plus, minus = pts.copy(), pts.copy()
            plus[j, c] += h
            minus[j, c] -= h
            fd[:, 2 * j + c] = (
                residual(spec_d, spec_de, plus) - residual(spec_d, spec_de, minus)
            ) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def test_residual_jacobian_zero_extension_is_empty():
    pts = random_interior(np.random.default_rng(3), 6)
    jac = residual_jacobian(BasisSpec(2), BasisSpec(2), pts)
    assert jac.shape == (0, 12)


def test_barrier_matches_finite_differences():
    rng = np.random.default_rng(7)
    pts = random_interior(rng, 10)
    value, grad, hess = _barrier_terms(pts)
    b12 = (pts + 1.0) / 2.0
    bary = np.column_stack([b12, 1.0 - b12.sum(axis=1)])
    assert value == pytest.approx(-np.log(bary).sum(), rel=1e-14)
    assert hess.shape == (10, 2, 2)
    h = 1e-6
    fd_grad = np.zeros(20)
    fd_hess = np.zeros((20, 20))
    for k in range(20):
        step = np.zeros(20)
        step[k] = h
        plus = _barrier_terms(pts + step.reshape(10, 2))
        minus = _barrier_terms(pts - step.reshape(10, 2))
        fd_grad[k] = (plus[0] - minus[0]) / (2.0 * h)
        fd_hess[:, k] = (plus[1] - minus[1]) / (2.0 * h)
    dense = np.zeros((20, 20))
    for j in range(10):
        dense[2 * j:2 * j + 2, 2 * j:2 * j + 2] = hess[j]
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))
    assert np.max(np.abs(dense - fd_hess)) <= 1e-6 * max(1.0, np.max(np.abs(dense)))


def test_barrier_is_infinite_on_an_edge_without_warning():
    on_edge = np.array([[-0.5, -0.5], [0.2, -0.2]])  # b3 = 0 at the second
    outside = np.array([[-0.5, -0.5], [0.7, -0.2]])  # b3 < 0 at the second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _barrier_terms(on_edge) == (np.inf, None, None)
        assert _barrier_terms(outside) == (np.inf, None, None)


def test_optimize_d1_meets_table_row():
    result = optimize(1, OptimizerConfig(target_e=1, seed=0, restarts=10))
    assert result.converged
    assert result.best_residual <= 1e-14
    report = result.report
    assert report.strength == 2
    assert report.positive_weights
    assert np.all(points_inside(result.rule.points))
    assert result.rule.n_points == 3


def test_optimize_d2_meets_table_row():
    result = optimize(2, OptimizerConfig(target_e=2, seed=0, restarts=10))
    assert result.converged
    report = result.report
    assert report.strength == 4
    assert report.positive_weights and report.all_interior
    assert result.rule.n_points == 6


def test_optimize_infeasible_target_warns_and_flags():
    # d=3, e=3 asks for strength 6 = the counting bound; the reference
    # results only reach 5, so expect an honest unconverged outcome
    config = OptimizerConfig(target_e=3, seed=0, restarts=2, max_iterations=300)
    result = optimize(3, config)
    assert not result.converged
    assert result.best_residual > 1e-14
    # the best candidate still certifies at its achieved strength
    assert result.report.strength >= 3


def test_optimize_beyond_bound_warns():
    config = OptimizerConfig(target_e=3, seed=0, restarts=1, max_iterations=50)
    with pytest.warns(UserWarning, match="degrees-of-freedom"):
        optimize(1, config)


def test_optimize_is_deterministic():
    config = OptimizerConfig(target_e=1, seed=123, restarts=4)
    a = optimize(1, config)
    b = optimize(1, config)
    assert np.array_equal(a.rule.points, b.rule.points)
    assert np.array_equal(a.rule.weights, b.rule.weights)
    assert a.report.max_error == b.report.max_error


def test_optimize_output_passes_independent_certification():
    result = optimize(2, OptimizerConfig(target_e=2, seed=5, restarts=10))
    assert result.converged
    report = certify(result.rule, tolerance=1e-12)
    assert report.strength >= 4


def test_optimize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimize(0, OptimizerConfig(target_e=1))
    with pytest.raises(ValueError):
        optimize(1, OptimizerConfig(target_e=-1))
