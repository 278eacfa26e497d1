import math

import numpy as np
import pytest
import sympy as sp

from triquad.basis import (
    BasisSpec,
    CollapsedVertexError,
    _jacobi_rows,
    dim_poly,
    gram_matrix,
    integrals_vector,
    multi_indices,
    norm_constant,
    rank_of,
    vandermonde,
)
from triquad.domain import gauss_quadrature


def symbolic_basis(m, n, normalized=True):
    """Independent symbolic construction of one basis function (sympy Jacobi)."""
    x1, x2 = sp.symbols("xi1 xi2")
    eta = (2 * x1 + x2 + 1) / (1 - x2)
    expr = sp.jacobi(m, 0, 0, eta) * ((1 - x2) / 2) ** m * sp.jacobi(n, 2 * m + 1, 0, x2)
    if normalized:
        expr *= sp.sqrt((2 * m + 1) * (m + n + 1))
    return sp.lambdify((x1, x2), sp.expand(sp.cancel(sp.together(expr))))


def random_interior(rng, count):
    b = rng.dirichlet([1.0, 1.0, 1.0], size=count)
    return 2.0 * b[:, :2] - 1.0


def values_at(spec, idx, pts):
    """Basis function g_idx at every point of `pts`."""
    return vandermonde(spec, pts).values[:, rank_of(*idx)]


def jacobi_rows_derivative(alpha, beta, nmax, x):
    """d/dx of the _jacobi_rows table by the identity the derivative blocks
    of vandermonde use: d/dx P_n^{a,b} = ((n + a + b + 1)/2) P_{n-1}^{a+1,b+1}.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1,) + x.shape)
    if nmax >= 1:
        shifted = _jacobi_rows(alpha + 1.0, beta + 1.0, nmax - 1, x)
        for n in range(1, nmax + 1):
            out[n] = 0.5 * (n + alpha + beta + 1) * shifted[n - 1]
    return out


# ---------------------------------------------------------------- jacobi


def test_jacobi_degree_zero_is_one():
    xs = np.array([-1.0, -0.3, 0.0, 0.9, 1.0])
    assert np.all(_jacobi_rows(0.0, 0.0, 0, xs)[0] == 1.0)


def test_jacobi_legendre_linear():
    assert _jacobi_rows(0.0, 0.0, 1, np.array([0.5]))[1, 0] == pytest.approx(
        0.5, abs=1e-15
    )


def test_jacobi_legendre_quadratic_at_one():
    # oracle: P2(x) = (3x^2 - 1)/2 evaluated at 1
    assert _jacobi_rows(0.0, 0.0, 2, np.array([1.0]))[2, 0] == pytest.approx(
        (3.0 - 1.0) / 2.0, abs=1e-15
    )


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (2.5, 1.5)])
def test_jacobi_matches_sympy(alpha, beta):
    x1 = sp.Symbol("x")
    xs = np.linspace(-1.0, 1.0, 7)
    rows = _jacobi_rows(alpha, beta, 5, xs)
    for n in range(6):
        ref = sp.lambdify(x1, sp.jacobi(n, alpha, beta, x1))
        for x, val in zip(xs, rows[n]):
            assert val == pytest.approx(float(ref(x)), rel=1e-12, abs=1e-12)


def test_jacobi_derivative_linear_and_constant():
    rows = jacobi_rows_derivative(0.0, 0.0, 1, np.array([-0.9, 0.1, 0.7]))
    assert np.all(rows[1] == 1.0)
    assert np.all(rows[0] == 0.0)


def test_jacobi_derivative_matches_finite_difference():
    h = 1e-6
    x = np.array([0.3])
    fd = (_jacobi_rows(2.0, 0.0, 3, x + h)[3] - _jacobi_rows(2.0, 0.0, 3, x - h)[3]) / (
        2.0 * h
    )
    assert jacobi_rows_derivative(2.0, 0.0, 3, x)[3, 0] == pytest.approx(fd[0], rel=1e-7)


# ----------------------------------------------------------- enumeration


def test_enumeration_order_is_graded_lex():
    assert multi_indices(2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def test_enumeration_bijection():
    for degree in (0, 1, 5, 12):
        for k in range(dim_poly(degree)):
            m, n = multi_indices(degree)[k]
            assert rank_of(m, n) == k
            assert m + n <= degree


def test_dimension_formula():
    for d in range(15):
        assert dim_poly(d) == (d + 1) * (d + 2) // 2


# ------------------------------------------------------- basis values


def test_constant_basis_function_is_one():
    spec = BasisSpec(4)
    rng = np.random.default_rng(0)
    vals = values_at(spec, (0, 0), random_interior(rng, 10))
    for val in vals:
        assert val == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("idx", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
def test_kd_eval_matches_symbolic(idx):
    spec = BasisSpec(4)
    fn = symbolic_basis(*idx)
    rng = np.random.default_rng(1)
    pts = random_interior(rng, 20)
    for p, val in zip(pts, values_at(spec, idx, pts)):
        assert val == pytest.approx(float(fn(*p)), rel=1e-12, abs=1e-12)


def test_kd_eval_unnormalized_linear():
    # unnormalized (1, 0) function is xi1 + (1 + xi2)/2; zero at the centroid
    spec = BasisSpec(2)
    at_centroid, at_p = values_at(
        spec, (1, 0), [(-1.0 / 3.0, -1.0 / 3.0), (0.25, -0.5)]
    ) / norm_constant(1, 0)
    assert at_centroid == pytest.approx(0.0, abs=1e-15)
    assert at_p == pytest.approx(0.25 + 0.25, abs=1e-15)


def test_nonconstant_basis_functions_have_zero_mean():
    pts, wts = gauss_quadrature(24)
    spec = BasisSpec(8)
    v = vandermonde(spec, pts).values
    means = v.T @ wts
    assert means[0] == pytest.approx(2.0, abs=1e-13)
    assert np.max(np.abs(means[1:])) <= 1e-12


def test_gram_matrix_is_twice_identity():
    spec = BasisSpec(10)
    g = gram_matrix(spec, n_nodes=40)
    assert np.max(np.abs(g - 2.0 * np.eye(spec.dim))) <= 1e-11


def test_degree_correctness_along_lines():
    # restricted to a line, g_{m,n} is a 1-D polynomial of degree <= m+n:
    # interpolating on m+n+1 points must reproduce a further sample
    rng = np.random.default_rng(5)
    spec = BasisSpec(6)
    for idx in [(0, 3), (2, 2), (4, 0), (3, 3)]:
        deg = idx[0] + idx[1]
        a = np.array([-0.9, -0.85])
        direction = np.array([0.8, 0.3])
        ts = np.linspace(0.0, 1.0, deg + 2)
        samples = values_at(spec, idx, a + ts[:, None] * direction)
        coeffs = np.polyfit(ts[:-1], samples[:-1], deg)
        predicted = np.polyval(coeffs, ts[-1])
        assert predicted == pytest.approx(samples[-1], rel=1e-8, abs=1e-10)


# ------------------------------------------------------------ gradients


def test_gradient_constant_is_zero():
    ev = vandermonde(BasisSpec(3), [(0.1, -0.6)], derivatives=True)
    k = rank_of(0, 0)
    assert (ev.d_xi1[0, k], ev.d_xi2[0, k]) == (0.0, 0.0)


def test_gradient_unnormalized_linear():
    spec = BasisSpec(2)
    rng = np.random.default_rng(2)
    ev = vandermonde(spec, random_interior(rng, 5), derivatives=True)
    k = rank_of(1, 0)
    c = norm_constant(1, 0)
    for g1, g2 in zip(ev.d_xi1[:, k] / c, ev.d_xi2[:, k] / c):
        assert g1 == pytest.approx(1.0, abs=1e-13)
        assert g2 == pytest.approx(0.5, abs=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    spec = BasisSpec(8)
    pts = random_interior(rng, 200)
    h = 1e-6
    ev = vandermonde(spec, pts, derivatives=True)
    vp1 = vandermonde(spec, pts + [h, 0.0]).values
    vm1 = vandermonde(spec, pts - [h, 0.0]).values
    vp2 = vandermonde(spec, pts + [0.0, h]).values
    vm2 = vandermonde(spec, pts - [0.0, h]).values
    fd1 = (vp1 - vm1) / (2.0 * h)
    fd2 = (vp2 - vm2) / (2.0 * h)
    scale = np.maximum(1.0, np.maximum(np.abs(fd1), np.abs(fd2)))
    assert np.max(np.abs(ev.d_xi1 - fd1) / scale) <= 1e-6
    assert np.max(np.abs(ev.d_xi2 - fd2) / scale) <= 1e-6


def test_gradient_refused_at_collapsed_vertex():
    with pytest.raises(CollapsedVertexError):
        vandermonde(BasisSpec(3), [(-1.0, 1.0 - 1e-12)], derivatives=True)


# ----------------------------------------------------------- vandermonde


def test_vandermonde_degree_zero():
    ev = vandermonde(BasisSpec(0), [(-0.2, -0.3)])
    assert ev.values.shape == (1, 1)
    assert ev.values[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_vandermonde_constant_column():
    ev = vandermonde(BasisSpec(1), [(-0.5, -0.5), (0.0, -0.8), (-0.9, 0.1)])
    assert ev.values.shape == (3, 3)
    assert np.allclose(ev.values[:, 0], 1.0)


def test_vandermonde_random_square_system_is_solvable():
    rng = np.random.default_rng(11)
    for d in (2, 4):
        spec = BasisSpec(d)
        pts = random_interior(rng, spec.dim)
        v = vandermonde(spec, pts).values
        assert np.isfinite(np.linalg.cond(v))
        b = np.zeros(spec.dim)
        b[0] = 2.0
        w = np.linalg.solve(v.T, b)
        assert np.max(np.abs(v.T @ w - b)) <= 1e-10


def test_vandermonde_values_regular_at_collapsed_vertex():
    spec = BasisSpec(6)
    ev = vandermonde(spec, [(-1.0, 1.0)])  # the collapsed vertex itself
    assert np.all(np.isfinite(ev.values))
    # functions with m >= 1 vanish there; m = 0 reduce to P_n^{1,0}(1) = n+1
    assert ev.values[0, rank_of(1, 0)] == pytest.approx(0.0, abs=1e-14)
    for n in range(7):
        unnorm = ev.values[0, rank_of(0, n)] / norm_constant(0, n)
        assert unnorm == pytest.approx(n + 1.0, rel=1e-13)


def test_vandermonde_derivatives_refused_at_vertex():
    with pytest.raises(CollapsedVertexError):
        vandermonde(BasisSpec(2), [(-1.0, 1.0)], derivatives=True)


# ------------------------------------------------------------ integrals


def test_kd_integral_values():
    b = integrals_vector(BasisSpec(5))
    assert b[rank_of(0, 0)] == 2.0
    assert b[rank_of(3, 2)] == 0.0
    assert b[rank_of(0, 1)] == 0.0
