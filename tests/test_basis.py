import math

import numpy as np
import pytest
import sympy as sp

from triquad.basis import (
    BasisSpec,
    _differentiate,
    dim_poly,
    integrals_vector,
    multi_indices,
    norm_constant,
    rank_of,
    vandermonde,
)
from triquad.domain import as_point_array, gauss_quadrature


XI1, XI2 = sp.symbols("xi1 xi2")


def symbolic_polynomial(m, n, normalized=True):
    """Independent symbolic construction of one basis function (sympy Jacobi)."""
    eta = (2 * XI1 + XI2 + 1) / (1 - XI2)
    expr = sp.jacobi(m, 0, 0, eta) * ((1 - XI2) / 2) ** m * sp.jacobi(n, 2 * m + 1, 0, XI2)
    if normalized:
        expr *= sp.sqrt((2 * m + 1) * (m + n + 1))
    return sp.expand(sp.cancel(sp.together(expr)))


def symbolic_basis(m, n, normalized=True):
    return sp.lambdify((XI1, XI2), symbolic_polynomial(m, n, normalized))


def random_interior(rng, count):
    b = rng.dirichlet([1.0, 1.0, 1.0], size=count)
    return 2.0 * b[:, :2] - 1.0


def values_at(spec, idx, pts):
    """Basis function g_idx at every point of `pts`."""
    return vandermonde(spec, pts).values[:, rank_of(*idx)]


def _jacobi_rows(alpha, beta, nmax, x, derivative=False):
    """Table of P_n^{alpha,beta}(x) for n = 0..nmax (and its d/dx table with
    derivative=True) from the reference sweep, which
    test_vandermonde_is_bitwise_the_reference ties vandermonde to."""
    return _reference_jacobi_rows(
        alpha, beta, nmax, np.asarray(x, dtype=float), derivative=derivative
    )


def jacobi_rows_derivative(alpha, beta, nmax, x):
    """d/dx of the _jacobi_rows table by the shifted-parameter identity
    d/dx P_n^{a,b} = ((n + a + b + 1)/2) P_{n-1}^{a+1,b+1}: a reference for
    the differentiated recurrence of _jacobi_rows(..., derivative=True).
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
    x = np.array([-0.9, 0.1, 0.7])
    _, rows = _jacobi_rows(0.0, 0.0, 1, x, derivative=True)
    assert np.all(rows[1] == 1.0)
    assert np.all(rows[0] == 0.0)
    assert np.array_equal(rows, jacobi_rows_derivative(0.0, 0.0, 1, x))


def test_jacobi_derivative_matches_finite_difference():
    h = 1e-6
    x = np.array([0.3])
    fd = (_jacobi_rows(2.0, 0.0, 3, x + h)[3] - _jacobi_rows(2.0, 0.0, 3, x - h)[3]) / (
        2.0 * h
    )
    _, rows = _jacobi_rows(2.0, 0.0, 3, x, derivative=True)
    assert rows[3, 0] == pytest.approx(fd[0], rel=1e-7)
    assert rows[3, 0] == pytest.approx(
        jacobi_rows_derivative(2.0, 0.0, 3, x)[3, 0], rel=1e-13
    )


def test_jacobi_rows_for_an_alpha_array_match_the_scalar_sweeps():
    # vandermonde runs P_n^{2m+1,0} for every m at once; each table must be
    # the scalar sweep's, and its derivative rows the shifted-parameter ones
    x = np.linspace(-1.0, 1.0, 41)
    alphas = [1.0, 9.0, 25.0]
    values, rows = _jacobi_rows(np.array(alphas)[:, None], 0.0, 12, x, derivative=True)
    for i, alpha in enumerate(alphas):
        scalar_values, scalar_rows = _jacobi_rows(alpha, 0.0, 12, x, derivative=True)
        assert np.array_equal(values[:, i], scalar_values)
        assert np.array_equal(rows[:, i], scalar_rows)
        assert np.array_equal(scalar_values, _jacobi_rows(alpha, 0.0, 12, x))
        ref = jacobi_rows_derivative(alpha, 0.0, 12, x)
        assert np.max(np.abs(scalar_rows - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


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


@pytest.mark.parametrize("degree, n_nodes", [(6, 16), (10, 40)])
def test_gram_matrix_is_twice_identity(degree, n_nodes):
    # the Gram matrix by the tensorized Gauss oracle quadrature
    spec, (pts, wts) = BasisSpec(degree), gauss_quadrature(n_nodes)
    v = vandermonde(spec, pts).values
    g = v.T @ (wts[:, None] * v)
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


@pytest.mark.parametrize(
    "point",
    [(-1.0, 1.0), (-1.0, 1.0 - 1e-12), (-1.0 + 1e-12, 1.0 - 5e-11), (-1.0 + 4e-11, 1.0 - 1e-10)],
)
def test_values_and_gradients_at_and_next_to_collapsed_vertex(point):
    spec = BasisSpec(5)
    ev = vandermonde(spec, [point], derivatives=True)
    # exact rational evaluation of the sympy polynomial and its partials
    at = {XI1: sp.Rational(point[0]), XI2: sp.Rational(point[1])}
    for k, (m, n) in enumerate(multi_indices(spec.degree)):
        g = symbolic_polynomial(m, n)
        for got, expr in (
            (ev.values[0, k], g),
            (ev.d_xi1[0, k], sp.diff(g, XI1)),
            (ev.d_xi2[0, k], sp.diff(g, XI2)),
        ):
            assert got == pytest.approx(float(expr.subs(at)), rel=1e-12, abs=1e-12)


# ----------------------------------------------------------- vandermonde


def test_vandermonde_degree_zero():
    ev = vandermonde(BasisSpec(0), [(-0.2, -0.3)])
    assert ev.values.shape == (1, 1)
    assert ev.values[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_vandermonde_constant_column():
    ev = vandermonde(BasisSpec(1), [(-0.5, -0.5), (0.0, -0.8), (-0.9, 0.1)])
    assert ev.values.shape == (3, 3)
    assert np.allclose(ev.values[:, 0], 1.0)


def test_vandermonde_refuses_a_flat_coordinate_list():
    # (xi1, xi2, xi1, xi2) used to be read silently as two points
    with pytest.raises(ValueError, match=r"^expected points of shape \(n, 2\), got \(4,\)$"):
        vandermonde(BasisSpec(1), [0.1, -0.5, -0.5, 0.2])


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: rank_of(-1, 0), "multi-index entries must be nonnegative"),
        (lambda: BasisSpec(-1), "degree must be nonnegative"),
        (lambda: vandermonde(BasisSpec(1), np.empty((0, 2))), "empty point set"),
    ],
    ids=["rank_of", "BasisSpec", "vandermonde"],
)
def test_the_basis_refuses_an_invalid_argument_by_name(refused, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        refused()


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


def _reference_jacobi_rows(alpha, beta, nmax, x, derivative=False):
    """The one-pass Jacobi sweep that vandermonde used before the per-degree
    plan: coefficients recomputed per call, derivatives in the same loop."""
    out = np.empty((nmax + 1,) + np.broadcast_shapes(np.shape(alpha), x.shape))
    dout = np.zeros_like(out) if derivative else None
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * ((alpha + beta + 2.0) * x + (alpha - beta))
        if derivative:
            dout[1] = 0.5 * (alpha + beta + 2.0)
    for k in range(1, nmax):
        a1 = 2.0 * (k + 1) * (k + alpha + beta + 1) * (2 * k + alpha + beta)
        a2 = (2 * k + alpha + beta + 1) * (alpha * alpha - beta * beta)
        a3 = (
            (2 * k + alpha + beta)
            * (2 * k + alpha + beta + 1)
            * (2 * k + alpha + beta + 2)
        )
        a4 = 2.0 * (k + alpha) * (k + beta) * (2 * k + alpha + beta + 2)
        out[k + 1] = ((a2 + a3 * x) * out[k] - a4 * out[k - 1]) / a1
        if derivative:
            dout[k + 1] = (
                a3 * out[k] + (a2 + a3 * x) * dout[k] - a4 * dout[k - 1]
            ) / a1
    return (out, dout) if derivative else out


def _reference_vandermonde(spec, points, derivatives=False):
    """vandermonde as one interleaved value-and-derivative pass, with every
    per-degree constant rebuilt per call: the reference for bitwise equality."""
    xi1, xi2 = as_point_array(points).T
    deg = spec.degree
    t = xi1 + 0.5 * (1.0 + xi2)
    s = 0.5 * (1.0 - xi2)
    s2 = s * s
    q = np.empty((deg + 1,) + t.shape)
    q1 = np.zeros_like(q) if derivatives else None
    q2 = np.zeros_like(q) if derivatives else None
    q[0] = 1.0
    if deg >= 1:
        q[1] = t
        if derivatives:
            q1[1] = 1.0
            q2[1] = 0.5
    for m in range(1, deg):
        q[m + 1] = ((2 * m + 1) * t * q[m] - m * s2 * q[m - 1]) / (m + 1)
        if derivatives:
            q1[m + 1] = (
                (2 * m + 1) * (q[m] + t * q1[m]) - m * s2 * q1[m - 1]
            ) / (m + 1)
            q2[m + 1] = (
                (2 * m + 1) * (0.5 * q[m] + t * q2[m])
                + m * (s * q[m - 1] - s2 * q2[m - 1])
            ) / (m + 1)
    alpha = 2.0 * np.arange(deg + 1)[:, None] + 1.0
    rows = _reference_jacobi_rows(alpha, 0.0, deg, xi2, derivative=derivatives)
    jac, djac = rows if derivatives else (rows, None)
    indices = multi_indices(spec.degree)
    ms, ns = np.array(indices).T
    c = np.array([norm_constant(m, n) for m, n in indices])[:, None]
    qk, jk = q[ms], jac[ns, ms]
    blocks = [c * qk * jk]
    if derivatives:
        blocks += [c * q1[ms] * jk, c * (q2[ms] * jk + qk * djac[ns, ms])]
    return np.ascontiguousarray(np.stack(blocks).transpose(0, 2, 1))


def _nan_filled(alloc):
    """`alloc` (np.empty or np.empty_like) returning float arrays full of NaN."""

    def filled(*args, **kwargs):
        out = alloc(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    return filled


@pytest.mark.parametrize("degree", range(27))
def test_vandermonde_is_bitwise_the_reference(degree, monkeypatch):
    # uninitialized memory reads as NaN here, so a row of the recurrence
    # stacks that is read before it is written shows as a mismatch
    monkeypatch.setattr(np, "empty", _nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", _nan_filled(np.empty_like))
    spec = BasisSpec(degree)
    corners = [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]  # (-1, 1) is the collapsed vertex
    rng = np.random.default_rng(degree)
    point_sets = [
        np.vstack([random_interior(rng, 30), corners]),
        np.array(corners),
        np.array([(-1.0, 1.0)]),
        random_interior(rng, 1),
    ]
    with np.errstate(all="raise"):
        for pts in point_sets:
            values_only = vandermonde(spec, pts)
            (ref_values,) = _reference_vandermonde(spec, pts)
            assert values_only.d_xi1 is None and values_only.d_xi2 is None
            assert np.array_equal(values_only.values, ref_values)
            _, *ref_derivatives = _reference_vandermonde(spec, pts, derivatives=True)
            # a derivative call, and derivatives added to a values-only call
            ev, later = vandermonde(spec, pts, derivatives=True), _differentiate(values_only)
            assert np.array_equal(ev.values, ref_values)
            for block, later_block, expected in zip(
                (ev.d_xi1, ev.d_xi2), (later.d_xi1, later.d_xi2), ref_derivatives
            ):
                assert block.flags.c_contiguous
                assert np.array_equal(block, later_block)
                # the product rounds differently from the differentiated
                # recurrence; Markov's inequality bounds a derivative on the
                # triangle by degree^2 times the function's size
                bound = degree**2 * np.finfo(float).eps * max(np.abs(expected).max(), 1.0)
                assert np.max(np.abs(block - expected)) <= bound


@pytest.mark.parametrize("npts", [1, 7, 66])
def test_derivative_columns_do_not_depend_on_the_tabulation_degree(npts):
    # the degree-d derivative columns of a degree-D tabulation are the
    # degree-d tabulation's, bit for bit
    pts = random_interior(np.random.default_rng(npts), npts)
    evs = [vandermonde(BasisSpec(degree), pts, derivatives=True) for degree in range(26)]
    for big, ev in enumerate(evs):
        for small in evs[:big]:
            k = small.values.shape[1]
            assert np.array_equal(ev.d_xi1[:, :k], small.d_xi1)
            assert np.array_equal(ev.d_xi2[:, :k], small.d_xi2)


# ------------------------------------------------------------ integrals


def test_kd_integral_values():
    b = integrals_vector(BasisSpec(5))
    assert b[rank_of(0, 0)] == 2.0
    assert b[rank_of(3, 2)] == 0.0
    assert b[rank_of(0, 1)] == 0.0
