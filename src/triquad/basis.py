"""Orthogonal polynomial basis on the triangle.

Implements Jacobi polynomials via the standard three-term recurrence and
the Koornwinder-Dubiner orthogonal basis

    g_{m,n}(xi) = c_{m,n} * P_m^{0,0}(eta) * ((1 - xi2)/2)^m * P_n^{2m+1,0}(xi2),
    eta = (2*xi1 + xi2 + 1) / (1 - xi2),

on the reference triangle, together with first derivatives, exact
integrals, and Vandermonde assembly.  With c_{m,n} = sqrt((2m+1)(m+n+1))
every basis function satisfies the normalization integral(g^2) = 2 over
the triangle (the triangle area), which the certification and weight
machinery relies on.

The collapsed coordinate eta degenerates at the top vertex xi2 = 1, but
Q_m = P_m(eta) * s^m with s = (1 - xi2)/2 is a polynomial in (xi1, xi2).
Multiplying the Legendre recurrence through by s^(m+1) gives, with
t = xi1 + (1 + xi2)/2 = eta * s,

    (m+1) Q_{m+1} = (2m+1) t Q_m - m s^2 Q_{m-1},   Q_0 = 1, Q_1 = t,

which never forms eta.  Values and gradients therefore come from one
division-free path at every point of the closed triangle, the collapsed
vertex included.

Basis enumeration is graded lexicographic and frozen: total degree
ascending, m ascending within each degree.  Residual vectors, rule files
and reports all index basis functions in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import as_point_array, gauss_quadrature


def dim_poly(degree: int) -> int:
    """Dimension of the total-degree-`degree` polynomial space on the plane."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def multi_indices(degree: int) -> tuple[tuple[int, int], ...]:
    """All (m, n) with m + n <= degree, in the frozen enumeration order."""
    return tuple(
        (m, t - m) for t in range(degree + 1) for m in range(t + 1)
    )


def rank_of(m: int, n: int) -> int:
    """Position of index (m, n) in the enumeration."""
    if m < 0 or n < 0:
        raise ValueError("multi-index entries must be nonnegative")
    return dim_poly(m + n - 1) + m


def _jacobi_rows(
    alpha: float | np.ndarray, beta: float, nmax: int, x: np.ndarray, derivative: bool = False
):
    """Table of P_n^{alpha,beta}(x) for n = 0..nmax, shape (nmax+1, len(x)).

    An array `alpha` broadcasts against x, giving one table per alpha in
    the same sweep: shape (nmax+1,) + broadcast(alpha, x).shape.  With
    derivative=True returns (table, d/dx table), the latter from the
    differentiated recurrence.
    """
    x = np.asarray(x, dtype=float)
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


def norm_constant(m: int, n: int) -> float:
    """Scale making integral(g_{m,n}^2) over the triangle equal 2."""
    return math.sqrt((2 * m + 1) * (m + n + 1))


@dataclass(frozen=True)
class BasisSpec:
    """Basis of the polynomial space of total degree `degree`."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        _verify_normalization_once()

    @property
    def dim(self) -> int:
        return dim_poly(self.degree)

    @property
    def indices(self) -> tuple[tuple[int, int], ...]:
        return multi_indices(self.degree)

    def constants(self) -> np.ndarray:
        return np.array([norm_constant(m, n) for m, n in self.indices])


@dataclass(frozen=True)
class BasisEvaluation:
    """Vandermonde-style tabulation of all basis functions at a point set.

    values[j, k] is the k-th basis function at the j-th point; the optional
    derivative blocks have the same shape.
    """

    values: np.ndarray
    d_xi1: np.ndarray | None = None
    d_xi2: np.ndarray | None = None


def vandermonde(spec: BasisSpec, points, derivatives: bool = False) -> BasisEvaluation:
    """Evaluate every basis function of `spec` at `points`.

    points: (n, 2) array-like in reference coordinates, anywhere in the
    closed triangle.  With derivatives=True the two first-derivative
    blocks are tabulated as well, by differentiating the Q_m and
    P_n^{2m+1,0} recurrences alongside the values.
    """
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    xi1, xi2 = pts.T
    deg = spec.degree

    # Q_m = s^m P_m(eta) and its partials dQ_m/dxi1, dQ_m/dxi2
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

    # jac[n, m] = P_n^{2m+1,0}(xi2) for every m at once; column k of the
    # tabulation is c_k * Q_m * P_n^{2m+1,0} with (m, n) = indices[k]
    alpha = 2.0 * np.arange(deg + 1)[:, None] + 1.0
    rows = _jacobi_rows(alpha, 0.0, deg, xi2, derivative=derivatives)
    jac, djac = rows if derivatives else (rows, None)
    ms, ns = np.array(spec.indices).T
    c = spec.constants()[:, None]
    qk, jk = q[ms], jac[ns, ms]
    blocks = [c * qk * jk]
    if derivatives:
        blocks += [c * q1[ms] * jk, c * (q2[ms] * jk + qk * djac[ns, ms])]
    # values, d_xi1, d_xi2 as C-contiguous (point, function) tables: BLAS
    # products downstream round by memory layout, and the search follows them
    return BasisEvaluation(*np.ascontiguousarray(np.stack(blocks).transpose(0, 2, 1)))


def integrals_vector(spec: BasisSpec) -> np.ndarray:
    """Right-hand side of the Newton-Cotes system: (2, 0, ..., 0)."""
    b = np.zeros(spec.dim)
    b[0] = 2.0
    return b


def gram_matrix(spec: BasisSpec, n_nodes: int = 40) -> np.ndarray:
    """Numeric Gram matrix via the tensorized Gauss oracle quadrature."""
    pts, wts = gauss_quadrature(n_nodes)
    v = vandermonde(spec, pts).values
    return v.T @ (wts[:, None] * v)


_NORMALIZATION_OK = False


def _verify_normalization_once(degree: int = 6, tol: float = 1e-11) -> None:
    """One-time startup check: closed-form constants against the numeric Gram."""
    global _NORMALIZATION_OK
    if _NORMALIZATION_OK:
        return
    _NORMALIZATION_OK = True  # set before the check so BasisSpec below does not recurse
    g = gram_matrix(BasisSpec(degree), n_nodes=2 * degree + 4)
    err = np.max(np.abs(g - 2.0 * np.eye(dim_poly(degree))))
    if err > tol:
        _NORMALIZATION_OK = False
        raise AssertionError(
            f"basis normalization self-check failed: Gram deviates by {err:.3e}"
        )
