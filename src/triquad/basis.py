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

The collapsed coordinate eta degenerates at the top vertex xi2 = 1.  The
product P_m(eta) * (1 - xi2)^m is a genuine bivariate polynomial, so values
near the vertex are computed from its homogenized power-basis expansion;
gradients there are refused for m >= 1 (see CollapsedVertexError).

Basis enumeration is graded lexicographic and frozen: total degree
ascending, m ascending within each degree.  Residual vectors, rule files
and reports all index basis functions in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .domain import as_point_array, gauss_quadrature

#: Points with xi2 above 1 - VERTEX_TOL take the expanded-polynomial path.
VERTEX_TOL = 1e-10


class CollapsedVertexError(ValueError):
    """Gradient requested at the collapsed vertex where the factored form degenerates."""


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


def index_of(k: int) -> tuple[int, int]:
    """Inverse of :func:`rank_of`: the k-th multi-index."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    # total degree t is the largest with t(t+1)/2 <= k
    t = int((math.isqrt(8 * k + 1) - 1) // 2)
    m = k - dim_poly(t - 1)
    return m, t - m


def _jacobi_rows(alpha: float, beta: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """Table of P_n^{alpha,beta}(x) for n = 0..nmax, shape (nmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * ((alpha + beta + 2.0) * x + (alpha - beta))
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
    return out


def norm_constant(m: int, n: int) -> float:
    """Scale making integral(g_{m,n}^2) over the triangle equal 2."""
    return math.sqrt((2 * m + 1) * (m + n + 1))


@lru_cache(maxsize=None)
def _legendre_power_coeffs(m: int) -> tuple[float, ...]:
    """Power-basis coefficients of the Legendre polynomial P_m, ascending."""
    e = np.zeros(m + 1)
    e[m] = 1.0
    return tuple(np.polynomial.legendre.leg2poly(e))


def _collapsed_product(m: int, xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
    """P_m(eta) * ((1 - xi2)/2)^m evaluated without forming eta.

    Homogenizes P_m(u/v) * (v/2)^m with u = 2*xi1 + xi2 + 1, v = 1 - xi2,
    which is polynomial in (xi1, xi2) and therefore regular at the vertex.
    """
    u = 2.0 * xi1 + xi2 + 1.0
    v = 1.0 - xi2
    coeffs = _legendre_power_coeffs(m)
    acc = np.zeros_like(u)
    for k, c in enumerate(coeffs):
        acc += c * u**k * v ** (m - k)
    return acc / 2.0**m


@dataclass(frozen=True)
class BasisSpec:
    """Basis of the polynomial space of total degree `degree`."""

    degree: int
    normalized: bool = True

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
        if not self.normalized:
            return np.ones(self.dim)
        return np.array([norm_constant(m, n) for m, n in self.indices])


@dataclass(frozen=True)
class BasisEvaluation:
    """Vandermonde-style tabulation of all basis functions at a point set.

    values[j, k] is the k-th basis function at the j-th point; the optional
    derivative blocks have the same shape.
    """

    spec: BasisSpec
    points: np.ndarray
    values: np.ndarray
    d_xi1: np.ndarray | None = field(default=None)
    d_xi2: np.ndarray | None = field(default=None)


def vandermonde(spec: BasisSpec, points, derivatives: bool = False) -> BasisEvaluation:
    """Evaluate every basis function of `spec` at `points`.

    points: (n, 2) array-like in reference coordinates.  With
    derivatives=True the two first-derivative blocks are tabulated as
    well; this raises CollapsedVertexError if any point sits
    within VERTEX_TOL of the collapsed vertex while the basis contains
    m >= 1 functions.
    """
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    xi1, xi2 = pts[:, 0].copy(), pts[:, 1].copy()
    npts, deg = pts.shape[0], spec.degree

    near = xi2 > 1.0 - VERTEX_TOL
    if derivatives and deg >= 1 and near.any():
        raise CollapsedVertexError(
            "gradient undefined in factored form at the collapsed vertex "
            f"(xi2 >= {1.0 - VERTEX_TOL})"
        )

    s = 0.5 * (1.0 - xi2)
    safe = np.where(near, 1.0, s)
    eta = (2.0 * xi1 + xi2 + 1.0) / (2.0 * safe)

    # s^m for m = 0..deg, and the Legendre/Jacobi recurrence tables.
    spow = np.vstack([s**m for m in range(deg + 1)])
    leg = _jacobi_rows(0.0, 0.0, deg, eta)

    values = np.empty((npts, dim_poly(deg)))
    consts = spec.constants()
    d1 = d2 = None
    if derivatives:
        d1 = np.zeros_like(values)
        d2 = np.zeros_like(values)
        dleg = np.zeros_like(leg)
        if deg >= 1:
            # P_m'(eta) = ((m+1)/2) P_{m-1}^{1,1}(eta)
            p11 = _jacobi_rows(1.0, 1.0, deg - 1, eta)
            for m in range(1, deg + 1):
                dleg[m] = 0.5 * (m + 1) * p11[m - 1]

    for m in range(deg + 1):
        jac = _jacobi_rows(2.0 * m + 1.0, 0.0, deg - m, xi2)
        interior = leg[m] * spow[m]
        if near.any() and m >= 1:
            interior = np.where(near, _collapsed_product(m, xi1, xi2), interior)
        if derivatives:
            djac = np.zeros_like(jac)
            if deg - m >= 1:
                jshift = _jacobi_rows(2.0 * m + 2.0, 1.0, deg - m - 1, xi2)
                for n in range(1, deg - m + 1):
                    djac[n] = 0.5 * (n + 2 * m + 2) * jshift[n - 1]
        for n in range(deg - m + 1):
            k = rank_of(m, n)
            c = consts[k]
            values[:, k] = c * interior * jac[n]
            if derivatives:
                if m == 0:
                    d1[:, k] = 0.0
                    d2[:, k] = c * djac[n]
                else:
                    sm1 = spow[m - 1]
                    d1[:, k] = c * dleg[m] * sm1 * jac[n]
                    d2[:, k] = c * (
                        sm1 * (0.5 * (1.0 + eta) * dleg[m] - 0.5 * m * leg[m]) * jac[n]
                        + interior * djac[n]
                    )
    return BasisEvaluation(spec=spec, points=pts, values=values, d_xi1=d1, d_xi2=d2)


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
