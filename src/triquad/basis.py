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

A tabulation is two sweeps.  The value sweep runs the Q_m recurrence and,
in the same loop, the P_n^{2m+1,0} recurrence for every m at once, and
gathers the columns.  The derivative sweep differentiates both
recurrences, reading the value tables rather than recomputing them; a
values-only tabulation keeps those tables, so derivatives can be added
later for the same points without repeating the value sweep.  Everything
that depends on the degree alone is built once per degree and cached in a
plan: the P_n^{2m+1,0} recurrence coefficients for the vector of alphas
(the general P_n^{alpha,beta} ones with beta = 0 substituted, since no
other beta occurs), the (m, n) gather indices and the normalization
constants.

Basis enumeration is graded lexicographic and frozen: total degree
ascending, m ascending within each degree.  Residual vectors, rule files
and reports all index basis functions in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

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


@dataclass(frozen=True)
class BasisEvaluation:
    """Vandermonde-style tabulation of all basis functions at a point set.

    values[j, k] is the k-th basis function at the j-th point; the optional
    derivative blocks have the same shape.  A values-only tabulation keeps
    the value tables its derivative sweep reads (`_sweep`).
    """

    values: np.ndarray
    d_xi1: np.ndarray | None = None
    d_xi2: np.ndarray | None = None
    _sweep: "_ValueSweep | None" = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _Plan:
    """Per-degree constants of a tabulation, built once per degree."""

    degree: int
    alpha: np.ndarray  # 2m + 1 for every m, as a column
    slope: np.ndarray  # P_1^{alpha,0}(x) = (slope * x + alpha) / 2
    steps: tuple  # (a1, a2, a3, a4): P_{k+1}^{alpha,0} from P_k, P_{k-1}, k >= 1
    ms: np.ndarray  # (m, n) of column k is (ms[k], ns[k])
    ns: np.ndarray
    c: np.ndarray  # normalization constant of column k, shape (dim, 1)


@lru_cache(maxsize=None)
def _plan(degree: int) -> _Plan:
    alpha = 2.0 * np.arange(degree + 1)[:, None] + 1.0
    # the P_n^{alpha,beta} three-term recurrence coefficients at beta = 0
    steps = tuple(
        (
            2.0 * (k + 1) * (k + alpha + 1) * (2 * k + alpha),
            (2 * k + alpha + 1) * (alpha * alpha),
            (2 * k + alpha) * (2 * k + alpha + 1) * (2 * k + alpha + 2),
            2.0 * (k + alpha) * k * (2 * k + alpha + 2),
        )
        for k in range(1, degree)
    )
    indices = multi_indices(degree)
    ms, ns = np.array(indices).T
    c = np.array([norm_constant(m, n) for m, n in indices])[:, None]
    plan = _Plan(degree, alpha, alpha + 2.0, steps, ms, ns, c)
    # every caller at this degree shares these arrays
    for a in (alpha, plan.slope, ms, ns, c, *chain(*steps)):
        a.setflags(write=False)
    return plan


@dataclass(frozen=True)
class _ValueSweep:
    """The tables of a value sweep that its derivative sweep reads."""

    plan: _Plan
    xi2: np.ndarray
    t: np.ndarray
    s: np.ndarray
    s2: np.ndarray
    q: np.ndarray  # q[m] = Q_m
    jac: np.ndarray  # jac[n, m] = P_n^{2m+1,0}(xi2)
    qk: np.ndarray  # Q_m and P_n^{2m+1,0} gathered per column (m, n)
    jk: np.ndarray


def _value_sweep(plan: _Plan, pts: np.ndarray) -> BasisEvaluation:
    """Basis values at `pts`, keeping the tables for a derivative sweep."""
    xi1, xi2 = pts.T
    deg = plan.degree

    # q[m] = Q_m = s^m P_m(eta); jac[n, m] = P_n^{2m+1,0}(xi2) for every m
    # at once.  Column k of the tabulation is c_k * Q_m * P_n^{2m+1,0} with
    # (m, n) = indices[k]
    t = xi1 + 0.5 * (1.0 + xi2)
    s = 0.5 * (1.0 - xi2)
    s2 = s * s
    q = np.empty((deg + 1,) + t.shape)
    jac = np.empty((deg + 1, deg + 1) + t.shape)
    q[0] = jac[0] = 1.0
    if deg >= 1:
        q[1] = t
        jac[1] = 0.5 * (plan.slope * xi2 + plan.alpha)
    for m, (a1, a2, a3, a4) in enumerate(plan.steps, start=1):
        q[m + 1] = ((2 * m + 1) * t * q[m] - m * s2 * q[m - 1]) / (m + 1)
        jac[m + 1] = ((a2 + a3 * xi2) * jac[m] - a4 * jac[m - 1]) / a1

    qk, jk = q[plan.ms], jac[plan.ns, plan.ms]
    # (point, function) tables, C-contiguous: BLAS products downstream round
    # by memory layout, and the search follows them
    values = np.ascontiguousarray((plan.c * qk * jk).T)
    sweep = _ValueSweep(plan, xi2, t, s, s2, q, jac, qk, jk)
    return BasisEvaluation(values, _sweep=sweep)


def _derivative_sweep(ev: BasisEvaluation) -> BasisEvaluation:
    """`ev` with both first-derivative blocks, from its kept value tables.

    Differentiates the Q_m and P_n^{2m+1,0} recurrences; the value tables
    are read, not recomputed.
    """
    sw = ev._sweep
    plan, xi2, t, s, s2, q, jac = sw.plan, sw.xi2, sw.t, sw.s, sw.s2, sw.q, sw.jac

    # dQ_m/dxi1, dQ_m/dxi2 and dP_n^{2m+1,0}/dxi2
    q1 = np.zeros_like(q)
    q2 = np.zeros_like(q)
    djac = np.zeros_like(jac)
    if plan.degree >= 1:
        q1[1] = 1.0
        q2[1] = 0.5
        djac[1] = 0.5 * plan.slope
    for m, (a1, a2, a3, a4) in enumerate(plan.steps, start=1):
        q1[m + 1] = (
            (2 * m + 1) * (q[m] + t * q1[m]) - m * s2 * q1[m - 1]
        ) / (m + 1)
        q2[m + 1] = (
            (2 * m + 1) * (0.5 * q[m] + t * q2[m])
            + m * (s * q[m - 1] - s2 * q2[m - 1])
        ) / (m + 1)
        djac[m + 1] = (
            a3 * jac[m] + (a2 + a3 * xi2) * djac[m] - a4 * djac[m - 1]
        ) / a1

    ms, ns, c = plan.ms, plan.ns, plan.c
    d_xi1 = c * q1[ms] * sw.jk
    d_xi2 = c * (q2[ms] * sw.jk + sw.qk * djac[ns, ms])
    return BasisEvaluation(
        ev.values, np.ascontiguousarray(d_xi1.T), np.ascontiguousarray(d_xi2.T)
    )


def vandermonde(spec: BasisSpec, points, derivatives: bool = False) -> BasisEvaluation:
    """Evaluate every basis function of `spec` at `points`.

    points: (n, 2) array-like in reference coordinates, anywhere in the
    closed triangle.  With derivatives=True the two first-derivative
    blocks are tabulated as well: the value sweep followed by the
    derivative sweep.
    """
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    ev = _value_sweep(_plan(spec.degree), pts)
    return _derivative_sweep(ev) if derivatives else ev


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
