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

A tabulation is two sweeps, each one stacked three-term recurrence.  The
value sweep runs Q_k (twice, as two rows) over P_k^{2m+1,0}(xi2) for every
m in one array, one step per order k:

    X_{k+1} = (L_k * X_k - W_k * X_{k-1}) / a1,

with L = a2 + a3 * xi2 and W = a4 on the alpha rows, and L = (2k+1) t,
W = k s^2 and a1 = k+1 on the Q rows: each row groups and rounds exactly
as its own recurrence does.  The operands L and W of every step are formed
up front, a few array operations for all steps together.  The derivative
sweep is one stacked recurrence as well, with rows dQ_k/dxi2, dQ_k/dxi1
and dP_k^{2m+1,0}/dxi2; each of the three differentiated recurrences is
an instance of

    U_{k+1} = (k1 * (h * X_k + T * U_k) + k2 * (S - V * U_{k-1})) / a1

through exact neutral operands (factors 1.0 and S = -0.0, an exact
-0.0 - x = -x), and it reads the value stack and the value sweep's L and W
(T and V, once their Q rows are set) instead of recomputing them.  A
values-only tabulation keeps those, so derivatives can be added later for
the same points without repeating the value sweep.  The stacks hold only
the rows that the m + n <= degree triangle reads: order k keeps Q_k and
P_k^{2m+1,0} for m <= degree - k, so the steps shrink with k, and no row is
read before it is written.  Everything that depends on the degree alone
is built once per degree and cached in a plan: the P_n^{2m+1,0}
recurrence coefficients (the general P_n^{alpha,beta} ones with beta = 0
substituted, since no other beta occurs) in stack rows, the Q rows'
operands, the stack layout, the (m, n) gather rows and the normalization
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
from typing import NamedTuple

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

    @property
    def dim(self) -> int:
        return dim_poly(self.degree)


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


class _Step(NamedTuple):
    """One stacked recurrence step, order k to k + 1, of both sweeps.

    Its `rows` are those of order k + 1: the two Q rows, then one row per
    alpha 2m + 1 whose P_{k+1} the m + n <= degree triangle reads.  The
    coefficients are (rows, 1) columns.
    """

    rows: int
    prev: slice  # the step's rows at orders k - 1, k and k + 1
    cur: slice
    nxt: slice
    a1: np.ndarray  # divisor of both sweeps
    h: np.ndarray  # derivatives: (k1 * (h * X_k + T * U_k)
    k1: np.ndarray  #     + k2 * (S - V * U_{k-1})) / a1
    k2: np.ndarray


@dataclass(frozen=True)
class _Plan:
    """Per-degree constants of a tabulation, built once per degree.

    A stack holds order k (k = 0..degree) in degree + 3 - k rows from row
    offset[k]: Q_k twice, then P_k^{2m+1,0} for m <= degree - k.  The step
    operands L = a2 + a3 * xi2 and W = a4 of step k sit at the rows of
    order k + 1, from row `first` on; on the Q rows they are (2k+1) t and
    k s^2, for which a2, a3 and a4 hold placeholders.
    """

    degree: int
    size: int  # rows of a stack
    first: int  # the first row of order 2
    alpha: np.ndarray  # 2m + 1 for m < degree, as a column
    slope: np.ndarray  # P_1^{alpha,0}(x) = (slope * x + alpha) / 2
    d_first: np.ndarray  # the derivative rows of order 1
    a2: np.ndarray  # step operands of the rows from `first` on, as columns
    a3: np.ndarray
    a4: np.ndarray
    q_rows: np.ndarray  # rows of Q of orders 2..degree: all row 0s, then row 1s
    q_a3: np.ndarray  # 2k + 1 for those rows, as a column
    q_a4: np.ndarray  # k for those rows, as a column
    steps: tuple[_Step, ...]  # k = 1 .. degree - 1
    q_at: np.ndarray  # stack row of Q_m for column (m, n)
    p_at: np.ndarray  # stack row of P_n^{2m+1,0} for column (m, n)
    c: np.ndarray  # normalization constant of each column, shape (dim, 1)


def _stack(q_row0, q_row1, alpha_rows: np.ndarray) -> np.ndarray:
    """A coefficient column: the two Q rows' entries over the alpha rows'."""
    return np.concatenate([[[q_row0], [q_row1]], alpha_rows])


@lru_cache(maxsize=None)
def _plan(degree: int) -> _Plan:
    alpha = 2.0 * np.arange(degree + 1)[:, None] + 1.0
    slope = alpha + 2.0
    offset = [0]
    for k in range(degree + 1):
        offset.append(offset[-1] + degree + 3 - k)
    steps, a2s, a3s, a4s = [], [], [], []
    for k in range(1, degree):
        # the P_n^{alpha,beta} three-term recurrence coefficients at beta = 0,
        # for the alphas whose P_{k+1} the triangle reads (m <= degree - k - 1)
        al = alpha[: degree - k]
        a1 = 2.0 * (k + 1) * (k + al + 1) * (2 * k + al)
        a2s.append(_stack(0.0, 0.0, (2 * k + al + 1) * (al * al)))
        a3 = (2 * k + al) * (2 * k + al + 1) * (2 * k + al + 2)
        a3s.append(_stack(0.0, 0.0, a3))
        a4s.append(_stack(0.0, 0.0, 2.0 * (k + al) * k * (2 * k + al + 2)))
        one = np.ones_like(al)
        r = degree - k + 2
        # derivative rows dQ/dxi2, dQ/dxi1, then dP/dxi2; the factors 1.0
        # (and S = -0.0) are exact neutrals that leave each row's own
        # recurrence: (2k+1)(0.5 Q_k + t U_k) + k (s Q_{k-1} - s^2 U_{k-1}),
        # (2k+1)(Q_k + t U_k) - k s^2 U_{k-1}, a3 P_k + L U_k - a4 U_{k-1}
        steps.append(
            _Step(
                r,
                slice(offset[k - 1], offset[k - 1] + r),
                slice(offset[k], offset[k] + r),
                slice(offset[k + 1], offset[k + 1] + r),
                _stack(k + 1, k + 1, a1),
                _stack(0.5, 1.0, a3),
                _stack(2 * k + 1, 2 * k + 1, one),
                _stack(k, 1.0, one),
            )
        )
    indices = multi_indices(degree)
    ms, ns = np.array(indices).T
    at = np.array(offset[:-1])
    ks = np.arange(1.0, degree)[:, None]
    c = np.array([norm_constant(m, n) for m, n in indices])[:, None]
    empty = np.empty((0, 1))
    plan = _Plan(
        degree,
        offset[-1],
        offset[min(2, degree + 1)],
        alpha[:degree],
        slope[:degree],
        _stack(0.5, 1.0, 0.5 * slope[:degree]),
        np.concatenate(a2s or [empty]),
        np.concatenate(a3s or [empty]),
        np.concatenate(a4s or [empty]),
        np.concatenate([at[2:], at[2:] + 1]),
        np.concatenate([2.0 * ks + 1.0] * 2),
        np.concatenate([ks] * 2),
        tuple(steps),
        at[ms],
        at[ns] + ms + 2,
        c,
    )
    # every caller at this degree shares these arrays
    arrays = (plan.alpha, plan.slope, plan.d_first, plan.a2, plan.a3, plan.a4,
              plan.q_rows, plan.q_a3, plan.q_a4, plan.q_at, plan.p_at, c,
              *chain(*((st.a1, st.h, st.k1, st.k2) for st in steps)))
    for a in arrays:
        a.setflags(write=False)
    return plan


@dataclass(frozen=True)
class _ValueSweep:
    """The tables of a value sweep that its derivative sweep reads."""

    plan: _Plan
    t: np.ndarray
    s: np.ndarray
    s2: np.ndarray
    x: np.ndarray  # the value stack
    lead: np.ndarray  # the step operands L and W, in stack rows
    lag: np.ndarray
    qk: np.ndarray  # Q_m and P_n^{2m+1,0} gathered per column (m, n)
    jk: np.ndarray


def _value_sweep(plan: _Plan, pts: np.ndarray) -> BasisEvaluation:
    """Basis values at `pts`, keeping the tables for a derivative sweep."""
    xi1, xi2 = pts.T
    deg, npts = plan.degree, pts.shape[0]

    # one stacked three-term recurrence for Q_k = s^k P_k(eta), twice, and
    # P_k^{2m+1,0}(xi2) for every m.  Column k of the tabulation is
    # c_k * Q_m * P_n^{2m+1,0} with (m, n) = indices[k]
    t = xi1 + 0.5 * (1.0 + xi2)
    s = 0.5 * (1.0 - xi2)
    s2 = s * s
    x = np.empty((plan.size, npts))
    lead = np.empty_like(x)
    lag = np.empty_like(x)
    x[: deg + 3] = 1.0
    if deg >= 1:
        x[deg + 3 : deg + 5] = t
        x[deg + 5 : 2 * deg + 5] = 0.5 * (plan.slope * xi2 + plan.alpha)
    # L and W of every step at once, then one division per step
    o = plan.first
    np.multiply(plan.a3, xi2, out=lead[o:])
    np.add(plan.a2, lead[o:], out=lead[o:])
    lead[plan.q_rows] = plan.q_a3 * t
    lag[o:] = plan.a4
    lag[plan.q_rows] = plan.q_a4 * s2
    for st in plan.steps:
        nxt = st.nxt
        np.divide(lead[nxt] * x[st.cur] - lag[nxt] * x[st.prev], st.a1, out=x[nxt])

    qk, jk = x[plan.q_at], x[plan.p_at]
    # (point, function) tables, C-contiguous: BLAS products downstream round
    # by memory layout, and the search follows them
    values = np.ascontiguousarray((plan.c * qk * jk).T)
    sweep = _ValueSweep(plan, t, s, s2, x, lead, lag, qk, jk)
    return BasisEvaluation(values, _sweep=sweep)


def _derivative_sweep(ev: BasisEvaluation) -> BasisEvaluation:
    """`ev` with both first-derivative blocks, from its kept value tables.

    Differentiates the stacked recurrence as one stacked recurrence whose
    Q rows are dQ_k/dxi2 and dQ_k/dxi1 and whose alpha rows are
    dP_k^{2m+1,0}/dxi2.  The value stack and the value sweep's step
    operands L and W are read, as T and V, not recomputed.
    """
    sw = ev._sweep
    plan, x, lead, lag = sw.plan, sw.x, sw.lead, sw.lag
    deg = plan.degree

    u = np.empty_like(x)
    u[: deg + 3] = 0.0
    if deg >= 1:
        u[deg + 3 : 2 * deg + 5] = plan.d_first
    # the kept operands' Q rows become the derivative's, idempotently: both
    # dQ rows step in t, and dQ/dxi2 (the first Q row) weighs U_{k-1} by s^2
    lead[plan.q_rows] = sw.t
    lag[plan.q_rows[: len(plan.steps)]] = sw.s2
    # S: s Q_{k-1} on the dQ/dxi2 row, -0.0 (an exact 0 - x) on the others
    shift = np.full((deg + 1, x.shape[1]), -0.0)
    for st in plan.steps:
        cur, nxt = st.cur, st.nxt
        np.multiply(sw.s, x[st.prev.start], out=shift[0])
        head = lead[nxt] * u[cur]
        head += st.h * x[cur]
        head *= st.k1
        tail = lag[nxt] * u[st.prev]
        np.subtract(shift[: st.rows], tail, out=tail)
        tail *= st.k2
        head += tail
        np.divide(head, st.a1, out=u[nxt])

    q_at, c = plan.q_at, plan.c
    d_xi1 = c * u[q_at + 1] * sw.jk
    d_xi2 = c * (u[q_at] * sw.jk + sw.qk * u[plan.p_at])
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


#: Every exactness gate also passes a residual within `rounding_floor`.
FLOOR_FACTOR = 256


def rounding_floor(weights, scale) -> float:
    """FLOOR_FACTOR * eps * sum_j |w_j| scale_j: rounding in sum_j w_j f(z_j), |f| <= scale."""
    return FLOOR_FACTOR * np.finfo(float).eps * float(np.sum(np.abs(weights) * scale))


def gram_matrix(spec: BasisSpec, n_nodes: int = 40) -> np.ndarray:
    """Numeric Gram matrix via the tensorized Gauss oracle quadrature."""
    pts, wts = gauss_quadrature(n_nodes)
    v = vandermonde(spec, pts).values
    return v.T @ (wts[:, None] * v)

