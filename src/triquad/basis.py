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

which never forms eta.  Values therefore come from one division-free path
at every point of the closed triangle, the collapsed vertex included, and
gradients from those values.

A values tabulation is one stacked three-term recurrence.  It runs Q_k
over P_k^{2m+1,0}(xi2) for every m in one array, one step per order k:

    X_{k+1} = (L_k * X_k - W_k * X_{k-1}) / a1,

with L = a2 + a3 * xi2 and W = a4 on the alpha rows, and L = (2k+1) t,
W = k s^2 and a1 = k+1 on the Q rows: each row groups and rounds exactly
as its own recurrence does.  The operands L and W of every step are formed
up front, a few array operations for all steps together.  The stack holds
only the rows that the m + n <= degree triangle reads: order k keeps Q_k and
P_k^{2m+1,0} for m <= degree - k, so the steps shrink with k, and no row is
read before it is written.  Everything that depends on the degree alone
is built once per degree and cached in a plan: the P_n^{2m+1,0}
recurrence coefficients (the general P_n^{alpha,beta} ones with beta = 0
substituted, since no other beta occurs) in stack rows, the Q rows'
operands, the stack layout, the (m, n) gather rows and the normalization
constants.

Gradients come from the values.  The derivative of a degree-t polynomial
lies in P_{t-1}, so both gradient blocks of the shell m + n = t are the
values of P_{t-1} times a constant differentiation matrix (the Dr = Vr V^-1
of Hesthaven & Warburton, Nodal Discontinuous Galerkin Methods, 2008, in
the orthogonal basis).  Its entry for g_{j,l} (j + l < t) and the shell
function g_{m,n} is (1/2) integral(g_{j,l} dg_{m,n}).  In the collapsed
coordinates, where the triangle integral of f is that of f s over
(eta, xi2), d/dxi1 = (1/s) d/deta and d/dxi2 = ((1 + eta)/(2s)) d/deta +
d/dxi2 at fixed eta, the eta integrals are exact Legendre sums (P_m' sums
(2k+1) P_k over k < m with m - k odd).  What is left is an integral along
the edge xi1 = -1, where g_{j,l} = c_{j,l} (-1)^j s^j P_l^{2j+1,0}(xi2).
With G the basis on that edge, Gamma = integral(G_{j,l} G_{m,n}) and
Gamma' = integral(G_{j,l} s G'_{m,n}) along it:

    d/dxi1 entry = -Gamma if j < m and m - j is odd, else 0,
    d/dxi2 entry = (-1)^(j+m) Gamma / 2 if j < m,
                   (Gamma' + m Gamma / 2) / (2m + 1) if j = m, else 0.

Every integral an entry uses has the factor 1 - xi2 in its integrand, so
the t-point Gauss-Jacobi(1, 0) rule, exact to degree 2t - 1, is exact.
G' is the complex step of the value sweep along the edge, Im G(xi2 + i h)
/ h (Squire & Trapp, SIAM Rev. 40, 1998), which forms no difference.  One
edge sweep gives every shell's matrix, cached per degree.  Each matrix is
built from its own rule and columns and multiplied in a product of its
own, with the same shapes at every tabulation degree, so the derivative
columns of a degree are bitwise independent of the degree of the
tabulation they sit in.

Basis enumeration is graded lexicographic and frozen: total degree
ascending, m ascending within each degree.  Residual vectors, rule files
and reports all index basis functions in this order.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cache, lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .domain import _gauss_jacobi_10, as_point_array


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


@cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None."""
    try:  # dlsym searches the extension's dependencies
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):  # another numpy build
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _one_blas_thread:
    """Run the body at one OpenBLAS thread, whose bits do not depend on
    OPENBLAS_NUM_THREADS, and restore the caller's count after it.

    A context manager, or a decorator with `@_one_blas_thread()`.  Where the
    count is already 1, as under a caller's pin, it sets nothing: the search
    enters it again at every configuration it evaluates.  Each entry keeps
    its own count, so it is reentrant.
    """

    def __enter__(self):
        get, self._put = _openblas_threads() or (lambda: 1, None)
        self._count = get()
        if self._count != 1:
            self._put(1)

    def __exit__(self, *exc_info):
        if self._count != 1:
            self._put(self._count)

    def __call__(self, func):
        @wraps(func)
        def pinned(*args, **kwargs):
            with _one_blas_thread():
                return func(*args, **kwargs)
        return pinned


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
    derivative blocks have the same shape.  Derivatives of a values-only
    tabulation are its values times the cached differentiation matrices
    (`_differentiate`), so they can be added later without a second sweep.
    """

    values: np.ndarray
    d_xi1: np.ndarray | None = None
    d_xi2: np.ndarray | None = None


class _Step(NamedTuple):
    """One stacked recurrence step, order k to k + 1.

    Its rows are those of order k + 1: the Q row, then one row per
    alpha 2m + 1 whose P_{k+1} the m + n <= degree triangle reads.  The
    divisor is a column over them.
    """

    prev: slice  # the step's rows at orders k - 1, k and k + 1
    cur: slice
    nxt: slice
    a1: np.ndarray  # divisor


@dataclass(frozen=True)
class _Plan:
    """Per-degree constants of a tabulation, built once per degree.

    A stack holds order k (k = 0..degree) in degree + 2 - k rows from row
    offset[k]: Q_k, then P_k^{2m+1,0} for m <= degree - k.  The step
    operands L = a2 + a3 * xi2 and W = a4 of step k sit at the rows of
    order k + 1, from row `first` on; on the Q row they are (2k+1) t and
    k s^2, for which a2, a3 and a4 hold placeholders.
    """

    degree: int
    size: int  # rows of a stack
    first: int  # the first row of order 2
    alpha: np.ndarray  # 2m + 1 for m < degree, as a column
    slope: np.ndarray  # P_1^{alpha,0}(x) = (slope * x + alpha) / 2
    a2: np.ndarray  # step operands of the rows from `first` on, as columns
    a3: np.ndarray
    a4: np.ndarray
    q_rows: np.ndarray  # the Q rows of orders 2..degree
    q_a3: np.ndarray  # 2k + 1 for those rows, as a column
    q_a4: np.ndarray  # k for those rows, as a column
    steps: tuple[_Step, ...]  # k = 1 .. degree - 1
    q_at: np.ndarray  # stack row of Q_m for column (m, n)
    p_at: np.ndarray  # stack row of P_n^{2m+1,0} for column (m, n)
    c: np.ndarray  # normalization constant of each column, shape (dim, 1)


def _stack(q_row, alpha_rows: np.ndarray) -> np.ndarray:
    """A coefficient column: the Q row's entry over the alpha rows'."""
    return np.concatenate([[[q_row]], alpha_rows])


@lru_cache(maxsize=None)
def _plan(degree: int) -> _Plan:
    alpha = 2.0 * np.arange(degree + 1)[:, None] + 1.0
    slope = alpha + 2.0
    offset = [0]
    for k in range(degree + 1):
        offset.append(offset[-1] + degree + 2 - k)
    steps, a2s, a3s, a4s = [], [], [], []
    for k in range(1, degree):
        # the P_n^{alpha,beta} three-term recurrence coefficients at beta = 0,
        # for the alphas whose P_{k+1} the triangle reads (m <= degree - k - 1)
        al = alpha[: degree - k]
        a1 = 2.0 * (k + 1) * (k + al + 1) * (2 * k + al)
        a2s.append(_stack(0.0, (2 * k + al + 1) * (al * al)))
        a3 = (2 * k + al) * (2 * k + al + 1) * (2 * k + al + 2)
        a3s.append(_stack(0.0, a3))
        a4s.append(_stack(0.0, 2.0 * (k + al) * k * (2 * k + al + 2)))
        r = degree - k + 1
        steps.append(
            _Step(
                slice(offset[k - 1], offset[k - 1] + r),
                slice(offset[k], offset[k] + r),
                slice(offset[k + 1], offset[k + 1] + r),
                _stack(k + 1, a1),
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
        np.concatenate(a2s or [empty]),
        np.concatenate(a3s or [empty]),
        np.concatenate(a4s or [empty]),
        at[2:],
        2.0 * ks + 1.0,
        ks,
        tuple(steps),
        at[ms],
        at[ns] + ms + 1,
        c,
    )
    # every caller at this degree shares these arrays
    arrays = (plan.alpha, plan.slope, plan.a2, plan.a3, plan.a4, plan.q_rows,
              plan.q_a3, plan.q_a4, plan.q_at, plan.p_at, c, *(st.a1 for st in steps))
    for a in arrays:
        a.setflags(write=False)
    return plan


def _value_sweep(plan: _Plan, pts: np.ndarray) -> BasisEvaluation:
    """Basis values at `pts`, in the points' dtype (complex for a complex step)."""
    xi1, xi2 = pts.T
    deg, npts = plan.degree, pts.shape[0]

    # one stacked three-term recurrence for Q_k = s^k P_k(eta) and
    # P_k^{2m+1,0}(xi2) for every m.  Column k of the tabulation is
    # c_k * Q_m * P_n^{2m+1,0} with (m, n) = indices[k]
    t = xi1 + 0.5 * (1.0 + xi2)
    s = 0.5 * (1.0 - xi2)
    s2 = s * s
    x = np.empty((plan.size, npts), dtype=pts.dtype)
    lead = np.empty_like(x)
    lag = np.empty_like(x)
    x[: deg + 2] = 1.0
    if deg >= 1:
        x[deg + 2] = t
        x[deg + 3 : 2 * deg + 3] = 0.5 * (plan.slope * xi2 + plan.alpha)
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

    # (point, function) table, C-contiguous: BLAS products downstream round
    # by memory layout, and the search follows them
    return BasisEvaluation(np.ascontiguousarray((plan.c * x[plan.q_at] * x[plan.p_at]).T))


#: Imaginary step of the complex-step derivative: no difference is formed,
#: so it can sit far below the rounding of the values.
_COMPLEX_STEP = 1e-30


@lru_cache(maxsize=None)
@_one_blas_thread()  # every later caller reads these bits
def _derivative_matrices(degree: int) -> tuple[np.ndarray, ...]:
    """Read-only differentiation matrices of the shells t = 1..degree.

    Row 2i + c of shell t's (2(t+1), dim P_{t-1}) matrix times the values of
    P_{t-1} at a point is d/dxi_c (c = 0: xi1, 1: xi2) of the shell's i-th
    function there.  Its bits depend on t alone, not on `degree`.
    """
    rules = [_gauss_jacobi_10(t) for t in range(1, degree + 1)]
    xi2 = np.concatenate([x for x, _ in rules])
    # the basis on the edge xi1 = -1, complex-stepped along it
    edge = np.column_stack([np.full(xi2.size, -1.0), xi2 + 1j * _COMPLEX_STEP])
    edge = _value_sweep(_plan(degree), edge).values
    ms = np.array(multi_indices(degree))[:, 0]
    matrices = []
    for t, (x, w) in enumerate(rules, start=1):
        lo, hi = dim_poly(t - 1), dim_poly(t)
        at = edge[dim_poly(t - 2) : lo]  # the t points of shell t's rule
        low, shell = at[:, :lo].real, at[:, lo:hi]
        # the edge integrals Gamma and Gamma'; every one an entry uses has
        # the factor 1 - xi2 of the rule's weight
        gram = low.T @ ((w / (1.0 - x))[:, None] * shell.real)
        dgram = low.T @ (0.5 * w[:, None] * shell.imag / _COMPLEX_STEP)
        mj, mk = ms[:lo, None], ms[lo:hi]  # the m of each test and shell function
        d1 = np.where((mj < mk) & ((mk - mj) % 2 == 1), -gram, 0.0)
        d2 = np.where(mj < mk, 0.5 * (-1.0) ** (mj + mk) * gram, 0.0)
        d2 += np.where(mj == mk, (dgram + 0.5 * mk * gram) / (2 * mk + 1), 0.0)
        matrix = np.stack([d1.T, d2.T], axis=1).reshape(2 * (t + 1), lo)
        matrix.setflags(write=False)
        matrices.append(matrix)
    return tuple(matrices)


def _differentiate(ev: BasisEvaluation) -> BasisEvaluation:
    """`ev` with both first-derivative blocks: shell by shell, the shell's
    differentiation matrix times the values of lower degree."""
    values = ev.values
    npts, dim = values.shape
    degree = (math.isqrt(8 * dim + 1) - 3) // 2  # dim = dim_poly(degree)
    # grads[k, c] is d/dxi_c of function k at every point, so a shell's
    # block is one contiguous product
    grads = np.empty((dim, 2, npts))
    grads[0] = 0.0
    hi = 1
    for t in range(1, degree + 1):
        lo, hi = hi, hi + t + 1
        block = grads[lo:hi].reshape(2 * (t + 1), npts)
        np.matmul(_derivative_matrices(degree)[t - 1], values[:, :lo].T, out=block)
    d_xi1, d_xi2 = (np.ascontiguousarray(grads[:, c].T) for c in range(2))
    return BasisEvaluation(values, d_xi1, d_xi2)


def vandermonde(spec: BasisSpec, points, derivatives: bool = False) -> BasisEvaluation:
    """Evaluate every basis function of `spec` at `points`.

    points: (n, 2) array-like in reference coordinates, anywhere in the
    closed triangle.  With derivatives=True the two first-derivative
    blocks are tabulated as well: the value sweep followed by one product
    per shell with its differentiation matrix.
    """
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    ev = _value_sweep(_plan(spec.degree), pts)
    if not derivatives:
        return ev
    with _one_blas_thread():  # the products' bits depend on the thread count
        return _differentiate(ev)


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
