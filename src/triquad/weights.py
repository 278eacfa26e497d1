"""Generalized Newton-Cotes weights and their point-position derivatives.

For N = dim P_d points {z_j}, the weights solve the square system

    sum_j w_j g_k(z_j) = integral(g_k)   for every basis function of P_d,

i.e. V^T w = b with b = (2, 0, ..., 0) in the orthogonal basis.  Because
any strength >= d rule on the same points must satisfy the same system,
these weights are unique.  The derivative of the weights with respect to
the point coordinates follows from differentiating through the solve:
with b constant,  dw = -V^{-T} (dV^T) w.

This module owns the one solve and its two acceptance gates
(CONDITION_LIMIT, RESIDUAL_LIMIT).  The optimizer reuses that solve on its
degree-(d+e) tabulation, whose first dim P_d columns are V, and builds the
shell residual and its Jacobian from the returned factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .basis import BasisEvaluation, BasisSpec, integrals_vector, vandermonde

#: Condition-estimate threshold beyond which a configuration is rejected.
CONDITION_LIMIT = 1e14

#: Back-substitution residual limit for a trustworthy solve.
RESIDUAL_LIMIT = 1e-10


class DegenerateConfigurationError(RuntimeError):
    """Point set whose Vandermonde system is numerically singular."""

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class WeightSolution:
    """Newton-Cotes weights with solve diagnostics."""

    weights: np.ndarray
    condition_estimate: float
    solve_residual: float


def _factorize(a: np.ndarray):
    """LU-factor `a` and estimate its 1-norm condition number."""
    lu, piv = lu_factor(a)
    gecon = get_lapack_funcs("gecon", (a,))
    anorm = np.linalg.norm(a, 1)
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0.0 or not np.isfinite(rcond):
        cond = float("inf")
    else:
        cond = 1.0 / rcond
    return (lu, piv), cond


def _solve_system(spec: BasisSpec, ev: BasisEvaluation):
    """The one Newton-Cotes solve: factor V^T, gate it, solve for the weights.

    `ev` tabulates a basis of any degree >= spec.degree at dim P_d points;
    V is its first spec.dim columns.  Returns (lu_and_piv, weights,
    condition, residual) so callers can reuse the factorization.
    """
    npts = ev.values.shape[0]
    if npts != spec.dim:
        raise ValueError(
            f"need exactly dim P_{spec.degree} = {spec.dim} points, got {npts}"
        )
    a = ev.values[:, : spec.dim].T
    lu_piv, cond = _factorize(a)
    b = integrals_vector(spec)
    if cond > CONDITION_LIMIT:
        raise DegenerateConfigurationError(
            f"degenerate configuration: condition estimate {cond:.3e} "
            f"exceeds {CONDITION_LIMIT:.1e}",
            cond,
        )
    w = lu_solve(lu_piv, b)
    residual = float(np.max(np.abs(a @ w - b)))
    if residual > RESIDUAL_LIMIT:
        raise DegenerateConfigurationError(
            f"degenerate configuration: solve residual {residual:.3e} "
            f"exceeds {RESIDUAL_LIMIT:.1e}",
            cond,
        )
    return lu_piv, w, cond, residual


def newton_cotes_weights(spec: BasisSpec, points) -> WeightSolution:
    """Unique weights making `points` exact on all of P_d.

    Raises DegenerateConfigurationError when the condition estimate exceeds
    CONDITION_LIMIT or the back-substitution residual exceeds RESIDUAL_LIMIT.
    """
    ev = vandermonde(spec, points)
    _, w, cond, residual = _solve_system(spec, ev)
    return WeightSolution(weights=w, condition_estimate=cond, solve_residual=residual)


def weight_jacobian(spec: BasisSpec, points) -> np.ndarray:
    """Derivatives of every weight with respect to every point coordinate.

    Returns an (N, 2N) matrix; column 2j + c holds dw/d(coordinate c of
    point j), with coordinates ordered (xi1, xi2).  Computed from the
    implicit-function identity dw = -V^{-T} (dV^T) w.
    """
    ev = vandermonde(spec, points, derivatives=True)
    lu_piv, w, _, _ = _solve_system(spec, ev)
    return _weight_jacobian_from_parts(ev, lu_piv, w)


def _weight_jacobian_from_parts(ev: BasisEvaluation, lu_piv, w: np.ndarray) -> np.ndarray:
    """Assemble -V^{-T} (dV^T) w from the derivative blocks of `ev`.

    Only the first N = len(w) columns of the blocks (the basis of P_d) enter.
    """
    n = w.shape[0]
    # rhs column 2j+c is w_j * d g(.)/d xi_c at z_j, over all basis functions
    rhs = np.empty((n, 2 * n))
    rhs[:, 0::2] = w[None, :] * ev.d_xi1[:, :n].T
    rhs[:, 1::2] = w[None, :] * ev.d_xi2[:, :n].T
    return -lu_solve(lu_piv, rhs)
