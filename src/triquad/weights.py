"""Generalized Newton-Cotes weights and their point-position derivatives.

For N = dim P_d points {z_j}, the weights solve the square system

    sum_j w_j g_k(z_j) = integral(g_k)   for every basis function of P_d,

i.e. V^T w = b with b = (2, 0, ..., 0) in the orthogonal basis.  Because
any strength >= d rule on the same points must satisfy the same system,
these weights are unique.  The derivative of the weights with respect to
the point coordinates follows from differentiating through the solve:
with b constant,  dw = -V^{-T} (dV^T) w.

`WeightSolution` is the one evaluation of a point set.  It tabulates the
basis of an extended degree d+e >= d once (values only), takes V as the
first dim P_d columns, factors and gates the solve (CONDITION_LIMIT,
RESIDUAL_LIMIT or its floor), and forms the residual of the shell d < m+n <= d+e,

    r_k = sum_j w_j g_k(z_j),

whose integrals vanish because every shell function is orthogonal to
constants.  `linearize()` adds the derivatives from the kept tabulation and
factorization: the weight Jacobian and the shell Jacobian
dr_k = w_j * grad g_k(z_j) + sum_i dw_i * g_k(z_i).  The weight functions
here and the optimizer's residual, Jacobian and search all read it.

The solve calls LAPACK's getrf, gecon and getrs through handles resolved
once at import, not through scipy's `lu_factor`/`lu_solve` wrappers, whose
per-call argument handling costs more than factoring an N = 28 system.
The wrappers run the same routines on the same arrays, so the weights are
the same bits.  Their finiteness check is kept, with its ValueError text;
an exactly zero pivot, where `lu_factor` only warns, is a degenerate
configuration with condition estimate inf.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .basis import BasisSpec, _derivative_sweep, integrals_vector, rounding_floor, vandermonde

#: Condition-estimate threshold beyond which a configuration is rejected.
CONDITION_LIMIT = 1e14

#: Back-substitution residual limit for a trustworthy solve.
RESIDUAL_LIMIT = 1e-10


class DegenerateConfigurationError(RuntimeError):
    """Point set whose Vandermonde system is numerically singular."""

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


# every matrix factored here is float64
_getrf, _getrs, _gecon = get_lapack_funcs(
    ("getrf", "getrs", "gecon"), dtype=np.float64
)


def _factorize(a: np.ndarray):
    """LU-factor `a` and estimate its 1-norm condition number.

    The condition estimate is inf for an exactly singular `a` (a zero
    pivot).  Raises ValueError, with scipy's `lu_factor` text, unless
    every entry is finite.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = _getrf(a)
    if info > 0:  # an exactly zero pivot: singular, whatever gecon would say
        return (lu, piv), float("inf")
    rcond, info = _gecon(lu, np.linalg.norm(a, 1), norm="1")
    if info != 0 or rcond <= 0.0 or not np.isfinite(rcond):
        cond = float("inf")
    else:
        cond = 1.0 / rcond
    return (lu, piv), cond


class WeightSolution:
    """Newton-Cotes weights of dim P_d points, their diagnostics and shell residual.

    `spec_ext` (default `spec`) is the extended degree d+e; `shell_residual`
    is empty when it equals d.  `weight_jacobian` (N, 2N) and
    `shell_jacobian` (n_shell, 2N) are None until `linearize()`; column
    2j + c differentiates with respect to coordinate c (xi1, xi2) of point j.

    Raises ValueError for a wrong point count, an extended degree below d
    or a non-finite basis value, and DegenerateConfigurationError when the
    condition estimate exceeds CONDITION_LIMIT (inf for an exactly singular
    system) or the back-substitution residual exceeds RESIDUAL_LIMIT and its floor.
    """

    def __init__(self, spec: BasisSpec, points, spec_ext: BasisSpec | None = None):
        spec_ext = spec if spec_ext is None else spec_ext
        if spec_ext.degree < spec.degree:
            raise ValueError("extended degree must be at least the cardinal degree")
        ev = vandermonde(spec_ext, points)
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
        w, _ = _getrs(*lu_piv, b)
        residual = float(np.max(np.abs(a @ w - b)))
        # the floor is formed only where the constant fails, off the LM's trial path
        if residual > RESIDUAL_LIMIT and residual > (
            floor := rounding_floor(w, np.abs(a).max(axis=0))
        ):
            raise DegenerateConfigurationError(
                f"degenerate configuration: solve residual {residual:.3e} "
                f"exceeds {RESIDUAL_LIMIT:.1e} and its rounding floor {floor:.3e}",
                cond,
            )
        self.weights = w
        self.condition_estimate = cond
        self.solve_residual = residual
        self.shell_residual = ev.values[:, spec.dim:].T @ w
        self.weight_jacobian = self.shell_jacobian = None
        self._ev, self._lu_piv = ev, lu_piv

    def linearize(self) -> WeightSolution:
        """Form both Jacobians from the kept tabulation and factorization, once."""
        if self.shell_jacobian is None:
            ev = _derivative_sweep(self._ev)
            w = self.weights
            n = w.shape[0]
            # -V^{-T} (dV^T) w: rhs column 2j+c is w_j * d g(.)/d xi_c at z_j
            rhs = np.empty((n, 2 * n))
            rhs[:, 0::2] = w[None, :] * ev.d_xi1[:, :n].T
            rhs[:, 1::2] = w[None, :] * ev.d_xi2[:, :n].T
            self.weight_jacobian = wjac = -_getrs(*self._lu_piv, rhs)[0]
            jac = ev.values[:, n:].T @ wjac
            jac[:, 0::2] += w[None, :] * ev.d_xi1[:, n:].T
            jac[:, 1::2] += w[None, :] * ev.d_xi2[:, n:].T
            self.shell_jacobian = jac
        return self


def newton_cotes_weights(spec: BasisSpec, points) -> WeightSolution:
    """Unique weights making `points` exact on all of P_d."""
    return WeightSolution(spec, points)


def weight_jacobian(spec: BasisSpec, points) -> np.ndarray:
    """Derivatives of every weight with respect to every point coordinate, (N, 2N)."""
    return WeightSolution(spec, points).linearize().weight_jacobian
