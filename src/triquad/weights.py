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
first dim P_d columns, inverts and gates the solve (CONDITION_LIMIT, its
rounding floor), and forms the residual of the shell d < m+n <= d+e,

    r_k = sum_j w_j g_k(z_j),

whose integrals vanish because every shell function is orthogonal to
constants.  `linearize()` adds, from the kept tabulation and inverse, one
block of w_j * grad g_k(z_j) over every g_k: its first dim P_d rows give the
weight Jacobian, the others start the shell Jacobian
dr_k = w_j * grad g_k(z_j) + sum_i dw_i * g_k(z_i).  The weight functions
here and the optimizer's residual, Jacobian and search all read it.

One numpy inverse A^{-1} of A = V^T per configuration serves the whole
solve: the weights w = A^{-1} b, the exact 1-norm condition number
||A||_1 ||A^{-1}||_1 that CONDITION_LIMIT gates, and the weight Jacobian
-A^{-1} (dV^T) w, so the process loads one BLAS, numpy's.  An exactly
singular A, where the inverse fails, is a degenerate configuration with
condition inf; a non-finite entry is refused with a ValueError first.
"""

from __future__ import annotations

import numpy as np

from .basis import (FLOOR_FACTOR, BasisEvaluation, BasisSpec, _differentiate,
                    _one_blas_thread, integrals_vector, rounding_floor, vandermonde)

#: Condition-number threshold beyond which a configuration is rejected.
CONDITION_LIMIT = 1e14

#: No solve's rounding floor is lower: g_0 = 1 puts every column maximum at
#: 1 or above, and row 0 of the solve makes sum |w| >= 2 - residual.
_LEAST_FLOOR = FLOOR_FACTOR * np.finfo(float).eps


class DegenerateConfigurationError(RuntimeError):
    """Point set whose Vandermonde system is numerically singular."""

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


def _invert(a: np.ndarray):
    """Inverse of `a` and its exact 1-norm condition number.

    The inverse is None and the condition inf for an exactly singular `a`.
    Raises ValueError unless every entry is finite.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, float("inf")
    cond = float(np.abs(a).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    return inv, cond if np.isfinite(cond) else float("inf")


class WeightSolution:
    """Newton-Cotes weights of dim P_d points, their diagnostics and shell residual.

    `spec_ext` (default `spec`) is the extended degree d+e; `shell_residual`
    is empty when it equals d.  `weight_jacobian` (N, 2N) and
    `shell_jacobian` (n_shell, 2N) are None until `linearize()`; column
    2j + c differentiates with respect to coordinate c (xi1, xi2) of point j.

    One inverse of V^T gives the weights, `condition_estimate` (the exact
    1-norm condition number) and, in `linearize()`, the weight Jacobian.
    Construction and `linearize()` run at one OpenBLAS thread.
    Raises ValueError for a wrong point count, an extended degree below d
    or a non-finite basis value, and DegenerateConfigurationError when the
    condition number exceeds CONDITION_LIMIT (inf for an exactly singular
    system) or the solve residual exceeds its rounding floor.
    """

    @_one_blas_thread()  # the products' bits depend on the thread count
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
        inv, cond = _invert(a)
        b = integrals_vector(spec)
        if cond > CONDITION_LIMIT:
            raise DegenerateConfigurationError(
                f"degenerate configuration: condition estimate {cond:.3e} "
                f"exceeds {CONDITION_LIMIT:.1e}",
                cond,
            )
        w = inv @ b
        residual = float(np.max(np.abs(a @ w - b)))
        # the floor is formed only above _LEAST_FLOOR, off the LM's trial path
        if residual > _LEAST_FLOOR and residual > (
            floor := rounding_floor(w, np.abs(a).max(axis=0))
        ):
            raise DegenerateConfigurationError(
                f"degenerate configuration: solve residual {residual:.3e} "
                f"exceeds its rounding floor {floor:.3e}",
                cond,
            )
        self.weights, self.condition_estimate, self.solve_residual = w, cond, residual
        self.shell_residual = ev.values[:, spec.dim:].T @ w
        self.weight_jacobian = self.shell_jacobian = None
        self._ev, self._inv = ev, inv

    @_one_blas_thread()
    def linearize(self) -> WeightSolution:
        """Form both Jacobians from the kept tabulation and inverse, once."""
        if self.shell_jacobian is None:
            ev, w = _differentiate(self._ev), self.weights
            n = w.shape[0]
            grads = _point_gradients(ev, w, np.empty((ev.values.shape[1], 2 * n)))
            # -V^{-T} (dV^T) w: (dV^T) w is the block's first n rows
            self.weight_jacobian = wjac = -(self._inv @ grads[:n])
            self.shell_jacobian = ev.values[:, n:].T @ wjac + grads[n:]
        return self


def _point_gradients(ev: BasisEvaluation, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill (dim, 2N) `out` with w_j * grad g_k(z_j) and return it: row k is
    basis function k of `ev`, column 2j + c its d/dxi_c at point j."""
    out[:, 0::2] = ev.d_xi1.T * w
    out[:, 1::2] = ev.d_xi2.T * w
    return out


def newton_cotes_weights(spec: BasisSpec, points) -> WeightSolution:
    """Unique weights making `points` exact on all of P_d."""
    return WeightSolution(spec, points)


def weight_jacobian(spec: BasisSpec, points) -> np.ndarray:
    """Derivatives of every weight with respect to every point coordinate, (N, 2N)."""
    return WeightSolution(spec, points).linearize().weight_jacobian
