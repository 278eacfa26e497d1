"""Search for cardinal quadrature rules.

Fixing N = dim P_d points forces the Newton-Cotes weights to integrate all
of P_d; moving the points is then a nonlinear least-squares problem on the
residuals of the basis functions in the shell d < m+n <= d+e.  The number
of unknowns (2N) exceeds the number of equations (dim P_{d+e} - dim P_d,
by the degrees-of-freedom bound), leaving a solution manifold that damped
Gauss-Newton handles without trouble.

Points are kept inside the triangle with a logarithmic barrier on the
three barycentric coordinates, annealed toward zero so the final iterates
solve the unbiased problem; a weight hinge steers toward positive weights.
Each configuration is evaluated once, into an `_EvalState`; a trial step
leaving the triangle is rejected before that, and one producing a
near-singular Vandermonde system is rejected outright.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, vandermonde
from .domain import as_point_array, bary_to_ref, ref_to_bary
from .rule import CertificationReport, QuadratureRule, certify, dof_bound
from .weights import (
    DegenerateConfigurationError,
    _factorize,
    _solve_system,
    _weight_jacobian_from_parts,
    newton_cotes_weights,
)

#: Vandermonde condition cap for accepting a random initial configuration.
INIT_CONDITION_LIMIT = 1e8

#: Margin of the weight hinge, as a fraction of the mean weight 2/N.  The
#: hinge steers the under-determined solve toward positive weights and is
#: exactly zero (hence bias-free) once every weight clears the margin.
WEIGHT_MARGIN_FRAC = 0.1

#: Log-barrier strength of the first anneal stage.
BARRIER_START = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start Levenberg-Marquardt search.

    The search stops at the first restart that converges with positive
    weights and strictly interior points.
    """

    target_e: int = 1
    max_iterations: int = 2000
    residual_tolerance: float = 1e-14
    restarts: int | None = None  # None: 50 for d <= 5, 500 for d >= 6
    seed: int = 0
    verbose: bool = False

    def restarts_for(self, d: int) -> int:
        if self.restarts is not None:
            return self.restarts
        return 50 if d <= 5 else 500


@dataclass
class _Candidate:
    """One restart's outcome."""

    points: np.ndarray
    weights: np.ndarray
    max_residual: float
    condition: float
    converged: bool
    iterations: int
    restart: int

    @property
    def positive(self) -> bool:
        return bool(np.all(self.weights > 0.0))

    @property
    def interior(self) -> bool:
        return bool(np.all(ref_to_bary(self.points) > 0.0))


@dataclass(frozen=True)
class OptimizeResult:
    rule: QuadratureRule
    report: CertificationReport
    converged: bool
    best_residual: float
    restarts_run: int


class AllRestartsDegenerateError(RuntimeError):
    """Every restart collapsed onto a degenerate configuration."""


def _check_specs(spec_d: BasisSpec, spec_de: BasisSpec) -> None:
    if spec_de.degree < spec_d.degree:
        raise ValueError("extended degree must be at least the cardinal degree")


class _EvalState:
    """Everything the search uses at one configuration, each computed once.

    `res`/`jacobian`: the shell residual and its Jacobian, as returned by
    `residual_jacobian`; `r`/`jac` append the weight hinge max(margin - w, 0)
    and its Jacobian; `barrier*` hold the value, gradient and Hessian blocks
    of `_barrier_terms`.
    """

    __slots__ = ("points", "res", "jacobian", "r", "jac", "hinge_active",
                 "barrier", "barrier_grad", "barrier_hess")

    def __init__(self, spec_d: BasisSpec, spec_de: BasisSpec, points):
        pts = as_point_array(points)
        ev = vandermonde(spec_de, pts, derivatives=True)
        lu_piv, w, _, _ = _solve_system(spec_d, ev)
        dim_lo = spec_d.dim
        self.points = pts
        v_hi = ev.values[:, dim_lo:]
        self.res = v_hi.T @ w
        wjac = _weight_jacobian_from_parts(ev, lu_piv, w)
        jac = v_hi.T @ wjac
        jac[:, 0::2] += w[None, :] * ev.d_xi1[:, dim_lo:].T
        jac[:, 1::2] += w[None, :] * ev.d_xi2[:, dim_lo:].T
        self.jacobian = jac
        hinge = np.maximum(WEIGHT_MARGIN_FRAC * 2.0 / dim_lo - w, 0.0)
        active = hinge > 0.0
        self.r = np.concatenate([self.res, hinge])
        self.jac = np.vstack([jac, np.where(active[:, None], -wjac, 0.0)])
        self.hinge_active = bool(np.any(active))
        self.barrier, self.barrier_grad, self.barrier_hess = _barrier_terms(pts)

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.res))) if self.res.size else 0.0


def residual(spec_d: BasisSpec, spec_de: BasisSpec, points) -> np.ndarray:
    """Quadrature residuals of the shell d < m+n <= d+e.

    Entry k is sum_j w_j g_k(z_j) - integral(g_k) with w the Newton-Cotes
    weights of `points`; the integrals vanish because every shell function
    is orthogonal to constants.
    """
    _check_specs(spec_d, spec_de)
    ev = vandermonde(spec_de, points)
    _, w, _, _ = _solve_system(spec_d, ev)
    return ev.values[:, spec_d.dim:].T @ w


def residual_jacobian(spec_d: BasisSpec, spec_de: BasisSpec, points) -> np.ndarray:
    """d(residual)/d(point coordinates), shape (n_shell, 2N).

    Column 2j + c differentiates with respect to coordinate c of point j:
    dr_k = w_j * grad g_k(z_j) + sum_i dw_i * g_k(z_i).
    """
    _check_specs(spec_d, spec_de)
    return _EvalState(spec_d, spec_de, points).jacobian


def _barrier_terms(points: np.ndarray):
    """Value, gradient and (N, 2, 2) Hessian blocks of -sum log(barycentric);
    (inf, None, None) when a point lies on or outside an edge."""
    bary = ref_to_bary(points)
    if np.any(bary <= 0.0):
        return np.inf, None, None
    value = -float(np.log(bary).sum())
    # barycentric gradients are constant: b1 -> (1/2, 0), b2 -> (0, 1/2),
    # b3 -> (-1/2, -1/2); the barrier Hessian is exact since b is affine
    q = 0.5 / bary
    grad = np.column_stack([q[:, 2] - q[:, 0], q[:, 2] - q[:, 1]]).ravel()
    # b^2 by libm pow (float_power), not by x*x (bary**2): the two round some
    # inputs differently, and the search path and generated rules follow
    s = 0.25 / np.float_power(bary, 2.0)
    hess = np.empty((bary.shape[0], 2, 2))
    hess[:, 0, 0] = s[:, 0] + s[:, 2]
    hess[:, 1, 1] = s[:, 1] + s[:, 2]
    hess[:, 0, 1] = hess[:, 1, 0] = s[:, 2]
    return value, grad, hess


def _levenberg_marquardt(
    spec_d: BasisSpec,
    spec_de: BasisSpec,
    x0: np.ndarray,
    config: OptimizerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Gauss-Newton with annealed log barrier and stall kicks.

    When the unbiased problem stalls in a local minimum with iteration
    budget left and an `rng` supplied, the best configuration is perturbed
    and the barrier anneal rerun (deterministic basin hopping).  Returns
    (points, max_residual, iterations, converged).
    """
    n = spec_d.dim
    tol = config.residual_tolerance
    mu = BARRIER_START
    lam = 1e-3
    iters = 0
    # a stage only needs to get near its barrier-biased optimum before the
    # barrier weakens; without the cap the anneal starves on wall-clock
    stage_cap = 60
    idx = np.arange(n)  # point j owns the diagonal 2x2 block of rows 2j, 2j+1

    try:
        state = _EvalState(spec_d, spec_de, x0.reshape(n, 2))
    except DegenerateConfigurationError:
        return x0.reshape(n, 2), np.inf, 0, False
    best_x, best_res = state.points.copy(), state.max_residual

    while iters < config.max_iterations:
        stage_stalled = False
        stage_iters = 0
        while (
            iters < config.max_iterations
            and stage_iters < stage_cap
            and not stage_stalled
        ):
            iters += 1
            stage_iters += 1
            if state.max_residual < best_res:
                best_res, best_x = state.max_residual, state.points.copy()
            if state.max_residual <= tol and not state.hinge_active:
                return state.points, state.max_residual, iters, True

            gn = state.jac.T @ state.jac
            grad = state.jac.T @ state.r
            if mu > 0.0:
                gn.reshape(n, 2, n, 2)[idx, :, idx, :] += mu * state.barrier_hess
                grad = grad + mu * state.barrier_grad
                # near the stage optimum the gradient balances the barrier
                # pull; move on to the next stage rather than polishing
                if float(np.max(np.abs(grad))) <= 0.3 * mu * float(
                    np.max(np.abs(state.barrier_grad))
                ):
                    break
            scale = np.diag(gn).copy()
            scale = np.maximum(scale, max(float(scale.max()), 1.0) * 1e-14)
            phi = 0.5 * float(state.r @ state.r) + mu * state.barrier

            accepted = False
            while lam < 1e13:
                try:
                    step = np.linalg.solve(gn + lam * np.diag(scale), -grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                trial = state.points + step.reshape(n, 2)
                if np.any(ref_to_bary(trial) <= 0.0):
                    lam *= 10.0
                    continue
                try:
                    trial_state = _EvalState(spec_d, spec_de, trial)
                except DegenerateConfigurationError:
                    lam *= 10.0
                    continue
                tr = trial_state.r
                if 0.5 * float(tr @ tr) + mu * trial_state.barrier < phi:
                    accepted = True
                    state = trial_state
                    lam = max(lam / 3.0, 1e-14)
                    rel_step = float(np.max(np.abs(step))) / max(
                        1.0, float(np.max(np.abs(state.points)))
                    )
                    if rel_step < 1e-15:
                        stage_stalled = True
                    break
                lam *= 10.0
            if not accepted:
                stage_stalled = True  # no acceptable step at this barrier strength

        if state.max_residual < best_res:
            best_res, best_x = state.max_residual, state.points.copy()
        if state.max_residual <= tol and not (state.hinge_active and not stage_stalled):
            return state.points, state.max_residual, iters, True
        if mu == 0.0 and stage_stalled:
            if rng is None or iters >= config.max_iterations:
                break  # local minimum, no budget or no randomness to escape
            # basin hop: perturb the best configuration seen and re-anneal
            kick_scale = 0.08 if best_res > 1e-3 else 0.02
            kicked = _init_perturbed(rng, best_x, scale=kick_scale)
            try:
                state = _EvalState(spec_d, spec_de, kicked)
            except DegenerateConfigurationError:
                break
            mu = BARRIER_START
            lam = 1e-3
            continue
        if mu > 0.0:
            mu = 0.0 if mu < 1e-15 else mu / 10.0
        lam = min(lam, 1e-3)  # fresh damping: the objective just changed

    return best_x, best_res, iters, best_res <= tol


def _init_collapsed_tensor(d: int) -> np.ndarray:
    """Gauss-Legendre tensor nodes on the collapsed square, lower triangle."""
    nodes, _ = np.polynomial.legendre.leggauss(d + 1)
    pts = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            eta, xi2 = nodes[i], nodes[j]
            xi1 = (1.0 + eta) * (1.0 - xi2) / 2.0 - 1.0
            pts.append((xi1, xi2))
    return np.array(pts)


def _random_interior(rng: np.random.Generator, count: int) -> np.ndarray:
    uv = rng.random((count, 2))
    fold = uv.sum(axis=1) > 1.0
    uv[fold] = 1.0 - uv[fold]
    return bary_to_ref(uv)


def _init_random(rng: np.random.Generator, spec_d: BasisSpec, tries: int = 50) -> np.ndarray:
    """Random interior points, resampled until the system is well conditioned."""
    best, best_cond = None, np.inf
    for _ in range(tries):
        pts = _random_interior(rng, spec_d.dim)
        _, cond = _factorize(vandermonde(spec_d, pts).values.T)
        if cond < best_cond:
            best, best_cond = pts, cond
        if cond < INIT_CONDITION_LIMIT:
            return pts
    return best


def _init_perturbed(
    rng: np.random.Generator, base: np.ndarray, scale: float = 0.03
) -> np.ndarray:
    pts = base + rng.normal(0.0, scale, size=base.shape)
    outside = np.any(ref_to_bary(pts) <= 1e-6, axis=1)
    if outside.any():
        centroid = np.array([-1.0 / 3.0, -1.0 / 3.0])
        pts[outside] = centroid + 0.8 * (pts[outside] - centroid)
        still = np.any(ref_to_bary(pts) <= 0.0, axis=1)
        pts[still] = centroid
    return pts


def optimize(d: int, config: OptimizerConfig) -> OptimizeResult:
    """Multi-start search for a rule of strength d + target_e.

    Runs restarts sequentially with per-restart RNG streams spawned from
    the config seed, so identical configs reproduce identical results.
    Returns the tie-break winner: converged first, then positive weights,
    then strictly interior points, then smallest residual, then smallest
    condition estimate.  The result is flagged unconverged when no restart
    reached the residual tolerance.
    """
    if d < 1:
        raise ValueError("cardinal degree must be at least 1")
    if config.target_e < 0:
        raise ValueError("target_e must be nonnegative")
    target = d + config.target_e
    if target > dof_bound(d):
        warnings.warn(
            f"target degree {target} exceeds the degrees-of-freedom bound "
            f"{dof_bound(d)}; the counting argument makes it infeasible",
            stacklevel=2,
        )
    spec_d = BasisSpec(d)
    spec_de = BasisSpec(target)

    candidates: list[_Candidate] = []
    best_points: np.ndarray | None = None
    best_res = np.inf
    n_run = 0
    started = time.time()
    for r in range(config.restarts_for(d)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(r,)))
        if r == 0:
            x0 = _init_collapsed_tensor(d)
        elif r % 3 == 2 and best_points is not None:
            x0 = _init_perturbed(rng, best_points)
        else:
            x0 = _init_random(rng, spec_d)
        n_run += 1
        pts, res_inf, iters, converged = _levenberg_marquardt(
            spec_d, spec_de, x0.ravel(), config, rng=rng
        )
        if not np.isfinite(res_inf):
            continue
        try:
            sol = newton_cotes_weights(spec_d, pts)
        except DegenerateConfigurationError:
            continue
        cand = _Candidate(
            points=pts,
            weights=sol.weights,
            max_residual=res_inf,
            condition=sol.condition_estimate,
            converged=converged,
            iterations=iters,
            restart=r,
        )
        candidates.append(cand)
        if res_inf < best_res:
            best_res, best_points = res_inf, pts
        if config.verbose:
            print(
                f"restart {r}: residual {res_inf:.3e} after {iters} iterations"
                f"{' (converged)' if converged else ''}"
            )
        if converged and cand.positive and cand.interior:
            break

    if not candidates:
        raise AllRestartsDegenerateError(
            f"all {n_run} restarts hit degenerate configurations"
        )

    best = min(
        candidates,
        key=lambda c: (not c.converged, not c.positive, not c.interior,
                       c.max_residual, c.condition),
    )
    metadata = {
        "generator": "triquad",
        "seed": config.seed,
        "target_strength": target,
        "restarts_run": n_run,
        "restart": best.restart,
        "iterations": best.iterations,
        "converged": best.converged,
        "best_residual": best.max_residual,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "elapsed_seconds": round(time.time() - started, 3),
    }
    rule = QuadratureRule(
        cardinal_degree=d,
        points=best.points,
        weights=best.weights,
        metadata=metadata,
    )
    report = certify(rule)
    rule = rule.with_certification(report)
    return OptimizeResult(
        rule=rule,
        report=report,
        converged=best.converged,
        best_residual=best.max_residual,
        restarts_run=n_run,
    )
