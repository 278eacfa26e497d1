"""Search for cardinal quadrature rules.

Fixing N = dim P_d points forces the Newton-Cotes weights to integrate all
of P_d; moving the points is then a nonlinear least-squares problem on the
residuals of the basis functions in the shell d < m+n <= d+e.  The number
of unknowns (2N) exceeds the number of equations (dim P_{d+e} - dim P_d,
by the degrees-of-freedom bound), leaving a solution manifold that damped
Gauss-Newton handles without trouble.

The search has two fixed starts and draws no random number.  Restart 0 is
one Levenberg-Marquardt run from Warburton's warp-and-blend nodes shrunk
into the interior, and returns if it converged (largest shell residual at
most RESIDUAL_TOLERANCE) with positive weights.  Otherwise restart 1
returns node elimination's last state as it stands, with the residual of
the basis values it carries (each point set is tabulated once): it solves
all of P_{d+e} with interior points and positive weights, which reaches
rows (d = 7, 12, 14) where restart 0 plateaus and where Newton-Cotes
weights on the same points cannot reach the tolerance in float64.  There is
no tie-break.  `optimize` prints nothing and returns one line per start.

Points are kept inside the triangle with a logarithmic barrier on the three
barycentric coordinates, annealed toward zero so the final iterates solve
the unbiased problem.  Positive weights are a check on the finished rule,
not a term the search minimizes.  The search is one anneal, written as one
loop over Levenberg-Marquardt steps.  A barrier stage (mu > 0) ends at its
step cap or once the shell term falls to STAGE_EXIT_FRAC of the barrier
term.  The search ends at convergence, at its first stall (no trial
accepted up to the largest damping, at any barrier strength) or after
MAX_ITERATIONS steps.  Every configuration the search visits is an
`_EvalState`: a `WeightSolution` (basis values, the weight solve and the
shell residual) plus the barrier value; that much decides whether a trial
step is accepted.  The state the search ends on is its outcome: points,
weights and residual, with no second solve.  Jacobians are formed only for
a configuration the search steps from (the start or an accepted trial), and
the barrier's gradient and Hessian only by a step of a barrier stage.  A
step damps Gauss-Newton as Levenberg did, by lam * s * I with one scalar s,
the mean of the normal matrix's diagonal with the barrier Hessian added:
every unknown is a coordinate in the same triangle, so Marquardt's
per-coordinate scale buys nothing.  A trial step leaving the triangle is
cut, before evaluation, to BOUNDARY_FRACTION of the way to the first edge
it crosses; a trial still outside (a step that is not a number) or
producing a near-singular Vandermonde system is rejected outright.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
# numpy loads np.polynomial on first use, and every search needs it for the
# warp-and-blend start: imported here, it loads with this module instead of
# inside the first search
from numpy.polynomial import Legendre

from .basis import (BasisEvaluation, BasisSpec, _differentiate, _one_blas_thread,
                    integrals_vector, vandermonde)
from .domain import as_point_array, bary_to_ref, gauss_quadrature, ref_to_bary
from .rule import QuadratureRule, certify, dof_bound
from .weights import DegenerateConfigurationError, WeightSolution, _point_gradients
# nothing here calls it; perfbench/spans.py binds the name in this module
from .weights import newton_cotes_weights  # noqa: F401

#: Largest shell residual at which a restart has converged.
RESIDUAL_TOLERANCE = 1e-14

#: Log-barrier strength of the first anneal stage.
BARRIER_START = 1e-8

#: A barrier stage (mu > 0) ends once 0.5 * |r|^2 <= STAGE_EXIT_FRAC * mu *
#: barrier: the shell is solved to well within the barrier's own bias, and
#: polishing the stage would only slide the points toward a lower barrier
#: that the next, weaker stage discards.
STAGE_EXIT_FRAC = 1e-3

#: A trial step that leaves the triangle is cut to this fraction of the way
#: to the first edge it crosses (the fraction-to-the-boundary rule).
BOUNDARY_FRACTION = 0.99

#: Levenberg-Marquardt steps per restart.
MAX_ITERATIONS = 2000

#: An elimination solve fails once its damping exceeds this (successes need <= 1e2).
ELIMINATION_DAMPING_CAP = 1e4

#: Shrink toward the centroid of restart 0's warp-and-blend start.
WARP_SHRINK = 0.05

#: Warburton's optimized blend exponents alpha_opt for d = 1..15.
_WARP_ALPHA = (0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
               1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258)


@dataclass(frozen=True)
class OptimizeResult:
    rule: QuadratureRule
    best_residual: float
    starts: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return self.best_residual <= RESIDUAL_TOLERANCE


class _EvalState(WeightSolution):
    """One configuration the search visits: a `WeightSolution` plus the
    barrier value.

    Construction costs values only: the solution (values tabulation, weight
    solve, shell residual r), `half_rr` = |r|^2/2, `max_residual`, the
    barycentrics (`bary`, if the caller has formed them) and the barrier
    value: all a trial step needs.
    """

    def __init__(self, spec_d: BasisSpec, spec_de: BasisSpec, points, bary=None):
        self.points = as_point_array(points)
        super().__init__(spec_d, self.points, spec_de)
        r = self.shell_residual
        self.half_rr = 0.5 * float(r @ r)
        self.max_residual = float(np.max(np.abs(r), initial=0.0))
        self.bary = ref_to_bary(self.points) if bary is None else bary
        self.barrier = _barrier_value(self.bary)

    @property
    def converged(self) -> bool:
        return self.max_residual <= RESIDUAL_TOLERANCE

    @property
    def positive(self) -> bool:
        return bool(np.all(self.weights > 0.0))


def residual_jacobian(spec_d: BasisSpec, spec_de: BasisSpec, points) -> np.ndarray:
    """d(shell residual)/d(point coordinates), shape (n_shell, 2N).

    Column 2j + c differentiates with respect to coordinate c of point j:
    dr_k = w_j * grad g_k(z_j) + sum_i dw_i * g_k(z_i), where the residual
    r_k = sum_j w_j g_k(z_j) is `WeightSolution(...).shell_residual`.
    """
    return WeightSolution(spec_d, points, spec_de).linearize().shell_jacobian


def _barrier_value(bary: np.ndarray) -> float:
    """-sum log(barycentric); inf unless every barycentric is finite and
    positive (a point on or outside an edge, or not a number)."""
    if not np.all(bary > 0.0):
        return np.inf
    value = -float(np.log(bary).sum())
    return value if math.isfinite(value) else np.inf


def _barrier_derivatives(bary: np.ndarray):
    """Gradient and (N, 2, 2) Hessian blocks of -sum log(barycentric), for
    strictly positive barycentrics `bary`."""
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
    return grad, hess


@_one_blas_thread()
def _levenberg_marquardt(
    spec_d: BasisSpec,
    spec_de: BasisSpec,
    points: np.ndarray,
) -> tuple[_EvalState, int]:
    """Damped Gauss-Newton from (N, 2) `points`, with one annealed log
    barrier, as one loop: each pass ends a barrier stage or takes one step.

    Ends at convergence, at the first stall (no trial accepted up to the
    largest damping: the merit is stationary) or after MAX_ITERATIONS steps.
    Returns (state, steps): the lowest-residual state it visited, which is
    the converged one if any, and the number of steps, each from a
    linearized state.  A degenerate start raises DegenerateConfigurationError.
    Runs at one OpenBLAS thread, as `optimize` does.
    """
    n = spec_d.dim
    mu, lam = BARRIER_START, 1e-3
    steps, stage_steps = 0, 0
    # a barrier stage ends at this cap or once the shell term is negligible
    # beside the barrier (STAGE_EXIT_FRAC): it only needs to get near its
    # biased optimum, and without the cap the anneal starves on wall-clock;
    # the search ends at convergence, its first stall or MAX_ITERATIONS steps
    stage_cap = 60
    idx = np.arange(n)  # point j owns the diagonal 2x2 block of rows 2j, 2j+1

    state = _EvalState(spec_d, spec_de, points)
    best = state  # no code writes an _EvalState's points in place

    while not state.converged and steps < MAX_ITERATIONS:
        if mu > 0.0 and (
            stage_steps == stage_cap or state.half_rr <= STAGE_EXIT_FRAC * mu * state.barrier
        ):
            mu = 0.0 if mu < 1e-15 else mu / 10.0
            stage_steps = 0
            continue
        steps += 1
        stage_steps += 1

        jac = state.linearize().shell_jacobian  # derivatives only where a step starts
        gn = jac.T @ jac
        grad = jac.T @ state.shell_residual
        if mu > 0.0:
            barrier_grad, barrier_hess = _barrier_derivatives(state.bary)
            gn.reshape(n, 2, n, 2)[idx, :, idx, :] += mu * barrier_hess
            grad = grad + mu * barrier_grad
        damping = np.trace(gn) / (2 * n) * np.eye(2 * n)  # s * I, s the diagonal's mean
        phi = state.half_rr + mu * state.barrier

        while lam < 1e13:
            try:
                step = np.linalg.solve(gn + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = state.points + step.reshape(n, 2)
            trial_bary = ref_to_bary(trial)
            if not np.all(trial_bary > 0.0):
                # keep the direction and stop short of the first edge crossed
                fall = trial_bary < state.bary
                alpha = BOUNDARY_FRACTION * np.min(
                    state.bary[fall] / (state.bary - trial_bary)[fall], initial=np.inf)
                if 0.0 < alpha < 1.0:
                    trial = state.points + (alpha * step).reshape(n, 2)
                    trial_bary = ref_to_bary(trial)
            # a NaN coordinate fails every comparison: test for inside
            if not np.all(trial_bary > 0.0):
                lam *= 10.0
                continue
            try:
                trial_state = _EvalState(spec_d, spec_de, trial, trial_bary)
            except DegenerateConfigurationError:
                lam *= 10.0
                continue
            if trial_state.half_rr + mu * trial_state.barrier < phi:
                state = trial_state
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 10.0
        else:
            break  # no acceptable step at the largest damping: a stationary merit
        if state.max_residual < best.max_residual:
            best = state

    return best, steps


def _init_warp_blend(d: int, tau: float) -> np.ndarray:
    """Warburton's warp-and-blend nodes of degree d (`Nodes2D` in Hesthaven
    & Warburton, Nodal Discontinuous Galerkin Methods, 2008), shrunk by
    b' = (1 - tau) b + tau/3 so every point is interior.  The book's warps
    in equilateral coordinates are applied here as barycentric shifts."""
    alpha = _WARP_ALPHA[d - 1] if d <= len(_WARP_ALPHA) else 5.0 / 3.0
    i, j = np.array([(i, j) for i in range(d + 1) for j in range(d + 1 - i)]).T
    lam = np.column_stack([i, d - i - j, j]) / d
    nxt, far = np.roll(lam, -1, axis=1), np.roll(lam, -2, axis=1)
    # `Warpfactor`: the equispaced-to-Gauss-Lobatto shift at r, over 1 - r^2,
    # interpolated in product form (factor j of l_i is (r - x_j) / (x_i - x_j))
    r, equi = far - nxt, np.linspace(-1.0, 1.0, d + 1)
    inner = Legendre.basis(d).deriv().roots()
    shift = np.concatenate([[-1.0], inner, [1.0]]) - equi
    same = np.eye(d + 1, dtype=bool)
    factors = (r[..., None, None] - equi) / (equi[:, None] - equi + same)
    warp = np.where(same, 1.0, factors).prod(axis=-1) @ shift
    warp = np.divide(warp, 1.0 - r * r, out=np.zeros_like(r), where=abs(r) < 1 - 1e-10)
    warp *= 4.0 * nxt * far * (1.0 + (alpha * lam) ** 2)  # the blend
    # warp k moves a point along the edge from vertex k + 1 toward vertex k + 2
    lam += 0.5 * (np.roll(warp, -1, axis=1) - np.roll(warp, 1, axis=1))
    # xi1 = 2 l3 - 1 and xi2 = 2 l1 - 1, as the book maps them
    return bary_to_ref((1.0 - tau) * lam[:, [2, 0]] + tau / 3.0)


@_one_blas_thread()
def _eliminate(spec_d: BasisSpec, spec_s: BasisSpec):
    """(points, weights, residual) of a rule with dim P_d points, positive
    weights, interior points and strength s, by node elimination (Xiao &
    Gimbutas, Comput. Math. Appl. 59, 2010); None where a level fails.

    Starts from the tensorized Gauss rule exact to s with at least dim P_d
    points.  Each level drops one point and solves for the others and their
    free weights (`_gauss_newton`), trying the points least significant by
    w_j sum_k g_k(z_j)^2 first and failing after 40 of them (d = 8 at
    strength 14 needs 10 at one level).  A candidate's basis values are its
    level's with row j deleted, the bits a fresh tabulation gives (the value
    sweep is pointwise, and np.delete copies C-contiguously, so the BLAS
    products round alike); `residual` is the last state's max |V^T w - b|.
    """
    pts, w = gauss_quadrature(max(spec_s.degree // 2 + 1, math.isqrt(spec_d.dim - 1) + 1))
    v = vandermonde(spec_s, pts).values
    while w.size > spec_d.dim:
        order = np.argsort(w * np.einsum("jk,jk->j", v, v), kind="stable")
        for j in order[:40]:
            found = _gauss_newton(spec_s, *(np.delete(a, j, axis=0) for a in (pts, w, v)))
            if found is not None:
                pts, w, v = found
                break
        else:
            return None
    return pts, w, float(np.max(np.abs(v.T @ w - integrals_vector(spec_s))))


def _gauss_newton(spec_s: BasisSpec, pts: np.ndarray, w: np.ndarray, v: np.ndarray):
    """(points, weights, values) with max |V_s^T w - b| <= RESIDUAL_TOLERANCE,
    from `pts`, `w` and basis values `v` by damped minimum-norm Gauss-Newton
    over points and weights within 60 trials, or None, at once when the
    damping exceeds ELIMINATION_DAMPING_CAP.
    A trial is accepted only if its points are interior, its weights
    positive and its residual norm lower.  The Jacobian and its Gram matrix
    are formed once per state a trial steps from: a rejected trial changes
    only the damping."""
    b, m = integrals_vector(spec_s), w.size
    f = v.T @ w - b
    lam, jac = 1e-6, None
    for _ in range(60):
        if np.max(np.abs(f)) <= RESIDUAL_TOLERANCE:
            return pts, w, v
        if lam > ELIMINATION_DAMPING_CAP:
            return None
        if jac is None:
            # columns 2j + c: coordinate c of point j; then one per weight
            jac = np.empty((f.size, 3 * m))
            _point_gradients(_differentiate(BasisEvaluation(v)), w, jac[:, : 2 * m])
            jac[:, 2 * m :] = v.T
            gram = jac @ jac.T
        try:
            step = -(jac.T @ np.linalg.solve(gram + lam * np.eye(f.size), f))
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial, trial_w = pts + step[: 2 * m].reshape(m, 2), w + step[2 * m :]
        if np.all(ref_to_bary(trial) > 0.0) and np.all(trial_w > 0.0):
            trial_v = vandermonde(spec_s, trial).values
            trial_f = trial_v.T @ trial_w - b
            if trial_f @ trial_f < f @ f:
                pts, w, v, f, jac = trial, trial_w, trial_v, trial_f, None
                lam = max(lam / 10.0, 1e-16)
                continue
        lam *= 10.0
    return None


@_one_blas_thread()
def optimize(d: int, *, target_e: int | None = None) -> OptimizeResult:
    """Search for a rule of degree d and strength d + target_e from two
    fixed starts, at one OpenBLAS thread.

    `target_e` defaults to the degrees-of-freedom bound minus d, the
    highest strength the counting argument allows.  Returns restart 0's
    state if it converged with positive weights; else elimination's last
    state (`_eliminate`), with its residual max |V^T w - b| over P_{d+target_e};
    else, where elimination fails, restart 0's state.  `starts` holds one
    line per start tried.  The rule is certified into `rule.certification`
    (an OracleDisagreementError propagates) and the result is unconverged
    when its residual exceeds RESIDUAL_TOLERANCE.  Without a candidate,
    DegenerateConfigurationError names each start's outcome.
    """
    if d < 1:
        raise ValueError("cardinal degree must be at least 1")
    if target_e is None:
        target_e = dof_bound(d) - d
    if target_e < 0:
        raise ValueError("target_e must be nonnegative")
    target = d + target_e
    if target > dof_bound(d):
        warnings.warn(
            f"target degree {target} exceeds the degrees-of-freedom bound "
            f"{dof_bound(d)}; the counting argument makes it infeasible",
            stacklevel=3,  # past the thread pin's wrapper
        )
    spec_d = BasisSpec(d)
    spec_de = BasisSpec(target)

    def line(r: int, residual: float, steps: int) -> str:
        return (f"restart {r}: residual {residual:.3e} after {steps} iterations"
                f"{' (converged)' if residual <= RESIDUAL_TOLERANCE else ''}")

    points = None
    try:
        state, steps = _levenberg_marquardt(spec_d, spec_de, _init_warp_blend(d, WARP_SHRINK))
    except DegenerateConfigurationError as exc:
        starts = [f"restart 0: degenerate ({exc.args[0]})"]
    else:
        starts = [line(0, state.max_residual, steps)]
        points, weights, residual = state.points, state.weights, state.max_residual
    if points is None or not (state.converged and state.positive):
        found = _eliminate(spec_d, spec_de)
        if found is None:
            starts.append("restart 1: elimination failed")
        else:
            points, weights, residual = found
            starts.append(line(1, residual, 0))
    if points is None:
        raise DegenerateConfigurationError("no start gave a candidate: " + "; ".join(starts))

    # certify the points a rule file stores, so `verify` of that file agrees
    points = bary_to_ref(ref_to_bary(points)[:, :2])
    rule = QuadratureRule(d, points, weights, metadata={"generator": "triquad"})
    return OptimizeResult(
        rule=replace(rule, certification=certify(rule)),
        best_residual=residual,
        starts=tuple(starts),
    )
