"""Search for cardinal quadrature rules.

Fixing N = dim P_d points forces the Newton-Cotes weights to integrate all
of P_d; moving the points is then a nonlinear least-squares problem on the
residuals of the basis functions in the shell d < m+n <= d+e.  The number
of unknowns (2N) exceeds the number of equations (dim P_{d+e} - dim P_d,
by the degrees-of-freedom bound), leaving a solution manifold that damped
Gauss-Newton handles without trouble.

Restart 0 starts from Warburton's warp-and-blend nodes shrunk into the
interior, well conditioned at large d; later restarts start from random
points or perturb the best configuration so far.  A restart converges when
its largest shell residual is at most RESIDUAL_TOLERANCE.

Points are kept inside the triangle with a logarithmic barrier on the
three barycentric coordinates, annealed toward zero so the final iterates
solve the unbiased problem; a weight hinge steers toward positive weights.
Every configuration the search visits is one `WeightSolution` (basis
values, the weight solve and the shell residual) wrapped in an
`_EvalState` that adds the hinge and the barrier value; that much decides
whether a trial step is accepted.  The state a restart ends on is its
outcome: points, weights, condition estimate and residual, with no second
solve.  Derivatives (the solution's weight and shell Jacobians and the
barrier's gradient and Hessian) are formed only for a configuration the
search steps from: the start, an accepted trial or a kick.  A trial step
leaving the triangle is rejected before evaluation, and one producing a
near-singular Vandermonde system is rejected outright.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, vandermonde
from .domain import as_point_array, bary_to_ref, ref_to_bary
from .rule import QuadratureRule, certify, dof_bound
from .weights import DegenerateConfigurationError, WeightSolution, _factorize
# nothing here calls it; perfbench/spans.py binds the name in this module
from .weights import newton_cotes_weights  # noqa: F401

#: Largest shell residual at which a restart has converged.
RESIDUAL_TOLERANCE = 1e-14

#: Vandermonde condition cap for accepting a random initial configuration.
INIT_CONDITION_LIMIT = 1e8

#: Margin of the weight hinge, as a fraction of the mean weight 2/N.  The
#: hinge steers the under-determined solve toward positive weights and is
#: exactly zero (hence bias-free) once every weight clears the margin.
WEIGHT_MARGIN_FRAC = 0.1

#: Log-barrier strength of the first anneal stage.
BARRIER_START = 1e-8

#: Levenberg-Marquardt iterations per restart, kicks included.
MAX_ITERATIONS = 2000

#: Shrink toward the centroid of restart 0's warp-and-blend start.
WARP_SHRINK = 0.05

#: Warburton's optimized blend exponents alpha_opt for d = 1..15.
_WARP_ALPHA = (0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
               1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start Levenberg-Marquardt search.

    The search stops at the first restart that converges with positive
    weights and strictly interior points.
    """

    target_e: int = 1
    restarts: int | None = None  # None: 50 for d <= 5, 500 for d >= 6
    seed: int = 0
    verbose: bool = False

    def restarts_for(self, d: int) -> int:
        if self.restarts is not None:
            return self.restarts
        return 50 if d <= 5 else 500


@dataclass(frozen=True)
class OptimizeResult:
    rule: QuadratureRule
    best_residual: float
    restarts_run: int

    @property
    def converged(self) -> bool:
        return self.best_residual <= RESIDUAL_TOLERANCE


class AllRestartsDegenerateError(RuntimeError):
    """Every restart collapsed onto a degenerate configuration."""


class _EvalState:
    """One configuration the search visits: its `WeightSolution` plus the
    LM's own policy terms.

    Construction costs values only: the solution (values tabulation, weight
    solve, shell residual), the hinge-augmented residual `r` (hinge
    max(margin - w, 0) appended), `hinge_active`, the barycentrics and the
    barrier value, which is all a trial step needs to be accepted or
    rejected.  A caller that has already formed `ref_to_bary(points)`
    passes it as `bary`.  `linearize()` adds, once, what a step from this
    configuration needs: `jac` (the shell Jacobian with the hinge rows) and
    the barrier's gradient and Hessian blocks.
    """

    __slots__ = ("sol", "points", "r", "hinge_active", "bary", "barrier",
                 "jac", "barrier_grad", "barrier_hess")

    def __init__(self, spec_d: BasisSpec, spec_de: BasisSpec, points, bary=None):
        self.points = as_point_array(points)
        self.sol = sol = WeightSolution(spec_d, self.points, spec_de)
        hinge = np.maximum(WEIGHT_MARGIN_FRAC * 2.0 / spec_d.dim - sol.weights, 0.0)
        self.r = np.concatenate([sol.shell_residual, hinge])
        self.hinge_active = bool(np.any(hinge > 0.0))
        self.bary = ref_to_bary(self.points) if bary is None else bary
        self.barrier = _barrier_value(self.bary)
        self.jac = self.barrier_grad = self.barrier_hess = None

    def linearize(self) -> None:
        """Form the Jacobian and barrier derivatives; a no-op after the first call."""
        if self.jac is not None:
            return
        sol = self.sol.linearize()
        active = self.r[sol.shell_residual.size:] > 0.0
        hinge_rows = np.where(active[:, None], -sol.weight_jacobian, 0.0)
        self.jac = np.vstack([sol.shell_jacobian, hinge_rows])
        self.barrier_grad, self.barrier_hess = _barrier_derivatives(self.bary)

    @property
    def max_residual(self) -> float:
        res = self.sol.shell_residual
        return float(np.max(np.abs(res))) if res.size else 0.0

    @property
    def converged(self) -> bool:
        return self.max_residual <= RESIDUAL_TOLERANCE

    @property
    def positive(self) -> bool:
        return bool(np.all(self.sol.weights > 0.0))

    @property
    def interior(self) -> bool:
        return bool(np.all(self.bary > 0.0))


def residual(spec_d: BasisSpec, spec_de: BasisSpec, points) -> np.ndarray:
    """Quadrature residuals of the shell d < m+n <= d+e.

    Entry k is sum_j w_j g_k(z_j) - integral(g_k) with w the Newton-Cotes
    weights of `points`; the integrals vanish because every shell function
    is orthogonal to constants.
    """
    return WeightSolution(spec_d, points, spec_de).shell_residual


def residual_jacobian(spec_d: BasisSpec, spec_de: BasisSpec, points) -> np.ndarray:
    """d(residual)/d(point coordinates), shape (n_shell, 2N).

    Column 2j + c differentiates with respect to coordinate c of point j:
    dr_k = w_j * grad g_k(z_j) + sum_i dw_i * g_k(z_i).
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


def _levenberg_marquardt(
    spec_d: BasisSpec,
    spec_de: BasisSpec,
    points: np.ndarray,
    rng: np.random.Generator,
) -> tuple[_EvalState, int]:
    """Damped Gauss-Newton from (N, 2) `points`, with annealed log barrier
    and stall kicks.

    When the unbiased problem stalls in a local minimum with iteration
    budget left, the best configuration is perturbed with `rng` and the
    barrier anneal rerun (deterministic basin hopping); a degenerate kick
    is redrawn at half the scale, four draws at most.  Returns (state,
    iterations): the state it converged on, or else the lowest-residual
    state it visited.  A degenerate start raises
    DegenerateConfigurationError.
    """
    n = spec_d.dim
    mu = BARRIER_START
    lam = 1e-3
    iters = 0
    # a stage only needs to get near its barrier-biased optimum before the
    # barrier weakens; without the cap the anneal starves on wall-clock
    stage_cap = 60
    idx = np.arange(n)  # point j owns the diagonal 2x2 block of rows 2j, 2j+1

    state = _EvalState(spec_d, spec_de, points)
    best = state  # no code writes an _EvalState's points in place

    while iters < MAX_ITERATIONS:
        stage_stalled = False
        stage_iters = 0
        while (
            iters < MAX_ITERATIONS
            and stage_iters < stage_cap
            and not stage_stalled
        ):
            iters += 1
            stage_iters += 1
            if state.max_residual < best.max_residual:
                best = state
            if state.converged and not state.hinge_active:
                return state, iters

            state.linearize()  # derivatives only where a step starts
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

        if state.max_residual < best.max_residual:
            best = state
        if state.converged and not (state.hinge_active and not stage_stalled):
            return state, iters
        if mu == 0.0 and stage_stalled:
            if iters >= MAX_ITERATIONS:
                break  # local minimum, no budget left to escape
            # basin hop: perturb the best configuration seen and re-anneal
            kick_scale = 0.08 if best.max_residual > 1e-3 else 0.02
            for _ in range(4):
                kicked = _init_perturbed(rng, best.points, scale=kick_scale)
                try:
                    state = _EvalState(spec_d, spec_de, kicked)
                    break
                except DegenerateConfigurationError:
                    kick_scale /= 2.0
            else:
                break
            mu = BARRIER_START
            lam = 1e-3
            continue
        if mu > 0.0:
            mu = 0.0 if mu < 1e-15 else mu / 10.0
        lam = min(lam, 1e-3)  # fresh damping: the objective just changed

    return best, iters


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
    inner = np.polynomial.Legendre.basis(d).deriv().roots()
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


def _random_interior(rng: np.random.Generator, count: int) -> np.ndarray:
    uv = rng.random((count, 2))
    fold = uv.sum(axis=1) > 1.0
    uv[fold] = 1.0 - uv[fold]
    return bary_to_ref(uv)


def _init_random(rng: np.random.Generator, spec_d: BasisSpec) -> np.ndarray:
    """Random interior points, resampled until the system is well conditioned;
    after 50 draws the best conditioned one."""
    best, best_cond = None, np.inf
    for _ in range(50):
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
    Restart 0 starts from warp-and-blend nodes, restarts 2, 5, 8, ... from
    the lowest-residual candidate perturbed, the others from random
    points.  `verbose` prints one line per restart.
    The candidates are the states the restarts' searches end on; each
    carries its points, Newton-Cotes weights, condition estimate and
    residual.  Returns the tie-break winner: converged first, then positive
    weights, then strictly interior points, then smallest residual, then
    smallest condition estimate, certified into `rule.certification`.  Of
    equal candidates the earliest wins.  The result is unconverged when no
    restart reached RESIDUAL_TOLERANCE.
    """
    if d < 1:
        raise ValueError("cardinal degree must be at least 1")
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")
    if config.target_e < 0:
        raise ValueError("target_e must be nonnegative")
    if config.restarts_for(d) < 1:
        raise ValueError(f"restarts must be at least 1, got {config.restarts}")
    target = d + config.target_e
    if target > dof_bound(d):
        warnings.warn(
            f"target degree {target} exceeds the degrees-of-freedom bound "
            f"{dof_bound(d)}; the counting argument makes it infeasible",
            stacklevel=2,
        )
    spec_d = BasisSpec(d)
    spec_de = BasisSpec(target)

    def rank(s: _EvalState):
        return (not s.converged, not s.positive, not s.interior,
                s.max_residual, s.sol.condition_estimate)

    # two running minima, not a list: a state keeps its tabulations (3.7 MB
    # at d = 14), and a search may run 500 restarts
    best = lowest = None
    for r in range(config.restarts_for(d)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(r,)))
        if r == 0:
            x0 = _init_warp_blend(d, WARP_SHRINK)
        elif r % 3 == 2 and lowest is not None:
            x0 = _init_perturbed(rng, lowest.points)
        else:
            x0 = _init_random(rng, spec_d)
        try:
            state, iters = _levenberg_marquardt(spec_d, spec_de, x0, rng)
        except DegenerateConfigurationError as exc:
            if config.verbose:
                print(f"restart {r}: degenerate ({exc.args[0]})")
            continue
        if config.verbose:
            print(
                f"restart {r}: residual {state.max_residual:.3e} after {iters} "
                f"iterations{' (converged)' if state.converged else ''}"
            )
        # strict < keeps the first of equals
        if lowest is None or state.max_residual < lowest.max_residual:
            lowest = state
        if best is None or rank(state) < rank(best):
            best = state
        if state.converged and state.positive and state.interior:
            break

    if best is None:
        raise AllRestartsDegenerateError(
            f"all {r + 1} restarts hit degenerate configurations"
        )

    rule = QuadratureRule(
        cardinal_degree=d,
        points=best.points,
        weights=best.sol.weights,
        metadata={"generator": "triquad", "seed": config.seed},
    )
    return OptimizeResult(
        rule=replace(rule, certification=certify(rule)),
        best_residual=best.max_residual,
        restarts_run=r + 1,
    )
