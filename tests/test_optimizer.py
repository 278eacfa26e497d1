import hashlib
import warnings
from dataclasses import replace
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import triquad.optimizer
import triquad.weights
from triquad.basis import BasisSpec, dim_poly, integrals_vector, vandermonde
from triquad.domain import points_inside, ref_to_bary
from triquad.optimizer import (
    RESIDUAL_TOLERANCE,
    OptimizeResult,
    OptimizerConfig,
    _barrier_derivatives,
    _barrier_value,
    _init_warp_blend,
    _levenberg_marquardt,
    optimize,
    residual,
    residual_jacobian,
)
from triquad.rule import certify
from triquad.ruleio import emit_rule
from triquad.weights import (
    DegenerateConfigurationError,
    WeightSolution,
    newton_cotes_weights,
    weight_jacobian,
)

MIDPOINTS = np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]])
VERTICES = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])

# residual of the vertex rule over the degree-2 shell, derived symbolically:
# (2/3) * sum over vertices of g for g in {g_{0,2}, g_{1,1}, g_{2,0}}
VERTEX_SHELL_RESIDUAL = np.array(
    [10.0 * np.sqrt(3.0) / 3.0, 0.0, 4.0 * np.sqrt(15.0) / 3.0]
)


def random_interior(rng, count):
    b = rng.dirichlet([2.0, 2.0, 2.0], size=count)
    return 2.0 * b[:, :2] - 1.0


def _init_collapsed_tensor(d):
    """Gauss-Legendre tensor nodes on the collapsed square, lower triangle."""
    nodes, _ = np.polynomial.legendre.leggauss(d + 1)
    pts = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            eta, xi2 = nodes[i], nodes[j]
            xi1 = (1.0 + eta) * (1.0 - xi2) / 2.0 - 1.0
            pts.append((xi1, xi2))
    return np.array(pts)


def test_residual_midpoints_is_zero():
    r = residual(BasisSpec(1), BasisSpec(2), MIDPOINTS)
    assert r.shape == (3,)
    assert np.max(np.abs(r)) <= 1e-15


def test_residual_vertices_matches_symbolic_oracle():
    r = residual(BasisSpec(1), BasisSpec(2), VERTICES)
    assert np.max(np.abs(r - VERTEX_SHELL_RESIDUAL)) <= 1e-13


def test_residual_zero_extension_is_empty():
    r = residual(BasisSpec(2), BasisSpec(2), random_interior(np.random.default_rng(0), 6))
    assert r.shape == (0,)


def test_residual_length_matches_shell_dimension():
    pts = random_interior(np.random.default_rng(1), dim_poly(2))
    r = residual(BasisSpec(2), BasisSpec(4), pts)
    assert r.shape == (dim_poly(4) - dim_poly(2),)


@pytest.mark.parametrize("d,e", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_residual_jacobian_matches_finite_differences(d, e):
    rng = np.random.default_rng(50 + d)
    spec_d, spec_de = BasisSpec(d), BasisSpec(d + e)
    pts = random_interior(rng, spec_d.dim)
    jac = residual_jacobian(spec_d, spec_de, pts)
    h = 1e-7
    fd = np.zeros_like(jac)
    for j in range(spec_d.dim):
        for c in range(2):
            plus, minus = pts.copy(), pts.copy()
            plus[j, c] += h
            minus[j, c] -= h
            fd[:, 2 * j + c] = (
                residual(spec_d, spec_de, plus) - residual(spec_d, spec_de, minus)
            ) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def _eager_solution(spec_d, spec_de, points):
    """Weights, weight Jacobian, shell residual and shell Jacobian from one
    derivative tabulation, formed eagerly."""
    ev = vandermonde(spec_de, points, derivatives=True)
    n = spec_d.dim
    lu_piv = lu_factor(ev.values[:, :n].T)
    w = lu_solve(lu_piv, integrals_vector(spec_d))
    rhs = np.empty((n, 2 * n))
    rhs[:, 0::2] = w[None, :] * ev.d_xi1[:, :n].T
    rhs[:, 1::2] = w[None, :] * ev.d_xi2[:, :n].T
    wjac = -lu_solve(lu_piv, rhs)
    jac = ev.values[:, n:].T @ wjac
    jac[:, 0::2] += w[None, :] * ev.d_xi1[:, n:].T
    jac[:, 1::2] += w[None, :] * ev.d_xi2[:, n:].T
    return {
        "newton_cotes_weights": w,
        "weight_jacobian": wjac,
        "residual": ev.values[:, n:].T @ w,
        "residual_jacobian": jac,
    }


ENTRY_POINTS = {
    "newton_cotes_weights": lambda sd, _, pts: newton_cotes_weights(sd, pts).weights,
    "weight_jacobian": lambda sd, _, pts: weight_jacobian(sd, pts),
    "residual": residual,
    "residual_jacobian": residual_jacobian,
}


@pytest.mark.parametrize(
    "entry,d,e",
    [
        pytest.param(
            entry, d, e,
            id=f"{d}-{e}" if entry == "residual_jacobian" else f"{entry}-{d}-{e}",
        )
        for entry in ENTRY_POINTS
        for d, e in [(1, 1), (2, 2), (4, 3), (6, 5)]
    ],
)
def test_residual_jacobian_is_bitwise_the_eager_one(entry, d, e):
    # every entry point reads the one evaluation; each must match the eager
    # formula bit for bit
    spec_d, spec_de = BasisSpec(d), BasisSpec(d + e)
    for seed in range(3):
        pts = random_interior(np.random.default_rng(100 * d + seed), spec_d.dim)
        assert np.array_equal(
            ENTRY_POINTS[entry](spec_d, spec_de, pts),
            _eager_solution(spec_d, spec_de, pts)[entry],
        )


def test_search_sweeps_derivatives_only_where_it_steps_from(monkeypatch):
    events = []  # ("values", ev) per tabulation, ("sweep", ev) per derivative sweep
    tabulate, sweep = triquad.weights.vandermonde, triquad.weights._derivative_sweep

    def counting_tabulate(spec, points, derivatives=False):
        ev = tabulate(spec, points, derivatives)
        events.append(("values", ev))
        return ev

    def counting_sweep(ev):
        events.append(("sweep", ev))
        return sweep(ev)

    monkeypatch.setattr(triquad.weights, "vandermonde", counting_tabulate)
    monkeypatch.setattr(triquad.weights, "_derivative_sweep", counting_sweep)
    state, iters = _levenberg_marquardt(
        BasisSpec(2), BasisSpec(4), _init_collapsed_tensor(2), np.random.default_rng(0),
    )
    assert state.converged
    swept = [ev for kind, ev in events if kind == "sweep"]
    tabulated = [ev for kind, ev in events if kind == "values"]
    # one sweep per linearized configuration, at most one per iteration
    assert len({id(ev) for ev in swept}) == len(swept) <= iters
    # each sweep is of the configuration tabulated last (the start, the
    # accepted trial or a kick); a rejected trial is followed by another
    # tabulation before the search steps again, so it is never swept
    last = None
    for kind, ev in events:
        if kind == "values":
            last = ev
        else:
            assert ev is last
    assert len(tabulated) - len(swept) >= 100  # the rejected trials


def test_residual_jacobian_zero_extension_is_empty():
    pts = random_interior(np.random.default_rng(3), 6)
    jac = residual_jacobian(BasisSpec(2), BasisSpec(2), pts)
    assert jac.shape == (0, 12)


def _barrier_terms(points):
    """Value, gradient and Hessian blocks of the barrier at interior points."""
    bary = ref_to_bary(points)
    return (_barrier_value(bary), *_barrier_derivatives(bary))


def test_barrier_matches_finite_differences():
    rng = np.random.default_rng(7)
    pts = random_interior(rng, 10)
    value, grad, hess = _barrier_terms(pts)
    b12 = (pts + 1.0) / 2.0
    bary = np.column_stack([b12, 1.0 - b12.sum(axis=1)])
    assert value == pytest.approx(-np.log(bary).sum(), rel=1e-14)
    assert hess.shape == (10, 2, 2)
    h = 1e-6
    fd_grad = np.zeros(20)
    fd_hess = np.zeros((20, 20))
    for k in range(20):
        step = np.zeros(20)
        step[k] = h
        plus = _barrier_terms(pts + step.reshape(10, 2))
        minus = _barrier_terms(pts - step.reshape(10, 2))
        fd_grad[k] = (plus[0] - minus[0]) / (2.0 * h)
        fd_hess[:, k] = (plus[1] - minus[1]) / (2.0 * h)
    dense = np.zeros((20, 20))
    for j in range(10):
        dense[2 * j:2 * j + 2, 2 * j:2 * j + 2] = hess[j]
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))
    assert np.max(np.abs(dense - fd_hess)) <= 1e-6 * max(1.0, np.max(np.abs(dense)))


def test_barrier_is_infinite_on_an_edge_without_warning():
    on_edge = np.array([[-0.5, -0.5], [0.2, -0.2]])  # b3 = 0 at the second
    outside = np.array([[-0.5, -0.5], [0.7, -0.2]])  # b3 < 0 at the second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _barrier_value(ref_to_bary(on_edge)) == np.inf
        assert _barrier_value(ref_to_bary(outside)) == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_barrier_is_infinite_for_non_finite_barycentrics(bad):
    bary = np.array([[0.2, 0.3, 0.5], [bad, 0.5, 0.5]])
    assert _barrier_value(bary) == np.inf


def test_a_nan_trial_step_is_rejected(monkeypatch):
    # a NaN step gives a NaN trial point, which fails every comparison: the
    # search must reject it like a step out of the triangle, not solve at it
    solve, steps = np.linalg.solve, []

    def nan_first_step(a, b):
        step = solve(a, b)
        if not steps:
            step[0] = np.nan
        steps.append(step)
        return step

    monkeypatch.setattr(triquad.optimizer.np.linalg, "solve", nan_first_step)
    result = optimize(1, OptimizerConfig(target_e=1, seed=0, restarts=1))
    assert np.isnan(steps[0][0]) and len(steps) > 1
    assert result.converged


def test_search_from_a_point_next_to_the_collapsed_vertex_converges():
    # a strictly interior point within 1e-10 of the top vertex (-1, 1): the
    # search needs basis gradients there and must not raise
    x0 = _init_collapsed_tensor(2)
    x0[0] = (-1.0 + 1e-12, 1.0 - 5e-11)
    assert np.all(points_inside(x0))
    state, _ = _levenberg_marquardt(
        BasisSpec(2), BasisSpec(4), x0, np.random.default_rng(0),
    )
    assert state.converged
    assert state.max_residual <= 1e-14
    assert np.all(points_inside(state.points))


def test_optimize_d1_meets_table_row():
    result = optimize(1, OptimizerConfig(target_e=1, seed=0, restarts=10))
    assert result.converged
    assert result.best_residual <= 1e-14
    report = result.rule.certification
    assert report.strength == 2
    assert report.positive_weights
    assert np.all(points_inside(result.rule.points))
    assert result.rule.n_points == 3
    # the report is held once, in rule.certification, not copied into metadata
    assert result.rule.metadata == {"generator": "triquad", "seed": 0}


def test_optimize_d2_meets_table_row():
    result = optimize(2, OptimizerConfig(target_e=2, seed=0, restarts=10))
    assert result.converged
    report = result.rule.certification
    assert report.strength == 4
    assert report.positive_weights and report.all_interior
    assert result.rule.n_points == 6


def test_optimize_infeasible_target_warns_and_flags(monkeypatch):
    # d=3, e=3 asks for strength 6 = the counting bound; the reference
    # results only reach 5, so expect an honest unconverged outcome
    monkeypatch.setattr(triquad.optimizer, "MAX_ITERATIONS", 300)
    result = optimize(3, OptimizerConfig(target_e=3, seed=0, restarts=2))
    assert not result.converged
    assert result.best_residual > 1e-14
    # the best candidate still certifies at its achieved strength
    assert result.rule.certification.strength >= 3


def test_optimize_beyond_bound_warns(monkeypatch):
    monkeypatch.setattr(triquad.optimizer, "MAX_ITERATIONS", 50)
    with pytest.warns(UserWarning, match="degrees-of-freedom"):
        optimize(1, OptimizerConfig(target_e=3, seed=0, restarts=1))


def test_optimize_is_deterministic():
    config = OptimizerConfig(target_e=1, seed=123, restarts=4)
    a = optimize(1, config)
    b = optimize(1, config)
    assert np.array_equal(a.rule.points, b.rule.points)
    assert np.array_equal(a.rule.weights, b.rule.weights)
    assert a.rule.certification.max_error == b.rule.certification.max_error


def test_optimize_output_passes_independent_certification():
    result = optimize(2, OptimizerConfig(target_e=2, seed=5, restarts=10))
    assert result.converged
    report = certify(result.rule, tolerance=1e-12)
    assert report.strength >= 4


@pytest.mark.parametrize(
    "settings,field",
    [
        ({"restarts": 0}, "restarts"),
        ({"restarts": -1}, "restarts"),
        ({"seed": -1}, "seed"),
    ],
)
def test_optimize_refuses_invalid_search_settings(settings, field):
    config = OptimizerConfig(**{"target_e": 1, "restarts": 1, **settings})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        optimize(1, config)


def test_converged_is_read_from_the_best_residual():
    rule = optimize(1, OptimizerConfig(target_e=1, restarts=1)).rule
    at = OptimizeResult(rule, best_residual=RESIDUAL_TOLERANCE, restarts_run=1)
    above = replace(at, best_residual=np.nextafter(RESIDUAL_TOLERANCE, 1.0))
    assert at.converged and not above.converged


def test_optimize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimize(0, OptimizerConfig(target_e=1))
    with pytest.raises(ValueError):
        optimize(1, OptimizerConfig(target_e=-1))


@pytest.mark.parametrize("d", range(1, 17))  # d = 16 takes the 5/3 blend exponent
def test_warp_blend_start_is_a_shrunk_symmetric_point_set(d):
    tau = 0.05
    pts = _init_warp_blend(d, tau)
    assert pts.shape == (dim_poly(d), 2)
    bary = ref_to_bary(pts)
    assert np.all(bary >= tau / 3.0 - 1e-15)
    # each permutation of the barycentrics maps the set onto itself
    for perm in permutations(range(3)):
        image = bary[:, perm]
        gap = np.abs(image[:, None, :] - bary[None, :, :]).max(axis=2)
        assert np.max(np.min(gap, axis=1)) <= 1e-13


def _nodes2d_reference(d):
    """The book's `Nodes2D`, loop for loop: warps in equilateral coordinates
    (x, y), mapped back by l1 = (sqrt(3) y + 1) / 3, l3 = (1 - l1 + x) / 2."""
    alpha_opt = [0.0, 0.0, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999, 1.2832,
                 1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258]
    alpha = alpha_opt[d - 1] if d < 16 else 5.0 / 3.0
    equi = np.linspace(-1.0, 1.0, d + 1)
    inner = np.polynomial.Legendre.basis(d).deriv().roots()
    gll = np.concatenate([[-1.0], inner, [1.0]])

    def warpfactor(r):
        warp = 0.0
        for i in range(d + 1):
            lagrange = 1.0
            for j in range(d + 1):
                if j != i:
                    lagrange *= (r - equi[j]) / (equi[i] - equi[j])
            warp += lagrange * (gll[i] - equi[i])
        return warp / (1.0 - r * r) if abs(r) < 1.0 - 1e-10 else 0.0

    pts = []
    for n in range(d + 1):
        for m in range(d + 1 - n):
            l1, l3 = n / d, m / d
            l2 = 1.0 - l1 - l3
            x, y = l3 - l2, (2.0 * l1 - l2 - l3) / np.sqrt(3.0)
            warps = [4.0 * b * c * warpfactor(c - b) * (1.0 + (alpha * a) ** 2)
                     for a, b, c in ((l1, l2, l3), (l2, l3, l1), (l3, l1, l2))]
            for k, w in enumerate(warps):
                x += np.cos(2.0 * np.pi * k / 3.0) * w
                y += np.sin(2.0 * np.pi * k / 3.0) * w
            l1 = (np.sqrt(3.0) * y + 1.0) / 3.0
            l3 = (1.0 - l1 + x) / 2.0
            pts.append((2.0 * l3 - 1.0, 2.0 * l1 - 1.0))
    return np.array(pts)


@pytest.mark.parametrize("d", range(1, 17))
def test_warp_blend_start_matches_the_equilateral_construction(d):
    assert np.max(np.abs(_init_warp_blend(d, 0.0) - _nodes2d_reference(d))) <= 1e-14


def test_warp_blend_start_passes_the_weight_gates_at_d14():
    spec = BasisSpec(14)
    sol = WeightSolution(spec, _init_warp_blend(14, 0.05))
    assert sol.condition_estimate < 1e3
    with pytest.raises(DegenerateConfigurationError, match="solve residual"):
        WeightSolution(spec, _init_collapsed_tensor(14))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_d6_certifies_on_the_first_restart(seed):
    result = optimize(6, OptimizerConfig(target_e=5, seed=seed, restarts=1))
    assert result.converged
    report = result.rule.certification
    assert report.strength == 11
    assert report.positive_weights and report.all_interior


def test_a_degenerate_kick_is_retried_at_half_the_scale(monkeypatch):
    # d = 1 cannot reach strength 4, so the search stalls and kicks; the
    # first kick lands every point on the centroid, a singular system
    monkeypatch.setattr(triquad.optimizer, "MAX_ITERATIONS", 800)
    perturb, scales = triquad.optimizer._init_perturbed, []

    def collapse_first_kick(rng, base, scale):
        scales.append(scale)
        pts = perturb(rng, base, scale)
        return np.full_like(pts, -1.0 / 3.0) if len(scales) == 1 else pts

    monkeypatch.setattr(triquad.optimizer, "_init_perturbed", collapse_first_kick)
    state, iters = _levenberg_marquardt(
        BasisSpec(1), BasisSpec(4), _init_warp_blend(1, 0.05), np.random.default_rng(0),
    )
    assert not state.converged
    assert scales[1] == scales[0] / 2.0
    assert iters == 800  # the restart kept its budget


def test_a_degenerate_start_raises():
    centroid = np.full((3, 2), -1.0 / 3.0)  # three coincident points
    with pytest.raises(DegenerateConfigurationError):
        _levenberg_marquardt(BasisSpec(1), BasisSpec(2), centroid, np.random.default_rng(0))


def test_verbose_reports_every_restart(monkeypatch, capsys):
    # every restart ends on a degenerate start
    def degenerate_search(spec_d, spec_de, points, rng):
        raise DegenerateConfigurationError("degenerate configuration: start")

    monkeypatch.setattr(triquad.optimizer, "_levenberg_marquardt", degenerate_search)
    with pytest.raises(triquad.optimizer.AllRestartsDegenerateError):
        optimize(2, OptimizerConfig(target_e=2, restarts=2, verbose=True))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "restart 0: degenerate (degenerate configuration: start)"
    assert lines[1].startswith("restart 1: degenerate (degenerate configuration: ")
    assert len(lines) == 2


# restart outcomes (converged, positive, interior, residual, condition):
# restarts 0 and 2..6 each lose to restart 1 on one key, and restart 7 meets
# all three conditions, which ends the search
TIE_BREAK_OUTCOMES = [
    (False, True, True, 1e-3, 1.0),
    (True, True, False, 5e-15, 2.0),
    (True, False, True, 1e-15, 1.0),  # lower residual, negative weight
    (True, False, True, 1e-15, 1.0),  # ties restart 2 for the lowest residual
    (True, True, False, 6e-15, 1.0),  # better condition, higher residual
    (True, True, False, 5e-15, 3.0),
    (True, True, False, 5e-15, 2.0),  # equal to the winner, but later
    (True, True, True, 9e-15, 1.0),
    (True, True, True, 1e-16, 1.0),
]


def test_tie_break_order_perturbed_starts_and_the_break(monkeypatch):
    rng = np.random.default_rng(4)
    states, bases = [], []
    for converged, positive, interior, res, cond in TIE_BREAK_OUTCOMES:
        pts = random_interior(rng, 3)
        states.append(SimpleNamespace(
            points=pts, converged=converged, positive=positive, interior=interior,
            max_residual=res,
            sol=SimpleNamespace(weights=newton_cotes_weights(BasisSpec(1), pts).weights,
                                condition_estimate=cond),
        ))
    outcomes = iter(states)
    perturb = triquad.optimizer._init_perturbed

    def recording_perturb(rng, base):
        bases.append(base)
        return perturb(rng, base)

    monkeypatch.setattr(triquad.optimizer, "_levenberg_marquardt",
                        lambda *args: (next(outcomes), 1))
    monkeypatch.setattr(triquad.optimizer, "_init_perturbed", recording_perturb)
    first = optimize(1, OptimizerConfig(target_e=1, restarts=7))
    assert first.restarts_run == 7
    assert np.array_equal(first.rule.points, states[1].points)
    # restarts 2 and 5 perturb the lowest residual so far
    assert len(bases) == 2
    assert bases[0] is states[1].points and bases[1] is states[2].points
    # the first restart meeting every condition wins and ends the search
    outcomes = iter(states)
    stopped = optimize(1, OptimizerConfig(target_e=1, restarts=len(states)))
    assert stopped.restarts_run == 8
    assert np.array_equal(stopped.rule.points, states[7].points)


# Runs past restart 0, which no acceptance pin reaches: (d, settings, the
# patched MAX_ITERATIONS or None, converged, restarts_run, best residual,
# SHA-256 of the emitted rule, the --verbose lines)
MULTI_RESTART_RUNS = {
    # restart 0 plateaus, restart 1 (random start) certifies and breaks
    "d7_restart1": (
        7, {"target_e": 6, "seed": 1, "restarts": 12}, None, True, 2, "5.481726e-15",
        "f5ce10aeebaf51f2ae7f715b73331561c26666d9a0d568b79b4d944fe29b8293",
        ["restart 0: residual 6.448e-02 after 2000 iterations",
         "restart 1: residual 5.482e-15 after 714 iterations (converged)"],
    ),
    # strength 6 at d = 3 is out of reach: random starts at r = 1, 3, 4,
    # perturbed starts at r = 2, 5, and the tie-break picks among six
    "d3_unconverged": (
        3, {"target_e": 3, "seed": 0, "restarts": 6}, 300, False, 6, "4.464365e-02",
        "8e9bc6b8e0bd4f565a1194bf5ce79ecb06fe0ffbd2d15f62e545a95c47225eb9",
        ["restart 0: residual 4.673e-02 after 300 iterations",
         "restart 1: residual 4.682e-02 after 300 iterations",
         "restart 2: residual 4.657e-02 after 300 iterations",
         "restart 3: residual 4.009e-01 after 300 iterations",
         "restart 4: residual 1.382e+00 after 300 iterations",
         "restart 5: residual 4.464e-02 after 300 iterations"],
    ),
}


@pytest.mark.parametrize("name", sorted(MULTI_RESTART_RUNS))
def test_multi_restart_runs_keep_their_bytes(name, monkeypatch, capsys):
    d, settings, max_iters, converged, restarts, res, digest, lines = (
        MULTI_RESTART_RUNS[name]
    )
    if max_iters is not None:
        monkeypatch.setattr(triquad.optimizer, "MAX_ITERATIONS", max_iters)
    result = optimize(d, OptimizerConfig(verbose=True, **settings))
    assert capsys.readouterr().out.splitlines() == lines
    assert result.converged is converged
    assert result.restarts_run == restarts
    assert f"{result.best_residual:.6e}" == res
    assert hashlib.sha256(emit_rule(result.rule).encode()).hexdigest() == digest
