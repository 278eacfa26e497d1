import hashlib
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import triquad.cli
import triquad.optimizer
import triquad.weights
from triquad.basis import (FLOOR_FACTOR, BasisSpec, dim_poly, integrals_vector,
                           rounding_floor, vandermonde)
from triquad.domain import bary_to_ref, gauss_quadrature, points_inside, ref_to_bary
from triquad.optimizer import (
    BARRIER_START,
    BOUNDARY_FRACTION,
    ELIMINATION_DAMPING_CAP,
    RESIDUAL_TOLERANCE,
    WARP_SHRINK,
    OptimizeResult,
    _barrier_derivatives,
    _barrier_value,
    _eliminate,
    _gauss_newton,
    _init_warp_blend,
    _levenberg_marquardt,
    optimize,
    residual_jacobian,
)
from triquad.rule import OracleDisagreementError, QuadratureRule, certify
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
    r = WeightSolution(BasisSpec(1), MIDPOINTS, BasisSpec(2)).shell_residual
    assert r.shape == (3,)
    assert np.max(np.abs(r)) <= 1e-15


def test_residual_vertices_matches_symbolic_oracle():
    r = WeightSolution(BasisSpec(1), VERTICES, BasisSpec(2)).shell_residual
    assert np.max(np.abs(r - VERTEX_SHELL_RESIDUAL)) <= 1e-13


def test_residual_zero_extension_is_empty():
    pts = random_interior(np.random.default_rng(0), 6)
    r = WeightSolution(BasisSpec(2), pts, BasisSpec(2)).shell_residual
    assert r.shape == (0,)


def test_residual_length_matches_shell_dimension():
    pts = random_interior(np.random.default_rng(1), dim_poly(2))
    r = WeightSolution(BasisSpec(2), pts, BasisSpec(4)).shell_residual
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
                WeightSolution(spec_d, plus, spec_de).shell_residual
                - WeightSolution(spec_d, minus, spec_de).shell_residual
            ) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(jac - fd)) / scale <= 1e-5


def _eager_solution(spec_d, spec_de, points):
    """Weights, weight Jacobian, shell residual and shell Jacobian from one
    derivative tabulation, formed eagerly."""
    ev = vandermonde(spec_de, points, derivatives=True)
    n = spec_d.dim
    inv = np.linalg.inv(ev.values[:, :n].T)
    w = inv @ integrals_vector(spec_d)
    rhs = np.empty((n, 2 * n))
    rhs[:, 0::2] = w[None, :] * ev.d_xi1[:, :n].T
    rhs[:, 1::2] = w[None, :] * ev.d_xi2[:, :n].T
    wjac = -(inv @ rhs)
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
    "residual": lambda sd, sde, pts: WeightSolution(sd, pts, sde).shell_residual,
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
    events = []  # ("values", ev) per tabulation, ("sweep", ev) per derivative product
    tabulate, sweep = triquad.weights.vandermonde, triquad.weights._differentiate

    def counting_tabulate(spec, points, derivatives=False):
        ev = tabulate(spec, points, derivatives)
        events.append(("values", ev))
        return ev

    def counting_sweep(ev):
        events.append(("sweep", ev))
        return sweep(ev)

    monkeypatch.setattr(triquad.weights, "vandermonde", counting_tabulate)
    monkeypatch.setattr(triquad.weights, "_differentiate", counting_sweep)
    # d = 6 at strength 11 from the warp-and-blend start: the search rejects
    # trials at many iterations before it converges
    state, iters = _levenberg_marquardt(
        BasisSpec(6), BasisSpec(11), _init_warp_blend(6, WARP_SHRINK)
    )
    assert state.converged
    swept = [ev for kind, ev in events if kind == "sweep"]
    tabulated = [ev for kind, ev in events if kind == "values"]
    # one sweep per linearized configuration, one per step taken
    assert len({id(ev) for ev in swept}) == len(swept) == iters
    # each sweep is of the configuration tabulated last (the start or the
    # accepted trial); a rejected trial is followed by another tabulation
    # before the search steps again, so it is never swept
    last = None
    for kind, ev in events:
        if kind == "values":
            last = ev
        else:
            assert ev is last
    assert len(tabulated) - len(swept) >= 20  # the rejected trials


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


def _fail_once(monkeypatch, target, name, fail, skip=0):
    """Patch `target.name` so that its call number `skip` (from 0) runs
    `fail(original, *args)` instead; returns the list of calls' arguments."""
    original, calls = getattr(target, name), []

    def patched(*args):
        calls.append(args)
        if len(calls) == skip + 1:
            return fail(original, *args)
        return original(*args)

    monkeypatch.setattr(target, name, patched)
    return calls


def _nan_step(solve, *args):
    step = solve(*args)
    step[0] = np.nan
    return step


def _singular(solve, *args):
    raise np.linalg.LinAlgError("Singular matrix")


def _degenerate(evaluate, *args):
    raise DegenerateConfigurationError("degenerate configuration: trial")


# failures of the search's first trial: (failure, module and name of the
# function it replaces, calls to that function before the trial's)
TRIAL_FAILURES = {
    # a NaN step gives a NaN trial point, which fails every comparison: the
    # search must reject it, neither cutting it at an edge nor solving at it
    "nan_step": (_nan_step, np.linalg, "solve", 0),
    "singular_solve": (_singular, np.linalg, "solve", 0),
    # call 0 evaluates the start
    "degenerate_trial": (_degenerate, triquad.optimizer, "_EvalState", 1),
}


@pytest.mark.parametrize("case", sorted(TRIAL_FAILURES))
def test_a_nan_trial_step_is_rejected(case, monkeypatch):
    # each raises the damping, and the search goes on from the same state:
    # restart 0 still converges
    fail, target, name, skip = TRIAL_FAILURES[case]
    calls = _fail_once(monkeypatch, target, name, fail, skip)
    result = optimize(1, target_e=1)
    assert len(calls) > skip + 1
    assert result.converged and len(result.starts) == 1


def test_a_step_across_an_edge_is_cut_short_of_it(monkeypatch):
    # the first step carries point 0 across the edge b1 = 0, to b1' = -b1,
    # and the others a tenth of the way to the centroid: the first trial
    # evaluated is that step cut to BOUNDARY_FRACTION of the way to the
    # edge, not a re-solve at higher damping
    start = _init_warp_blend(1, WARP_SHRINK)
    start_bary = ref_to_bary(start)
    step = 0.1 * (np.array([-1.0, -1.0]) / 3.0 - start)
    step[0] = (-4.0 * start_bary[0, 0], 0.0)
    _fail_once(monkeypatch, np.linalg, "solve", lambda solve, *args: step.flatten())
    evaluated, evaluate = [], triquad.optimizer._EvalState

    def spy(spec_d, spec_de, points, bary=None):
        evaluated.append(np.array(points))
        return evaluate(spec_d, spec_de, points, bary)

    monkeypatch.setattr(triquad.optimizer, "_EvalState", spy)
    result = optimize(1, target_e=1)

    crossed = ref_to_bary(start + step)[0, 0]
    alpha = BOUNDARY_FRACTION * start_bary[0, 0] / (start_bary[0, 0] - crossed)
    trial = evaluated[1]
    assert np.array_equal(evaluated[0], start)
    assert np.allclose(trial, start + alpha * step, rtol=0.0, atol=1e-15)
    trial_bary = ref_to_bary(trial)
    assert np.all(trial_bary >= (1.0 - BOUNDARY_FRACTION) * start_bary - 1e-15)
    assert trial_bary[0, 0] == pytest.approx((1.0 - BOUNDARY_FRACTION) * start_bary[0, 0],
                                             rel=0.0, abs=1e-15)
    assert result.converged and len(result.starts) == 1


def test_the_search_damps_every_coordinate_by_one_scalar(monkeypatch):
    # Levenberg's damping: the trial solves (gn + lam * s * I) step = -grad
    # with s = trace(gn) / 2N, the mean of gn's diagonal after the barrier
    # Hessian is added
    spec_d, spec_de = BasisSpec(2), BasisSpec(4)
    start, n = _init_warp_blend(2, WARP_SHRINK), spec_d.dim
    solve, damped = np.linalg.solve, []

    def recording_solve(a, b):
        damped.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    _levenberg_marquardt(spec_d, spec_de, start)
    state = triquad.optimizer._EvalState(spec_d, spec_de, start).linearize()
    gn = state.shell_jacobian.T @ state.shell_jacobian
    _, barrier_hess = _barrier_derivatives(state.bary)
    for j in range(n):
        gn[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] += BARRIER_START * barrier_hess[j]
    # the first solve steps from the start at the first damping, lam = 1e-3
    lam_s = 1e-3 * np.trace(gn) / (2 * n)
    assert np.allclose(damped[0] - gn, lam_s * np.eye(2 * n), rtol=0.0, atol=1e-9 * lam_s)


def test_a_search_whose_gauss_newton_matrix_is_zero_stalls_where_it_started(monkeypatch):
    # gn = 0 damps by 0: every solve is singular and raises the damping, so
    # the first step stalls and the search ends on its start after it
    def flat(state):
        state.shell_jacobian = np.zeros((state.shell_residual.size, state.points.size))
        return state

    def flat_barrier(bary):
        return np.zeros(2 * len(bary)), np.zeros((len(bary), 2, 2))

    monkeypatch.setattr(triquad.optimizer._EvalState, "linearize", flat)
    monkeypatch.setattr(triquad.optimizer, "_barrier_derivatives", flat_barrier)
    start = _init_warp_blend(1, WARP_SHRINK)
    state, steps = _levenberg_marquardt(BasisSpec(1), BasisSpec(2), start)
    assert np.array_equal(state.points, start) and not state.converged
    assert steps == 1


def test_a_singular_elimination_solve_is_rejected(monkeypatch):
    # _gauss_newton raises its damping on a LinAlgError, as the search does
    calls = _fail_once(monkeypatch, np.linalg, "solve", _singular)
    pts, w, _ = _eliminate(BasisSpec(2), BasisSpec(4))
    assert len(calls) > 1
    assert pts.shape == (6, 2) and np.all(points_inside(pts)) and np.all(w > 0.0)


def test_an_elimination_solve_gives_up_once_its_damping_passes_the_cap(monkeypatch):
    # every step leaves the triangle, so every trial is rejected and the
    # damping rises tenfold from 1e-6: the call returns None once it passes
    # ELIMINATION_DAMPING_CAP, after 11 solves instead of its 60 trials
    solves = []

    def outward(a, b):
        solves.append(a.shape)
        return np.full(b.shape, 1e6)

    pts, w = gauss_quadrature(3)
    v = vandermonde(BasisSpec(4), pts).values
    monkeypatch.setattr(np.linalg, "solve", outward)
    start = np.delete(pts, 0, axis=0), np.delete(w, 0), np.delete(v, 0, axis=0)
    assert _gauss_newton(BasisSpec(4), *start) is None
    assert ELIMINATION_DAMPING_CAP == 1e4 and len(solves) == 11


def test_a_search_out_of_steps_returns_its_lowest_residual_state(monkeypatch):
    # d = 6 needs more than 3 steps: the MAX_ITERATIONS exit returns the
    # lowest-residual state it visited, no worse than any it stepped from
    stepped_from = []

    def recording(state):
        stepped_from.append(state)
        return WeightSolution.linearize(state)

    monkeypatch.setattr(triquad.optimizer, "MAX_ITERATIONS", 3)
    monkeypatch.setattr(triquad.optimizer._EvalState, "linearize", recording)
    state, steps = _levenberg_marquardt(
        BasisSpec(6), BasisSpec(11), _init_warp_blend(6, WARP_SHRINK)
    )
    assert steps == len(stepped_from) == 3 and not state.converged
    assert state.max_residual <= min(s.max_residual for s in stepped_from)
    assert state.max_residual < stepped_from[0].max_residual


def test_search_from_a_point_next_to_the_collapsed_vertex_converges():
    # a strictly interior point within 1e-10 of the top vertex (-1, 1): the
    # search needs basis gradients there and must not raise
    x0 = _init_collapsed_tensor(2)
    x0[0] = (-1.0 + 1e-12, 1.0 - 5e-11)
    assert np.all(points_inside(x0))
    state, _ = _levenberg_marquardt(BasisSpec(2), BasisSpec(4), x0)
    assert state.converged
    assert state.max_residual <= 1e-14
    assert np.all(points_inside(state.points))


def test_optimize_d1_meets_table_row():
    result = optimize(1, target_e=1)
    assert result.converged
    assert result.best_residual <= 1e-14
    report = result.rule.certification
    assert report.strength == 2
    assert report.positive_weights
    assert np.all(points_inside(result.rule.points))
    assert result.rule.n_points == 3
    # the report is held once, in rule.certification, not copied into metadata
    assert result.rule.metadata == {"generator": "triquad"}


def test_optimize_d2_meets_table_row():
    result = optimize(2, target_e=2)
    assert result.converged
    report = result.rule.certification
    assert report.strength == 4
    assert report.positive_weights and report.all_interior
    assert result.rule.n_points == 6


def test_optimize_infeasible_target_warns_and_flags():
    # d=3, e=3 asks for strength 6 = the counting bound; the reference
    # results only reach 5, so expect an honest unconverged outcome
    result = optimize(3, target_e=3)
    assert not result.converged
    assert result.best_residual > 1e-14
    # the best candidate still certifies at its achieved strength
    assert result.rule.certification.strength >= 3


def test_optimize_beyond_bound_warns():
    with pytest.warns(UserWarning, match="degrees-of-freedom") as record:
        optimize(1, target_e=3)
    assert record[0].filename == __file__  # the caller's line, not the pin's


def test_optimize_is_deterministic():
    a = optimize(1, target_e=1)
    b = optimize(1, target_e=1)
    assert np.array_equal(a.rule.points, b.rule.points)
    assert np.array_equal(a.rule.weights, b.rule.weights)
    assert a.rule.certification.max_error == b.rule.certification.max_error


def test_optimize_output_passes_independent_certification():
    result = optimize(2, target_e=2)
    assert result.converged
    report = certify(result.rule)
    assert report.strength >= 4


# optimize takes no search setting: the search draws no random number and
# has two fixed starts, and it returns its per-start lines rather than
# printing them.  The CLI records --seed in the rule header
REFUSALS = {
    "restarts": (TypeError, "unexpected keyword argument 'restarts'"),
    "verbose": (TypeError, "unexpected keyword argument 'verbose'"),
    "seed": (TypeError, "unexpected keyword argument 'seed'"),
}


@pytest.mark.parametrize(
    "settings,field",
    [
        ({"restarts": 0}, "restarts"),
        ({"restarts": -1}, "restarts"),
        ({"seed": 0}, "seed"),
        ({"verbose": True}, "verbose"),
    ],
)
def test_optimize_refuses_invalid_search_settings(settings, field):
    error, match = REFUSALS[field]
    with pytest.raises(error, match=match):
        optimize(1, **{"target_e": 1, **settings})


def test_converged_is_read_from_the_best_residual():
    result = optimize(1, target_e=1)
    at = OptimizeResult(result.rule, best_residual=RESIDUAL_TOLERANCE, starts=result.starts)
    above = replace(at, best_residual=np.nextafter(RESIDUAL_TOLERANCE, 1.0))
    assert at.converged and not above.converged


def test_optimize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimize(0, target_e=1)
    with pytest.raises(ValueError):
        optimize(1, target_e=-1)


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


@pytest.mark.parametrize(
    "d,s", [(1, 2), (2, 4), (3, 5), (4, 7), (5, 9), (6, 11), (7, 13), (9, 16)]
)
def test_elimination_reaches_the_table_row(d, s):
    # dim P_d interior points and positive weights that certify strength s
    # as they stand: optimize returns them so
    pts, w, residual = _eliminate(BasisSpec(d), BasisSpec(s))
    assert pts.shape == (dim_poly(d), 2) and np.all(ref_to_bary(pts) > 0.0)
    v = vandermonde(BasisSpec(s), pts).values
    fresh = np.max(np.abs(v.T @ w - integrals_vector(BasisSpec(s))))
    assert fresh <= RESIDUAL_TOLERANCE
    # the residual elimination hands over is that of a fresh tabulation
    assert residual == fresh
    report = certify(QuadratureRule(d, pts, w))
    assert report.strength == s and report.max_error <= 1e-14
    assert report.positive_weights and report.all_interior


# Each probe writes one output whose bits OpenBLAS would make depend on its
# thread count: elimination's 105 x 105 Gram matrix at d = 7 and the d = 9
# search's normal equations are past the size where it splits a product or
# a solve over its threads, and so are the d = 14 Vandermonde inverse (the
# CLI's and the library's weights) and the public Jacobians' products
THREAD_PROBES = {
    "d7_elimination": [
        "-c", "import hashlib; from triquad.basis import BasisSpec; "
        "from triquad.optimizer import _eliminate; "
        "pts, w, _ = _eliminate(BasisSpec(7), BasisSpec(13)); "
        "print(hashlib.sha256(pts.tobytes() + w.tobytes()).hexdigest())",
    ],
    "d9_search": [
        "-c", "import triquad.optimizer as o; "
        "print(repr(o.optimize(9, target_e=7).best_residual))",
    ],
    # the search called directly, outside optimize's pin
    "d9_levenberg_marquardt": [
        "-c", "import hashlib; from triquad.basis import BasisSpec; "
        "from triquad.optimizer import _init_warp_blend, _levenberg_marquardt; "
        "state, steps = _levenberg_marquardt(BasisSpec(9), BasisSpec(16), "
        "_init_warp_blend(9, 0.05)); "
        "print(steps, hashlib.sha256(state.points.tobytes()).hexdigest())",
    ],
    "d14_weights": ["-m", "triquad.cli", "weights", "{file}", "--d", "14"],
    # the per-shell derivative products at D = 18
    "d10_derivatives": [
        "-c", "import hashlib; from triquad.basis import BasisSpec, vandermonde; "
        "from triquad.optimizer import _init_warp_blend; "
        "ev = vandermonde(BasisSpec(18), _init_warp_blend(10, 0.05), derivatives=True); "
        "print(hashlib.sha256(ev.d_xi1.tobytes() + ev.d_xi2.tobytes()).hexdigest())",
    ],
    "d14_newton_cotes_weights": [
        "-c", "import hashlib; from triquad.basis import BasisSpec; "
        "from triquad.optimizer import _init_warp_blend; "
        "from triquad.weights import newton_cotes_weights; "
        "sol = newton_cotes_weights(BasisSpec(14), _init_warp_blend(14, 0.05)); "
        "print(hashlib.sha256(sol.weights.tobytes()).hexdigest())",
    ],
    "d14_weight_jacobian": [
        "-c", "import hashlib; from triquad.basis import BasisSpec; "
        "from triquad.optimizer import _init_warp_blend; "
        "from triquad.weights import weight_jacobian; "
        "jac = weight_jacobian(BasisSpec(14), _init_warp_blend(14, 0.05)); "
        "print(hashlib.sha256(jac.tobytes()).hexdigest())",
    ],
    "d14_residual_jacobian": [
        "-c", "import hashlib; from triquad.basis import BasisSpec; "
        "from triquad.optimizer import _init_warp_blend, residual_jacobian; "
        "jac = residual_jacobian(BasisSpec(14), BasisSpec(25), _init_warp_blend(14, 0.05)); "
        "print(hashlib.sha256(jac.tobytes()).hexdigest())",
    ],
}


@pytest.mark.parametrize("probe", sorted(THREAD_PROBES))
def test_outputs_are_the_same_at_one_and_two_blas_threads(probe, tmp_path):
    file = tmp_path / "d14.txt"
    pts = _init_warp_blend(14, 0.05)
    file.write_text(emit_rule(QuadratureRule(14, pts, np.full(len(pts), 2.0 / len(pts)))))
    args = [arg.format(file=file) for arg in THREAD_PROBES[probe]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {
        subprocess.run(
            [sys.executable, *args], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    }
    assert len(outputs) == 1


def test_elimination_forms_one_jacobian_per_state(monkeypatch):
    # a rejected trial changes only the damping, so the Jacobian and its Gram
    # matrix of the state it stepped from are reused, with the same points;
    # each Jacobian starts with the derivatives of its state
    sweep, states, solves = triquad.optimizer._differentiate, [], []
    solve = np.linalg.solve

    def recording_sweep(ev):
        states.append(hashlib.sha256(ev.values.tobytes()).digest())
        return sweep(ev)

    def counting_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(triquad.optimizer, "_differentiate", recording_sweep)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    pts, _, _ = _eliminate(BasisSpec(7), BasisSpec(13))
    assert hashlib.sha256(pts.tobytes()).hexdigest() == (
        "e0c558cc0df5d22bfa62e42ce7590db74fd4a9637878ee938ebac9a287409fb7"
    )
    assert len(set(states)) == len(states)
    assert len(solves) > len(states)  # some trials were rejected


def test_no_point_set_is_tabulated_twice(monkeypatch):
    # elimination's states carry their basis values: a candidate's are its
    # level's with a row deleted, and restart 1's residual is its last
    # state's, so the search tabulates each point set it visits once
    digests, tabulate = [], triquad.optimizer.vandermonde

    def recording(spec, points, *args, **kwargs):
        digests.append(hashlib.sha256(np.asarray(points).tobytes()).digest())
        return tabulate(spec, points, *args, **kwargs)

    monkeypatch.setattr(triquad.optimizer, "vandermonde", recording)
    result = optimize(7, target_e=6)
    assert len(result.starts) == 2 and result.converged
    assert len(digests) > 1 and len(set(digests)) == len(digests)


def test_elimination_fails_where_the_strength_is_out_of_reach():
    assert _eliminate(BasisSpec(3), BasisSpec(6)) is None


def test_warp_blend_start_passes_the_weight_gates_at_d14():
    spec = BasisSpec(14)
    sol = WeightSolution(spec, _init_warp_blend(14, 0.05))
    assert sol.condition_estimate < 1e3
    # the collapsed solve's residual exceeds 1e-10, but its backward error
    # is a fraction of eps: it is accepted within its rounding floor
    collapsed = WeightSolution(spec, _init_collapsed_tensor(14))
    assert collapsed.solve_residual > 1e-10


def _perturbed_solve(monkeypatch, spec, pts, floors):
    """Patch the weight solve so that WeightSolution(spec, pts) leaves a
    residual of about `floors` rounding floors; returns that floor."""
    scale = np.abs(vandermonde(spec, pts).values).max(axis=1)
    floor = rounding_floor(WeightSolution(spec, pts).weights, scale)
    invert, b = triquad.weights._invert, integrals_vector(spec)

    def off_by_floors(a):
        inv, cond = invert(a)
        # w_0 = inv[0] @ b moves by `floors` floors / s_0
        inv[0] += floors * floor / scale[0] * b / (b @ b)
        return inv, cond

    monkeypatch.setattr(triquad.weights, "_invert", off_by_floors)
    return floor


def _raised_residual_and_floor(exc) -> tuple[float, float]:
    assert "rounding floor" in str(exc.value)
    residual, floor = map(float, re.findall(r"\d\.\d+e[-+]\d+", str(exc.value)))
    return residual, floor


def test_a_solve_residual_far_beyond_its_rounding_floor_raises(monkeypatch):
    spec, pts = BasisSpec(14), _init_collapsed_tensor(14)
    _perturbed_solve(monkeypatch, spec, pts, 1e3)
    with pytest.raises(DegenerateConfigurationError, match="solve residual") as exc:
        WeightSolution(spec, pts)
    residual, raised_floor = _raised_residual_and_floor(exc)
    assert residual == pytest.approx(1e3 * raised_floor, rel=0.01)


def test_a_solve_residual_beyond_its_floor_raises_though_it_is_below_1e_10(monkeypatch):
    # the floor is the weight solve's one gate: ten floors of d = 6's
    # warp-and-blend start are still far below the old constant 1e-10
    spec, pts = BasisSpec(6), _init_warp_blend(6, WARP_SHRINK)
    floor = _perturbed_solve(monkeypatch, spec, pts, 10.0)
    with pytest.raises(DegenerateConfigurationError, match="solve residual") as exc:
        WeightSolution(spec, pts)
    residual, raised_floor = _raised_residual_and_floor(exc)
    assert raised_floor == pytest.approx(floor, rel=1e-3)
    assert residual == pytest.approx(10.0 * raised_floor, rel=0.01)
    assert residual < 1e-10


def test_a_solve_residual_within_floor_factor_eps_passes_without_its_floor(monkeypatch):
    # g_0 = 1 and row 0 of the solve bound the floor below by FLOOR_FACTOR *
    # eps, so a residual within that never forms the floor
    calls = []

    def counting_floor(weights, scale):
        calls.append(1)
        return rounding_floor(weights, scale)

    monkeypatch.setattr(triquad.weights, "rounding_floor", counting_floor)
    sol = WeightSolution(BasisSpec(6), _init_warp_blend(6, WARP_SHRINK))
    assert sol.solve_residual <= FLOOR_FACTOR * np.finfo(float).eps
    assert calls == []


# the rows the acceptance pins cover that certify on restart 0, d: target_e
# at table strength; d = 13, at about 0.5 s a run, is left to those pins
PINNED_ROWS = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 5, 8: 6, 9: 7}


@pytest.fixture(scope="module")
def first_restart_results():
    return {d: optimize(d, target_e=e) for d, e in PINNED_ROWS.items()}


@pytest.mark.parametrize("seed", [0, 1, 10])
def test_d6_certifies_on_the_first_restart(seed, first_restart_results, tmp_path):
    # d = 6 and every other row of PINNED_ROWS: restart 0 starts from the
    # warp-and-blend nodes and converges; the search draws no random number,
    # so generate's --seed adds only the header line that records it
    header = f"# seed = {seed}\n"
    for d, result in first_restart_results.items():
        assert result.converged and len(result.starts) == 1, d
        report = result.rule.certification
        assert report.strength == d + PINNED_ROWS[d], d
        assert report.positive_weights and report.all_interior, d
        out = tmp_path / f"d{d}.txt"
        assert triquad.cli.main(["generate", "--d", str(d), "--e", str(PINNED_ROWS[d]),
                                 "--seed", str(seed),
                                 "--out", str(out)]) == 0
        text = out.read_text()
        assert header in text, d
        assert text.replace(header, "") == emit_rule(result.rule), d


def test_a_degenerate_start_raises():
    centroid = np.full((3, 2), -1.0 / 3.0)  # three coincident points
    with pytest.raises(DegenerateConfigurationError):
        _levenberg_marquardt(BasisSpec(1), BasisSpec(2), centroid)


def test_verbose_reports_every_restart(monkeypatch, capsys):
    # restart 0 ends on a degenerate start and elimination fails, so
    # neither start gives a candidate: the error names what each start did,
    # and nothing is printed
    def degenerate_search(spec_d, spec_de, points):
        raise DegenerateConfigurationError("degenerate configuration: start")

    monkeypatch.setattr(triquad.optimizer, "_levenberg_marquardt", degenerate_search)
    monkeypatch.setattr(triquad.optimizer, "_eliminate", lambda spec_d, spec_s: None)
    with pytest.raises(DegenerateConfigurationError) as exc:
        optimize(2, target_e=2)
    assert str(exc.value) == (
        "no start gave a candidate: restart 0: degenerate (degenerate "
        "configuration: start); restart 1: elimination failed"
    )
    assert capsys.readouterr() == ("", "")


def _stub_search(monkeypatch, converged, positive, residual):
    """Patch the search to end on a d = 1 state with these outcomes, and
    record its starts; returns (state, starts)."""
    pts = random_interior(np.random.default_rng(4), 3)
    state = SimpleNamespace(
        points=pts, converged=converged, positive=positive, max_residual=residual,
        weights=newton_cotes_weights(BasisSpec(1), pts).weights,
    )
    starts = []

    def recording_search(spec_d, spec_de, points):
        starts.append(points)
        return state, 1

    monkeypatch.setattr(triquad.optimizer, "_levenberg_marquardt", recording_search)
    return state, starts


# restart 0's outcome (converged, positive, residual) where elimination
# fails: restart 0's state is the result as it stands, and restart 1 runs
# unless restart 0 converged with positive weights
ELIMINATION_FAILED_CASES = {
    "converged_positive": (True, True, 9e-15),
    "converged_negative_weight": (True, False, 5e-15),
    "unconverged": (False, True, 1e-3),
}


@pytest.mark.parametrize("case", sorted(ELIMINATION_FAILED_CASES))
def test_restart_0_is_the_result_where_elimination_fails(case, monkeypatch):
    converged, positive, res = ELIMINATION_FAILED_CASES[case]
    state, starts = _stub_search(monkeypatch, converged, positive, res)
    monkeypatch.setattr(triquad.optimizer, "_eliminate", lambda spec_d, spec_s: None)
    result = optimize(1, target_e=1)
    first = f"restart 0: residual {res:.3e} after 1 iterations{' (converged)' * converged}"
    handed_over = ("restart 1: elimination failed",) * (not (converged and positive))
    assert result.starts == (first, *handed_over)
    assert np.array_equal(result.rule.points, state.points)
    assert result.best_residual == res and result.converged is converged
    # the search runs once, from warp-and-blend nodes
    assert len(starts) == 1 and np.array_equal(starts[0], _init_warp_blend(1, WARP_SHRINK))


def test_a_converged_restart_0_with_a_negative_weight_hands_over_to_elimination(monkeypatch):
    _, starts = _stub_search(monkeypatch, True, False, 5e-15)
    result = optimize(1, target_e=1)
    pts, w, _ = _eliminate(BasisSpec(1), BasisSpec(2))
    v = vandermonde(BasisSpec(2), pts).values
    residual = float(np.max(np.abs(v.T @ w - integrals_vector(BasisSpec(2)))))
    assert result.starts[1] == f"restart 1: residual {residual:.3e} after 0 iterations (converged)"
    # snapped to the barycentrics the rule file stores
    snapped = bary_to_ref(ref_to_bary(pts)[:, :2])
    assert np.array_equal(result.rule.points, snapped) and np.array_equal(result.rule.weights, w)
    assert result.best_residual == residual and result.converged
    assert result.rule.certification.positive_weights and len(starts) == 1


def _disagreeing_certify(rule):
    raise OracleDisagreementError("basis residuals certify strength 1 but ...")


def test_a_converged_winner_whose_oracles_disagree_raises(monkeypatch):
    monkeypatch.setattr(triquad.optimizer, "certify", _disagreeing_certify)
    with pytest.raises(OracleDisagreementError):
        optimize(1, target_e=1)


def test_an_unconverged_winner_whose_oracles_disagree_raises(monkeypatch):
    # the d3_unconverged settings below: a raise is a defect whether or not
    # the search converged
    monkeypatch.setattr(triquad.optimizer, "certify", _disagreeing_certify)
    with pytest.raises(OracleDisagreementError):
        optimize(3, target_e=3)


# Runs past restart 0: (d, settings, converged, best residual, SHA-256 of
# the emitted rule, the result's starts, which --verbose prints)
MULTI_RESTART_RUNS = {
    # restart 0 stalls, and restart 1 returns node elimination's rule,
    # whose residual over P_13 is a ninth of RESIDUAL_TOLERANCE
    "d7_restart1": (
        7, {"target_e": 6}, True, "1.096345e-15",
        "4ff3a2780464106278fa3b9f3f28469f37058cd0a71de00b414d08b87242e6d2",
        ["restart 0: residual 6.466e-02 after 36 iterations",
         "restart 1: residual 1.096e-15 after 0 iterations (converged)"],
    ),
    # strength 6 at d = 3 is out of reach: elimination fails, and restart 0
    # is the one candidate
    "d3_unconverged": (
        3, {"target_e": 3}, False, "4.364135e-02",
        "520a475308e33599f46e25d2ab888a637f58e9f937a3009a6888463753822538",
        ["restart 0: residual 4.364e-02 after 35 iterations",
         "restart 1: elimination failed"],
    ),
}


@pytest.mark.parametrize("search", [
    "o.optimize(6, target_e=5)",
    "o.optimize(3, target_e=3)",
], ids=["d6_restart0", "d3_unconverged"])
def test_numpy_random_loads_at_the_first_draw(search):
    # numpy.random would load at a search's first draw, and no search draws:
    # neither d = 6, which certifies on restart 0, nor the d3_unconverged
    # search above, which tries both starts and fails
    code = f"import sys, triquad.optimizer as o; {search}; print('numpy.random' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("name", sorted(MULTI_RESTART_RUNS))
def test_multi_restart_runs_keep_their_bytes(name):
    d, settings, converged, res, digest, lines = MULTI_RESTART_RUNS[name]
    result = optimize(d, **settings)
    assert list(result.starts) == lines
    assert result.converged is converged
    assert f"{result.best_residual:.6e}" == res
    assert hashlib.sha256(emit_rule(result.rule).encode()).hexdigest() == digest
