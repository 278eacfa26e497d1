import math
import re

import mpmath
import numpy as np
import pytest

from triquad.domain import (
    _gauss_jacobi_10,
    bary_to_ref,
    gauss_quadrature,
    monomial_integral,
    points_inside,
    ref_to_bary,
    ref_to_equilateral,
)


def iterated_gl_integral(a, b, nodes=64):
    """Independent oracle: nested 1-D Gauss-Legendre over the unit triangle."""
    x, wx = np.polynomial.legendre.leggauss(nodes)
    t = (x + 1.0) / 2.0  # outer variable on [0, 1]
    wt = wx / 2.0
    total = 0.0
    for ti, wi in zip(t, wt):
        # inner integral of y^b over [0, 1 - ti]
        span = 1.0 - ti
        y = span * (x + 1.0) / 2.0
        wy = wx * span / 2.0
        total += wi * ti**a * float(wy @ y**b)
    return total


@pytest.mark.parametrize(
    "xi,expected",
    [
        ((-1.0, -1.0), (0.0, 0.0)),
        ((1.0, -1.0), (1.0, 0.0)),
        ((-1.0 / 3.0, -1.0 / 3.0), (1.0 / 3.0, 1.0 / 3.0)),
    ],
)
def test_to_barycentric_vertices_and_centroid(xi, expected):
    b1, b2, _ = ref_to_bary([xi])[0]
    assert b1 == pytest.approx(expected[0], abs=1e-15)
    assert b2 == pytest.approx(expected[1], abs=1e-15)


def test_barycentric_third_coordinate_is_derived():
    b = ref_to_bary(bary_to_ref([(0.25, 0.5)]))[0]
    assert b[0] + b[1] + b[2] == 1.0


def test_barycentric_round_trip_random():
    rng = np.random.default_rng(42)
    b = rng.dirichlet([1.0, 1.0, 1.0], size=1000)
    p = 2.0 * b[:, :2] - 1.0
    q = bary_to_ref(ref_to_bary(p)[:, :2])
    assert np.max(np.abs(q - p)) <= 1e-14


@pytest.mark.parametrize(
    "b12", [[[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]], [0.25, 0.5], [[[0.25, 0.5]]]],
    ids=["full_barycentrics", "flat", "nested"],
)
def test_bary_to_ref_refuses_other_shapes_by_name(b12):
    shape = np.shape(b12)
    with pytest.raises(ValueError, match=rf"shape \(n, 2\), got {re.escape(str(shape))}"):
        bary_to_ref(b12)


def equilateral(xi):
    return ref_to_equilateral([xi])[0]


def test_gauss_quadrature_refuses_zero_nodes():
    with pytest.raises(ValueError, match="^need at least one node per direction$"):
        gauss_quadrature(0)


def test_equilateral_centroid_fixed():
    x, y = equilateral((-1.0 / 3.0, -1.0 / 3.0))
    assert abs(x) <= 1e-15 and abs(y) <= 1e-15


def test_equilateral_vertex_on_circumcircle():
    x, y = equilateral((-1.0, -1.0))
    assert math.hypot(x, y) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)


def test_equilateral_edge_midpoint_on_incircle():
    x, y = equilateral((0.0, -1.0))
    assert math.hypot(x, y) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-14)


def test_equilateral_preserves_midpoints():
    rng = np.random.default_rng(7)
    for _ in range(50):
        bp, bq = rng.dirichlet([1, 1, 1], size=2)
        p = np.array([2 * bp[0] - 1, 2 * bp[1] - 1])
        q = np.array([2 * bq[0] - 1, 2 * bq[1] - 1])
        mid_image = ref_to_equilateral(((p + q) / 2.0).reshape(1, 2))[0]
        image_mid = ref_to_equilateral(np.vstack([p, q])).mean(axis=0)
        assert np.max(np.abs(mid_image - image_mid)) <= 1e-14


@pytest.mark.parametrize(
    "a,b,expected",
    [(0, 0, 0.5), (1, 0, 1.0 / 6.0), (2, 3, 1.0 / 420.0)],
)
def test_monomial_integral_known_values(a, b, expected):
    assert monomial_integral(a, b) == pytest.approx(expected, rel=1e-15)


def test_monomial_integral_matches_iterated_quadrature():
    for a in range(21):
        for b in range(21 - a):
            exact = monomial_integral(a, b)
            oracle = iterated_gl_integral(a, b)
            assert abs(exact - oracle) <= 1e-13 * abs(oracle)


def test_monomial_integral_rejects_overflow_degree():
    with pytest.raises(ValueError):
        monomial_integral(40, 30)
    with pytest.raises(ValueError):
        monomial_integral(-1, 0)


def test_interiority_tolerance():
    inside = points_inside([
        (-1.0 - 5e-13, -0.5),
        (-1.0 - 5e-12, -0.5),
        (0.5, -0.5),  # on the hypotenuse
        (0.5, -0.5 + 1e-10),
    ])
    assert inside.tolist() == [True, False, True, False]


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_quadrature_oracle_integrates_monomials(n):
    pts, wts = gauss_quadrature(n)
    assert wts.sum() == pytest.approx(2.0, abs=1e-13)
    # compare against monomial_integral on the unit triangle mapping, for
    # every monomial through the rule's degree 2n - 1
    xy = (pts + 1.0) / 2.0
    for a in range(2 * n):
        for b in range(2 * n - a):
            approx = float((wts / 4.0) @ (xy[:, 0] ** a * xy[:, 1] ** b))
            assert approx == pytest.approx(monomial_integral(a, b), abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 24, 40])
def test_gauss_jacobi_rule_matches_a_40_digit_reference(n):
    nodes, weights = _gauss_jacobi_10(n)
    with mpmath.workdps(40):
        # Newton on P_n^{1,0} from each node finds the root next to it; n
        # distinct roots of a degree-n polynomial are all of them
        ref = [mpmath.findroot(lambda x: mpmath.jacobi(n, 1, 0, x), mpmath.mpf(x))
               for x in nodes]
        assert all(a < b for a, b in zip(ref, ref[1:]))
        # w = 4 / ((1 - x^2) P_n^{1,0}'(x)^2), with P_n^{1,0}' = (n + 2)/2 P_{n-1}^{2,1}
        slope = [(n + 2) * mpmath.jacobi(n - 1, 2, 1, x) / 2 for x in ref]
        ref_w = [4 / ((1 - x * x) * s * s) for x, s in zip(ref, slope)]
        node_err = max(abs(float(x - r)) for x, r in zip(nodes, ref))
        weight_err = max(abs(float((w - r) / r)) for w, r in zip(weights, ref_w))
    assert node_err <= 1e-15
    assert weight_err <= 1e-13
