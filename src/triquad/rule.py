"""Quadrature rules, strength certification, and symmetry classification.

A rule's *strength* is the largest degree D such that it integrates every
polynomial of total degree <= D exactly (to rounding).  Certification
runs two independent oracles: the unit-triangle monomials, walked degree
by degree, and one tabulation of the orthonormal basis whose residuals
are reduced shell by shell.  A basis bug cannot silently certify, because
the two strengths must agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .basis import BasisSpec, dim_poly, rounding_floor, vandermonde
from .domain import (
    MONOMIAL_DEGREE_CAP,
    as_point_array,
    monomial_integral,
    points_inside,
    ref_to_bary,
    ref_to_unit,
)

D3_SYMMETRIC = "d3_symmetric"
ASYMMETRIC = "asymmetric"

#: Max-norm residual for a degree shell to count as exact (or its floor).
CERTIFY_TOL = 1e-12

#: Point/weight matching tolerance for symmetry classification.
SYMMETRY_TOL = 1e-10

#: Upper bound on the strength search: the monomial oracle's degree cap.
STRENGTH_CAP = MONOMIAL_DEGREE_CAP


class OracleDisagreementError(RuntimeError):
    """Basis-residual strength and monomial-oracle strength differ.

    This indicates a defect in the basis evaluation, not a property of the
    rule under test.
    """


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a strength certification."""

    strength: int
    max_error: float
    per_degree_error: dict[int, float]
    positive_weights: bool
    all_interior: bool
    symmetry: str


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable point-and-weight set on the reference triangle.

    `cardinal_degree` is the degree d with N = dim P_d for rules of the
    cardinal type; imported foreign rules may have no such d (None).
    Weights follow the internal convention sum(w) = 2, the triangle area.
    `certification` is the rule's one `CertificationReport`, or None until
    it is certified (a parsed file's header claims stay in `metadata`).
    """

    cardinal_degree: int | None
    points: np.ndarray
    weights: np.ndarray
    certification: CertificationReport | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = as_point_array(self.points)
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != wts.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} points but {wts.shape[0]} weights"
            )
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            xi1, xi2 = pts[bad[0]]
            raise ValueError(
                f"point {bad[0]} is not finite: ({float(xi1)!r}, {float(xi2)!r})"
            )
        bad = np.flatnonzero(~np.isfinite(wts))
        if bad.size:
            raise ValueError(f"weight {bad[0]} is not finite: {float(wts[bad[0]])!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        d = self.cardinal_degree
        if d is not None and wts.shape[0] != dim_poly(d):
            raise ValueError(f"{wts.shape[0]} points is not dim P_{d}")
        gap = abs(wts.sum() - 2.0)
        if gap > 1e-12 and gap > rounding_floor(wts, 1.0):
            # foreign rules parsed at looser file tolerance may land here
            warnings.warn(
                f"weights sum to {float(wts.sum())!r}, expected 2 (constant "
                "not integrated exactly)",
                stacklevel=2,
            )

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def dof_bound(d: int) -> int:
    """Largest degree admissible by the counting argument dim P_{d+e} <= 3N."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    budget = 3 * dim_poly(d)
    t = d
    while dim_poly(t + 1) <= budget:
        t += 1
    return t


@lru_cache(maxsize=STRENGTH_CAP + 1)
def _shell_integrals(degree: int) -> tuple[float, ...]:
    """Exact unit-triangle integrals of x^a y^(degree - a), a = 0..degree."""
    return tuple(monomial_integral(a, degree - a) for a in range(degree + 1))


def _monomial_shell_errors(rule: QuadratureRule):
    """Yield the max residual of the unit-triangle monomials of exact total
    degree 0, 1, ..., STRENGTH_CAP, one shell at a time.

    The power tables x^t and y^t grow by one entry per shell, so a monomial
    costs one product and one dot with the weights.
    """
    xy = ref_to_unit(rule.points)
    x, y = xy[:, 0], xy[:, 1]
    w_unit = rule.weights / 4.0  # reference area 2 -> unit area 1/2
    xp, yp = [], []
    for degree in range(STRENGTH_CAP + 1):
        # scalar powers of the strided columns: each entry is the value a
        # per-shell x ** a would give, so the shell errors keep their bits
        xp.append(x ** degree)
        yp.append(y ** degree)
        exact = _shell_integrals(degree)
        worst = 0.0
        for a in range(degree + 1):
            # one dot per monomial: a shell as one matrix product sums in
            # another order and moves large signed-weight errors
            approx = float(w_unit @ (xp[a] * yp[degree - a]))
            worst = max(worst, abs(approx - exact[a]))
        yield worst


def certify(rule: QuadratureRule) -> CertificationReport:
    """Certify the rule's strength against the orthonormal basis.

    The monomial oracle runs first and ascends to its first failing degree.
    It forms the unit-triangle coordinates and weights once per call, grows
    one table of coordinate powers shell by shell, and reads the exact
    integrals of each shell from a table cached per degree.  The basis is
    then tabulated once, at one degree past that strength; its graded
    enumeration holds every lower shell as leading columns, so one
    residual vector gives each shell's max-norm error.  The basis strength
    is the degree before the first shell whose error exceeds both CERTIFY_TOL
    and its rounding floor: of |w| over the tabulated values (over
    max(|x|, |y|)^t for degree-t monomials).  Shells past the monomial
    strength plus one cannot change the verdict: the strengths agree exactly
    when the basis passes every shell through the monomial strength and
    fails the next one, as in a walk over every degree.  On disagreement
    OracleDisagreementError is raised.  per_degree_error holds the shells
    through the first failing one.
    """
    mono_strength = -1
    unit_max = np.abs(ref_to_unit(rule.points)).max(axis=1)
    for t, error in enumerate(_monomial_shell_errors(rule)):
        if error > CERTIFY_TOL and error > rounding_floor(rule.weights / 4.0, unit_max**t):
            break
        mono_strength = t

    top = min(mono_strength + 1, STRENGTH_CAP)
    values = vandermonde(BasisSpec(top), rule.points).values
    res = values.T @ rule.weights
    res[0] -= 2.0
    errors = np.maximum.reduceat(
        np.abs(res), [dim_poly(t - 1) for t in range(top + 1)]
    )
    passed = errors <= CERTIFY_TOL  # NaN fails here
    if not passed.all():
        passed |= errors <= rounding_floor(rule.weights, np.abs(values).max(axis=1))
    failing = np.flatnonzero(~passed)
    strength = int(failing[0]) - 1 if failing.size else top
    if strength != mono_strength:
        at_least = "" if failing.size else "at least "
        raise OracleDisagreementError(
            f"basis residuals certify strength {at_least}{strength} but the "
            f"monomial oracle certifies {mono_strength}"
        )

    per_degree = {t: float(e) for t, e in enumerate(errors[: strength + 2])}
    max_error = float(np.max(errors[: strength + 1], initial=0.0))
    return CertificationReport(
        strength=strength,
        max_error=max_error,
        per_degree_error=per_degree,
        positive_weights=bool(np.all(rule.weights > 0.0)),
        all_interior=bool(np.all(points_inside(rule.points))),
        symmetry=classify_symmetry(rule),
    )


def classify_symmetry(rule: QuadratureRule) -> str:
    """D3 invariance check of the weighted point set.

    The six triangle symmetries act as permutations of the barycentric
    coordinates.  For each group element every transformed point's nearest
    original point (max-norm in reference coordinates) must lie within
    SYMMETRY_TOL and carry a weight within SYMMETRY_TOL of its own, and no
    original point may be the nearest to two transformed ones.  NaN never
    matches.
    """
    bary = ref_to_bary(rule.points)
    ref = rule.points
    wts = rule.weights
    rows = np.arange(rule.n_points)
    for perm in permutations(range(3)):
        transformed = 2.0 * bary[:, list(perm)][:, :2] - 1.0
        dist = np.max(np.abs(ref[None, :, :] - transformed[:, None, :]), axis=2)
        j = np.argmin(dist, axis=1)
        matched = (dist[rows, j] <= SYMMETRY_TOL) & (np.abs(wts - wts[j]) <= SYMMETRY_TOL)
        if not matched.all() or np.unique(j).size < rule.n_points:
            return ASYMMETRIC
    return D3_SYMMETRIC

