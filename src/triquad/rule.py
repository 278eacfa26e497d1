"""Quadrature rules, strength certification, and symmetry classification.

A rule's *strength* is the largest degree D such that it integrates every
polynomial of total degree <= D exactly (to rounding).  Certification
runs two independent oracles: products of shifted Legendre polynomials,
bounded by 1 and integrated in closed form, walked degree by degree, and
one tabulation of the orthonormal basis whose residuals are reduced shell
by shell.  The lower strength is reported; a basis bug cannot silently
certify, because it splits the two oracles by orders of magnitude.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .basis import BasisSpec, dim_poly, rounding_floor, vandermonde
from .domain import as_point_array, points_inside, ref_to_bary

D3_SYMMETRIC = "d3_symmetric"
ASYMMETRIC = "asymmetric"

#: Max-norm residual for a degree shell to count as exact (or its floor).
CERTIFY_TOL = 1e-12

#: Point/weight matching tolerance for symmetry classification.
SYMMETRY_TOL = 1e-10

#: Upper bound on the strength search.
STRENGTH_CAP = 60

#: An oracle failing a shell the other passes by this many times its own
#: bound signals a defect, not a near-tolerance rule.
GROSS_SPLIT = 1e6


class OracleDisagreementError(RuntimeError):
    """One oracle passes a shell that the other fails grossly.

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


def _legendre_shell_errors(rule: QuadratureRule):
    """Yield the max error of the rule on the products P_a(2x-1) P_c(2y-1),
    a + c = t, of shifted Legendre polynomials, for t = 0, ..., STRENGTH_CAP.

    On the unit triangle 2x - 1 and 2y - 1 are the reference coordinates,
    and the exact integrals are 1/2 at t = 0, (-1)^(k+1) / (2(2k+1)(2k+3))
    for {a, c} = {k, k+1}, and 0 otherwise.  The table of P_t at both
    coordinates grows by one recurrence row per shell.
    """
    s = rule.points.T
    w_unit = rule.weights / 4.0  # reference area 2 -> unit area 1/2
    table = np.empty((STRENGTH_CAP + 1, 2, rule.n_points))
    table[0], table[1] = 1.0, s
    for t in range(STRENGTH_CAP + 1):
        if t >= 2:
            table[t] = (2 - 1 / t) * s * table[t - 1] - (1 - 1 / t) * table[t - 2]
        error = (table[: t + 1, 0] * table[t::-1, 1]) @ w_unit
        if t == 0:
            error[0] -= 0.5
        elif t % 2:
            k = t // 2
            error[k : k + 2] -= (-1) ** (k + 1) / (2 * (2 * k + 1) * (2 * k + 3))
        yield float(abs(error).max())


def certify(rule: QuadratureRule) -> CertificationReport:
    """Certify the rule's strength by two oracles and report the lower one.

    The Legendre-product oracle ascends to its first failing shell.  The
    orthonormal basis is then tabulated once, through that shell (or
    STRENGTH_CAP), and one residual vector gives each shell's max-norm
    error.  A shell fails beyond both CERTIFY_TOL and its rounding floor:
    of |w| over the tabulated basis values, or of |w|/4 for the Legendre
    products, which are bounded by 1.  OracleDisagreementError is raised
    when one oracle passes a shell that the other fails by more than
    GROSS_SPLIT times its own bound.  per_degree_error holds the basis
    errors through shell strength + 1.
    """
    legendre_bound = max(CERTIFY_TOL, rounding_floor(rule.weights / 4.0, 1.0))
    legendre = []
    for error in _legendre_shell_errors(rule):
        legendre.append(error)
        if not error <= legendre_bound:  # NaN fails here
            break
    top = len(legendre) - 1
    values = vandermonde(BasisSpec(top), rule.points).values
    res = values.T @ rule.weights
    res[0] -= 2.0
    errors = np.maximum.reduceat(
        np.abs(res), [dim_poly(t - 1) for t in range(top + 1)]
    )
    basis_bound = max(CERTIFY_TOL, rounding_floor(rule.weights, np.abs(values).max(axis=1)))
    shells = np.array([errors, legendre])
    bounds = np.array([[basis_bound], [legendre_bound]])
    passed = shells <= bounds  # NaN fails here
    basis_strength, legendre_strength = np.where(
        passed.all(axis=1), top, passed.argmin(axis=1) - 1
    ).tolist()
    if (passed[::-1] & (shells > GROSS_SPLIT * bounds)).any():
        at_least = "at least " if passed[0].all() else ""
        raise OracleDisagreementError(
            f"basis residuals certify strength {at_least}{basis_strength} but "
            f"the Legendre-product oracle certifies {legendre_strength}"
        )

    strength = min(basis_strength, legendre_strength)
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
    matches.  The empty point set is its own image.
    """
    if rule.n_points == 0:
        return D3_SYMMETRIC
    bary = ref_to_bary(rule.points)
    ref = rule.points
    wts = rule.weights
    rows = np.arange(rule.n_points)
    for perm in permutations(range(3)):
        transformed = 2.0 * bary[:, list(perm)][:, :2] - 1.0
        dist = np.max(np.abs(ref[None, :, :] - transformed[:, None, :]), axis=2)
        j = np.argmin(dist, axis=1)
        matched = (dist[rows, j] <= SYMMETRY_TOL) & (np.abs(wts - wts[j]) <= SYMMETRY_TOL)
        if not matched.all() or np.bincount(j).max() > 1:
            return ASYMMETRIC
    return D3_SYMMETRIC

