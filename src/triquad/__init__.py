"""Polynomial quadrature rules on the triangle.

Generates cardinal quadrature rules (point count equal to dim P_d for a
chosen degree d) whose generalized Newton-Cotes weights integrate a much
larger polynomial space exactly, certifies rule strength against an
orthonormal basis with an independent monomial cross-check, classifies
triangle symmetry, and reads/writes the barycentric rule-file format.
"""

from .basis import (
    BasisEvaluation,
    BasisSpec,
    CollapsedVertexError,
    dim_poly,
    multi_indices,
    rank_of,
    vandermonde,
)
from .domain import (
    gauss_quadrature,
    monomial_integral,
)
from .optimizer import (
    AllRestartsDegenerateError,
    OptimizeResult,
    OptimizerConfig,
    optimize,
    residual,
    residual_jacobian,
)
from .rule import (
    ASYMMETRIC,
    D3_SYMMETRIC,
    CertificationReport,
    OracleDisagreementError,
    QuadratureRule,
    certify,
    classify_symmetry,
    dof_bound,
    validate,
)
from .ruleio import Registry, RuleParseError, emit_rule, parse_points_xyw, parse_rule
from .svgplot import plot_rule
from .weights import (
    DegenerateConfigurationError,
    WeightSolution,
    newton_cotes_weights,
    weight_jacobian,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMMETRIC",
    "AllRestartsDegenerateError",
    "BasisEvaluation",
    "BasisSpec",
    "CertificationReport",
    "CollapsedVertexError",
    "D3_SYMMETRIC",
    "DegenerateConfigurationError",
    "OptimizeResult",
    "OptimizerConfig",
    "OracleDisagreementError",
    "QuadratureRule",
    "Registry",
    "RuleParseError",
    "WeightSolution",
    "certify",
    "classify_symmetry",
    "dim_poly",
    "dof_bound",
    "emit_rule",
    "gauss_quadrature",
    "monomial_integral",
    "multi_indices",
    "newton_cotes_weights",
    "optimize",
    "parse_points_xyw",
    "parse_rule",
    "plot_rule",
    "rank_of",
    "residual",
    "residual_jacobian",
    "validate",
    "vandermonde",
    "weight_jacobian",
]
