import triquad

# The public API: what the CLI and documented library use need.  A name
# added to or dropped from triquad.__all__ must be added or dropped here.
PUBLIC_NAMES = [
    "ASYMMETRIC",
    "AllRestartsDegenerateError",
    "BasisEvaluation",
    "BasisSpec",
    "CertificationReport",
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


def test_public_names_are_the_intended_list():
    assert sorted(triquad.__all__) == sorted(PUBLIC_NAMES)
    assert len(triquad.__all__) == len(set(triquad.__all__))


def test_every_public_name_resolves_on_the_package():
    missing = [name for name in triquad.__all__ if not hasattr(triquad, name)]
    assert missing == []
