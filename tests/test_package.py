import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

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
    "vandermonde",
    "weight_jacobian",
]


def test_public_names_are_the_intended_list():
    assert sorted(triquad.__all__) == sorted(PUBLIC_NAMES)
    assert len(triquad.__all__) == len(set(triquad.__all__))


def test_every_public_name_resolves_on_the_package():
    missing = [name for name in triquad.__all__ if not hasattr(triquad, name)]
    assert missing == []


def test_every_benchmark_span_binding_resolves():
    # the benchmark traces a layer by swapping a wrapper in at each binding;
    # a binding that no longer resolves would silently drop that layer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    for module_name, attr, _ in spans.BINDINGS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_every_public_name_is_documented_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    undocumented = [name for name in triquad.__all__ if f"`{name}`" not in readme]
    assert undocumented == []


# The fields of the public records.  A new settings knob, or a second copy
# of a fact one record already holds, must be added here on purpose.
RECORD_FIELDS = {
    "OptimizerConfig": ["target_e", "residual_tolerance", "restarts", "seed", "verbose"],
    "QuadratureRule": ["cardinal_degree", "points", "weights", "certification", "metadata"],
    "OptimizeResult": ["rule", "converged", "best_residual", "restarts_run"],
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_record_fields_are_the_intended_lists(name):
    fields = [f.name for f in dataclasses.fields(getattr(triquad, name))]
    assert fields == RECORD_FIELDS[name]
