import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triquad
from triquad.cli import build_parser

# The public API: what the CLI and documented library use need.  A name
# added to or dropped from triquad.__all__ must be added or dropped here.
PUBLIC_NAMES = [
    "ASYMMETRIC",
    "BasisEvaluation",
    "BasisSpec",
    "CertificationReport",
    "D3_SYMMETRIC",
    "DegenerateConfigurationError",
    "OptimizeResult",
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
    "multi_indices",
    "newton_cotes_weights",
    "optimize",
    "parse_points_xyw",
    "parse_rule",
    "plot_rule",
    "rank_of",
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


def span_bindings():
    """perfbench/spans.py's BINDINGS: (module, name, span) triples."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BINDINGS


def test_every_benchmark_span_binding_resolves():
    # the benchmark traces a layer by swapping a wrapper in at each binding;
    # a binding that no longer resolves would silently drop that layer
    bindings = span_bindings()
    assert bindings
    for module_name, attr, _ in bindings:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_every_import_is_used_in_its_module():
    # a name a module imports and never reads is dead code, unless the
    # benchmark binds a span at it there
    bound = {(module, attr) for module, attr, _ in span_bindings()}
    unused = []
    for path in sorted(Path(triquad.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None
            ) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (f"triquad.{path.stem}", name) not in bound:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def loaded_modules(code):
    """The modules a fresh interpreter holds after running `code`."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code += "; import sys; print(); print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_start_up_does_not_load_scipy_special():
    # a fresh process pays for every module it imports: the library and the
    # CLI solve with numpy alone, so no part of scipy (and no second BLAS)
    # is loaded; the search draws no random number, so numpy.random never
    # loads, not even in a search that tries both starts and fails; hashlib
    # (OpenSSL) loads with the registry, so neither start-up, verify nor
    # generate without --register loads it
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "tri_d3_s5.txt"
    for code in ("import triquad, triquad.cli; triquad.BasisSpec(1)",
                 f"import triquad.cli; assert triquad.cli.main(['verify', {str(corpus)!r}]) == 0",
                 "import triquad.cli; assert triquad.cli.main(['generate', '--d', '3', '--e', '3']) == 1"):
        loaded = loaded_modules(code)
        assert "triquad.cli" in loaded
        unwanted = {m for m in loaded if m.split(".")[0] == "scipy"
                    or m.startswith("numpy.random") or m == "hashlib"}
        assert unwanted == set(), code


def test_every_public_name_is_documented_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    undocumented = [name for name in triquad.__all__ if f"`{name}`" not in readme]
    assert undocumented == []


# The fields of the public records.  A second copy of a fact one record
# already holds must be added here on purpose.
RECORD_FIELDS = {
    "QuadratureRule": ["cardinal_degree", "points", "weights", "certification", "metadata"],
    "OptimizeResult": ["rule", "best_residual", "starts"],
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_record_fields_are_the_intended_lists(name):
    fields = [f.name for f in dataclasses.fields(getattr(triquad, name))]
    assert fields == RECORD_FIELDS[name]


# optimize takes the problem and no search setting.  A new parameter, like
# a new record field, must be added here on purpose.
OPTIMIZE_PARAMETERS = [
    ("d", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
    ("target_e", inspect.Parameter.KEYWORD_ONLY, None),
]


def test_optimize_parameters_are_the_intended_list():
    params = inspect.signature(triquad.optimize).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == OPTIMIZE_PARAMETERS


# The option strings of each CLI subcommand.  A new option, like a new
# record field, must be added here on purpose.
CLI_OPTIONS = {
    "generate": ["--d", "--e", "--seed", "--restarts", "--out", "--register",
                 "--verbose", "--json"],
    "verify": ["--json", "--input-format", "--weight-scale"],
    "weights": ["--d", "--input-format", "--weight-scale"],
    "bound": ["--d"],
    "table": ["--registry", "--json"],
    "plot": ["--out", "--input-format", "--weight-scale"],
    "convert": ["--to", "--input-format", "--weight-scale"],
}


def test_cli_options_are_the_intended_lists():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in parser._actions if not isinstance(a, argparse._HelpAction)
               for s in a.option_strings]
        for name, parser in sub.choices.items()
    }
    assert options == CLI_OPTIONS


def test_only_the_cli_prints():
    # the library returns what it did (OptimizeResult.starts); the CLI
    # decides what reaches stdout
    printing = []
    for path in sorted(Path(triquad.__file__).parent.glob("*.py")):
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
        if calls and path.name != "cli.py":
            printing.append((path.name, calls))
    assert printing == []
