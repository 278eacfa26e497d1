"""Command-line interface.

Subcommands: generate, verify, weights, bound, table, plot, convert.
Every failure exits nonzero with a one-line diagnostic on stderr, and each
library warning is printed there as one "warning: <message>" line; --json
switches reports to machine-readable output with fixed field names.

`build_parser` builds one parser per process, on its first call (not at
import), and returns that parser to every later call, `main`'s included.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from functools import cache
from pathlib import Path

from .basis import BasisSpec, dim_poly
from .domain import ref_to_bary, ref_to_unit
from .optimizer import AllRestartsDegenerateError, OptimizerConfig, optimize
from .rule import CERTIFY_TOL, OracleDisagreementError, QuadratureRule, certify, dof_bound
from .ruleio import Registry, emit_rule, parse_points_xyw, parse_rule
from .svgplot import plot_rule
from .weights import DegenerateConfigurationError, newton_cotes_weights

DEFAULT_REGISTRY = "rules"


def _report_dict(rule, report) -> dict:
    return {
        "strength": report.strength,
        "max_error": report.max_error,
        "positive_weights": report.positive_weights,
        "all_interior": report.all_interior,
        "symmetry": report.symmetry,
        "n_points": rule.n_points,
        "d": rule.cardinal_degree,
    }


def _print_report(rule, report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_report_dict(rule, report)))
        return
    print(
        f"strength={report.strength} max_error={report.max_error:.3e} "
        f"positive={'yes' if report.positive_weights else 'no'} "
        f"interior={'yes' if report.all_interior else 'no'} "
        f"sym={report.symmetry} n={rule.n_points} d={rule.cardinal_degree}"
    )


def _load_rule(path: str, input_format: str, weight_scale: float | None):
    if weight_scale is not None and input_format != "xyw":
        raise ValueError("--weight-scale applies only with --input-format xyw")
    text = Path(path).read_text()
    if input_format == "xyw":
        return parse_points_xyw(text, weight_scale)
    return parse_rule(text)


def _cmd_generate(args) -> int:
    e = args.e if args.e is not None else dof_bound(args.d) - args.d
    config = OptimizerConfig(
        target_e=e,
        seed=args.seed,
        restarts=args.restarts,
        verbose=args.verbose,
    )
    result = optimize(args.d, config)
    rule, report = result.rule, result.rule.certification
    if not result.converged:
        print(
            f"unconverged: best residual {result.best_residual:.3e} after "
            f"{result.restarts_run} restarts (certified strength {report.strength})",
            file=sys.stderr,
        )
        return 1
    text = emit_rule(rule)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.register:
        path = Registry(args.register).save(rule)
        print(f"registered {path}", file=sys.stderr)
    _print_report(rule, report, args.json)
    return 0


def _cmd_verify(args) -> int:
    rule = _load_rule(args.file, args.input_format, args.weight_scale)
    report = certify(rule, tolerance=args.tolerance)
    _print_report(rule, report, args.json)
    claimed = rule.metadata.get("header_strength")
    if claimed is not None:
        try:
            claimed_int = int(claimed)
        except ValueError:
            print(f"unusable strength claim in header: {claimed!r}", file=sys.stderr)
            return 2
        if report.strength < claimed_int:
            print(
                f"certified strength {report.strength} falls short of the "
                f"header claim {claimed_int}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_weights(args) -> int:
    rule = _load_rule(args.file, args.input_format, args.weight_scale)
    spec = BasisSpec(args.d)
    solution = newton_cotes_weights(spec, rule.points)
    refreshed = QuadratureRule(
        cardinal_degree=args.d,
        points=rule.points,
        weights=solution.weights,
        metadata={"generator": "triquad"},
    )
    sys.stdout.write(emit_rule(refreshed))
    print(
        f"condition_estimate={solution.condition_estimate:.3e} "
        f"solve_residual={solution.solve_residual:.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_bound(args) -> int:
    n = dim_poly(args.d)
    print(f"N={n} 3N={3 * n} max_degree={dof_bound(args.d)}")
    return 0


def _cmd_table(args) -> int:
    rows = Registry(args.registry).table_rows()
    if args.json:
        print(json.dumps(rows))
        return 0
    if not rows:
        print("registry is empty")
        return 0
    print(f"{'d':>3} {'N':>4} {'strength':>8} {'error':>10}  notes")
    for row in rows:
        err = row["max_error"] if row["max_error"] is not None else "-"
        sym = row["symmetry"] or ""
        note = "asym" if sym == "asymmetric" else ""
        d = row["d"] if row["d"] is not None else "-"
        s = row["strength"] if row["strength"] is not None else "-"
        print(f"{d:>3} {row['n_points']:>4} {s:>8} {err:>10}  {note}")
    return 0


def _cmd_plot(args) -> int:
    rule = _load_rule(args.file, args.input_format, args.weight_scale)
    svg = plot_rule(rule)
    Path(args.out).write_text(svg)
    return 0


def _cmd_convert(args) -> int:
    rule = _load_rule(args.file, args.input_format, args.weight_scale)
    if args.to == "barycentric":
        coords = ref_to_bary(rule.points)[:, :2]
        wts = rule.weights / 2.0
    elif args.to == "reference":
        coords = rule.points
        wts = rule.weights
    else:  # unit
        coords = ref_to_unit(rule.points)
        wts = rule.weights / 4.0
    for (a, b), w in zip(coords, wts):
        print(f"{a: .17e} {b: .17e} {w: .17e}")
    return 0


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input-format",
        choices=("rulefile", "xyw"),
        default="rulefile",
        help="rulefile: barycentric header format; xyw: plain unit-triangle triples",
    )
    parser.add_argument(
        "--weight-scale",
        type=float,
        default=None,
        help="override the weight rescaling used by the xyw adapter",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    # building costs a help formatter per argument; parsing leaves the
    # parser unchanged, so one serves every call
    parser = argparse.ArgumentParser(
        prog="triquad",
        description="Generate, certify, store, and plot quadrature rules on the triangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="optimize a cardinal rule")
    p.add_argument("--d", type=int, required=True, help="cardinal degree")
    p.add_argument(
        "--e",
        type=int,
        default=None,
        help="extra exactness degrees (default: degrees-of-freedom bound minus d)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--out", default=None, help="rule file destination (default stdout)")
    p.add_argument("--register", default=None, help="also save into this registry directory")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="certify a rule file")
    p.add_argument("file")
    p.add_argument("--tolerance", type=float, default=CERTIFY_TOL)
    p.add_argument("--json", action="store_true")
    _add_input_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("weights", help="recompute Newton-Cotes weights for a point file")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True)
    _add_input_options(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("bound", help="print N, 3N and the degrees-of-freedom bound")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="summarize the rule registry")
    p.add_argument("--registry", default=DEFAULT_REGISTRY)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("plot", help="render a rule as SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    _add_input_options(p)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("convert", help="print a rule in another coordinate system")
    p.add_argument("file")
    p.add_argument(
        "--to",
        choices=("barycentric", "reference", "unit"),
        required=True,
    )
    _add_input_options(p)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # the filters still pick what shows; one line replaces the source dump
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:  # RuleParseError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (
            DegenerateConfigurationError,
            AllRestartsDegenerateError,
            OracleDisagreementError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
