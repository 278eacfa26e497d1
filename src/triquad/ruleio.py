"""Rule file format, the plain x-y-w import adapter, and the rule registry.

A rule file is plain text: comment lines starting with '#' carry key=value
header fields, and each record line holds the first two barycentric
coordinates of a point followed by its quadrature weight, 17 significant
digits each.  File weights are normalized to sum to 1; parsing rescales
them by 2 (the reference-triangle area) for the internal convention.

The registry is a directory with one file per rule named
tri_d<D>_s<S>.txt plus an index file listing each file's SHA-256 digest,
so stored rules can be checked for tampering.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .basis import dim_poly
from .domain import bary_to_ref, points_inside, ref_to_bary
from .rule import QuadratureRule

#: Allowed deviation of the file weight column from sum 1.
WEIGHT_SUM_TOL = 1e-10


class RuleParseError(ValueError):
    """Malformed rule file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _infer_cardinal_degree(n: int) -> int | None:
    d = 0
    while dim_poly(d) < n:
        d += 1
    return d if dim_poly(d) == n else None


def _read_records(text: str) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and the (n, 3) array of record lines of a rule text.

    Lines starting with '#' are comments; those holding key=value fill the
    header.  Every other non-blank line must hold three finite numbers.
    """
    header: dict[str, str] = {}
    records: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        fields = line.split()
        if len(fields) != 3:
            raise RuleParseError(
                f"expected 3 whitespace-separated fields, got {len(fields)}",
                lineno,
            )
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise RuleParseError(f"unparseable number ({exc})", lineno) from None
        if not all(map(math.isfinite, values)):
            raise RuleParseError(f"non-finite number in {line!r}", lineno)
        records.append(values)
    if not records:
        raise RuleParseError("no point records found")
    return header, np.array(records)


def parse_rule(text: str) -> QuadratureRule:
    """Parse rule-file text into a rule in the internal convention.

    Header claims (d, strength, ...) land in rule.metadata under
    'header_*' keys and stay uncertified: `certification` is None.  A d
    or strength that is not an integer raises RuleParseError.
    Points outside the triangle only warn, since foreign rules may
    legitimately contain them.
    """
    header, records = _read_records(text)
    weights_file = records[:, 2]
    n = len(weights_file)
    if abs(weights_file.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise RuleParseError(
            f"file weights sum to {weights_file.sum()!r}, expected 1 "
            f"within {WEIGHT_SUM_TOL:g}"
        )
    points = bary_to_ref(records[:, :2])
    outside = ~points_inside(points)
    if outside.any():
        warnings.warn(
            f"{int(outside.sum())} point(s) outside the triangle "
            f"(records {[int(i) + 1 for i in np.nonzero(outside)[0]]})",
            stacklevel=2,
        )

    metadata = {f"header_{k}": v for k, v in header.items()}
    d = _header_int(header, "d")
    _header_int(header, "strength")  # refused here, so readers may int() it
    if d is None:
        d = _infer_cardinal_degree(n)
    elif dim_poly(d) != n:
        d = None  # foreign rule with a stale header; treat as non-cardinal
    return QuadratureRule(
        cardinal_degree=d,
        points=points,
        weights=2.0 * weights_file,
        metadata=metadata,
    )


def _header_int(header: dict[str, str], key: str) -> int | None:
    """Header field `key` as an integer; None when the header lacks it."""
    if key not in header:
        return None
    try:
        return int(header[key])
    except ValueError:
        raise RuleParseError(f"header {key} is not an integer: {header[key]!r}") from None


def emit_rule(rule: QuadratureRule) -> str:
    """Serialize a rule; round-trips through parse_rule to 1e-15.

    Only a certified rule has the strength through all_interior lines.
    The header records provenance but never timestamps, keeping emission
    byte-deterministic for a given rule.
    """
    meta, cert = rule.metadata, rule.certification
    lines = [
        "# triangle quadrature rule",
        "# format: b1 b2 weight  (barycentric coordinates; weights sum to 1)",
    ]
    fields = {"d": rule.cardinal_degree, "n_points": rule.n_points}
    if cert is not None:
        fields.update(
            strength=cert.strength,
            max_error=f"{cert.max_error:.3e}",
            symmetry=cert.symmetry,
            positive_weights="yes" if cert.positive_weights else "no",
            all_interior="yes" if cert.all_interior else "no",
        )
    fields.update(generator=meta.get("generator"), seed=meta.get("seed"))
    for key, value in fields.items():
        if value is not None:
            lines.append(f"# {key} = {value}")
    records = np.column_stack([ref_to_bary(rule.points)[:, :2], rule.weights / 2.0])
    # one % for the whole block; "% .17e" % x writes the bytes of f"{x: .17e}"
    block = ("% .17e % .17e % .17e\n" * rule.n_points) % tuple(records.ravel().tolist())
    return "\n".join(lines) + "\n" + block


def parse_points_xyw(text: str, weight_scale: float | None = None) -> QuadratureRule:
    """Adapter for plain "x y w" triples on the unit right triangle.

    Interprets (x, y) as unit-triangle Cartesian coordinates.  Weights are
    multiplied by weight_scale to reach the internal sum(w) = 2 convention;
    when omitted, the scale is inferred from the weight sum (assuming the
    file integrates the constant exactly in its own convention).  A given
    weight_scale that is not finite and positive raises ValueError.
    """
    if weight_scale is not None and not (
        math.isfinite(weight_scale) and weight_scale > 0.0
    ):
        raise ValueError(f"weight_scale must be finite and positive, got {weight_scale!r}")
    _, records = _read_records(text)
    weights = records[:, 2]
    if weight_scale is None:
        total = weights.sum()
        if abs(total) < 1e-30:
            raise RuleParseError("weight sum is zero; pass an explicit weight scale")
        weight_scale = 2.0 / total
    return QuadratureRule(
        cardinal_degree=_infer_cardinal_degree(len(weights)),
        points=bary_to_ref(records[:, :2]),
        weights=weight_scale * weights,
    )


def _digest(data: bytes) -> str:
    """SHA-256 hex digest of `data`, as the registry index records it.

    hashlib (OpenSSL) is imported here, not with the module: only the
    registry hashes, and a process that never opens one never loads it.
    """
    import hashlib

    return hashlib.sha256(data).hexdigest()


class Registry:
    """On-disk rule store: one file per rule plus a digest index."""

    INDEX_NAME = "index.txt"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def rule_filename(self, rule: QuadratureRule) -> str:
        d = rule.cardinal_degree if rule.cardinal_degree is not None else "x"
        s = rule.certification.strength if rule.certification is not None else "x"
        return f"tri_d{d}_s{s}.txt"

    def save(self, rule: QuadratureRule) -> Path:
        """Write the rule file and refresh its index line."""
        self.root.mkdir(parents=True, exist_ok=True)
        name = self.rule_filename(rule)
        path = self.root / name
        text = emit_rule(rule)
        path.write_text(text)
        self._update_index(name, text)
        return path

    def _read_index(self) -> dict[str, str]:
        """File name -> recorded SHA-256 digest; empty without an index file.

        Each index line is the file name, one space, then the digest.
        """
        index = self.root / self.INDEX_NAME
        entries: dict[str, str] = {}
        if index.exists():
            for line in index.read_text().splitlines():
                if line.strip():
                    fname, _, dig = line.partition(" ")
                    entries[fname] = dig.strip()
        return entries

    def _update_index(self, name: str, text: str) -> None:
        entries = self._read_index()
        entries[name] = _digest(text.encode())
        lines = [f"{fname} {dig}" for fname, dig in sorted(entries.items())]
        (self.root / self.INDEX_NAME).write_text("\n".join(lines) + "\n")

    def names(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.glob("tri_d*_s*.txt"))

    def load(self, name: str) -> QuadratureRule:
        self.verify_digest(name)  # integrity before content
        return parse_rule((self.root / name).read_text())

    def verify_digest(self, name: str) -> None:
        recorded = self._read_index().get(name)
        if recorded is None:
            raise RuleParseError(f"registry index has no digest for {name}")
        actual = _digest((self.root / name).read_bytes())
        if actual != recorded:
            raise RuleParseError(
                f"registry digest mismatch for {name}: file was modified"
            )

    def table_rows(self) -> list[dict]:
        """Summary rows in the style of the published results table."""
        rows = []
        for name in self.names():
            rule = self.load(name)
            meta = rule.metadata
            rows.append(
                {
                    "file": name,
                    "d": rule.cardinal_degree,
                    "n_points": rule.n_points,
                    "strength": _header_int(meta, "header_strength"),
                    "max_error": meta.get("header_max_error"),
                    "symmetry": meta.get("header_symmetry"),
                }
            )
        rows.sort(key=lambda r: (r["d"] is None, r["d"], r["n_points"]))
        return rows
