"""Spans around the calls the CLI path makes into each triquad layer.

The tracer swaps a timing wrapper in for a public function at the module
binding where its caller looks it up (``triquad.rule.vandermonde`` is the
name ``certify`` calls), so no source file changes and private helpers
stay free to change.  Spans are aggregated in memory per name: call count,
total time and self time, where self time is a span's duration minus the
durations of the spans opened directly inside it.  A wrapped call records
only while a root span is open, so checks the benchmark runs between
operations do not count as program work.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, public name, span name).  A derivative tabulation of
#: ``vandermonde`` is recorded under its own span; see :func:`_span_name`.
BINDINGS = (
    ("triquad.optimizer", "vandermonde", "basis.vandermonde"),
    ("triquad.weights", "vandermonde", "basis.vandermonde"),
    ("triquad.rule", "vandermonde", "basis.vandermonde"),
    ("triquad.optimizer", "newton_cotes_weights", "weights.newton_cotes_weights"),
    ("triquad.cli", "newton_cotes_weights", "weights.newton_cotes_weights"),
    ("triquad.optimizer", "certify", "rule.certify"),
    ("triquad.cli", "certify", "rule.certify"),
    ("triquad.optimizer", "optimize", "optimizer.optimize"),
    ("triquad.cli", "optimize", "optimizer.optimize"),
    ("triquad.cli", "parse_rule", "ruleio.parse_rule"),
    ("triquad.cli", "emit_rule", "ruleio.emit_rule"),
    ("triquad.rule", "classify_symmetry", "rule.classify_symmetry"),
)

#: Every span the traced run reports, root first.
SPAN_NAMES = (
    "cli.main",
    "optimizer.optimize",
    "rule.certify",
    "rule.classify_symmetry",
    "weights.newton_cotes_weights",
    "basis.vandermonde",
    "basis.vandermonde_deriv",
    "ruleio.parse_rule",
    "ruleio.emit_rule",
)


def _span_name(base: str, args, kwargs) -> str:
    if base == "basis.vandermonde":
        deriv = kwargs.get("derivatives", args[2] if len(args) > 2 else False)
        if deriv:
            return "basis.vandermonde_deriv"
    return base


class Tracer:
    """In-memory span aggregates keyed by span name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, start, child time]

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, fn, base: str):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(_span_name(base, args, kwargs)):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, base in BINDINGS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    print(f"trace: {module_name}.{attr} not found; not traced",
                          file=sys.stderr)
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, base))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def wall(self, root: str = "cli.main") -> float:
        """Time inside root spans: the traced wall time."""
        return self.total[root]
