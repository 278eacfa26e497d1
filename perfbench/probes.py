"""Layer probes: median per-call times of single layers at table sizes.

No workload runs rows d >= 7 (d = 7 alone takes about six minutes), so
the probes time one call of each layer on collapsed Gauss-Legendre nodes
at the cardinal degree d and the table strength D of rows 6, 7, 10, 14.
A layer that refuses a configuration (a numerical gate at d >= 10) is a
failed probe, reported with its exception name.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from triquad.basis import BasisSpec, vandermonde
from triquad.optimizer import residual_jacobian
from triquad.rule import QuadratureRule, certify
from triquad.weights import newton_cotes_weights, weight_jacobian

#: (cardinal degree d, table strength D)
PROBE_SIZES = ((6, 11), (7, 13), (10, 18), (14, 25))

PROBE_LAYERS = (
    "vandermonde",
    "vandermonde_deriv",
    "newton_cotes_weights",
    "weight_jacobian",
    "residual_jacobian",
    "certify",
)


def collapsed_gauss_points(d: int) -> np.ndarray:
    """dim P_d points: Gauss-Legendre tensor nodes collapsed onto the triangle."""
    nodes, _ = np.polynomial.legendre.leggauss(d + 1)
    return np.array([
        ((1.0 + nodes[i]) * (1.0 - nodes[j]) / 2.0 - 1.0, nodes[j])
        for i in range(d + 1)
        for j in range(d + 1 - i)
    ])


def probe_name(d: int, big_d: int, layer: str) -> str:
    return f"probe.d{d}_D{big_d}.{layer}_ms"


def _calls(d: int, big_d: int):
    pts = collapsed_gauss_points(d)
    spec_d, spec_big = BasisSpec(d), BasisSpec(big_d)
    rule = None  # built on first use, so a refused weight solve fails the probe

    def certify_call():
        nonlocal rule
        if rule is None:
            weights = newton_cotes_weights(spec_d, pts).weights
            rule = QuadratureRule(cardinal_degree=d, points=pts, weights=weights)
        return certify(rule)

    return {
        "vandermonde": lambda: vandermonde(spec_big, pts),
        "vandermonde_deriv": lambda: vandermonde(spec_big, pts, derivatives=True),
        "newton_cotes_weights": lambda: newton_cotes_weights(spec_d, pts),
        "weight_jacobian": lambda: weight_jacobian(spec_d, pts),
        "residual_jacobian": lambda: residual_jacobian(spec_d, spec_big, pts),
        "certify": certify_call,
    }


def run_probes(repeats: int) -> tuple[dict[str, float], list[str]]:
    """Median milliseconds per call for every probe, and the failed ones.

    A failed probe reads 0.0 and is named in the returned list.
    """
    times: dict[str, float] = {}
    failures: list[str] = []
    for d, big_d in PROBE_SIZES:
        calls = _calls(d, big_d)
        for layer in PROBE_LAYERS:
            name = probe_name(d, big_d, layer)
            samples = []
            try:
                calls[layer]()  # warm caches and lazy set-up
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    calls[layer]()
                    samples.append(time.perf_counter() - t0)
            except Exception as exc:  # a refused probe is a result, not a crash
                times[name] = 0.0
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            times[name] = 1e3 * statistics.median(samples)
    return times, failures
