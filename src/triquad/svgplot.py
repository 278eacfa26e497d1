"""SVG rendering of quadrature rules on the equilateral triangle.

The reference triangle is mapped affinely onto the unit-edge equilateral
triangle (the paper-style view that makes asymmetry visible) and each
point becomes a filled circle whose area is proportional to its weight.
Output is a static SVG 1.1 document, byte-identical across runs for the
same rule: coordinates are formatted at fixed precision and nothing
time-dependent is emitted.
"""

from __future__ import annotations

import numpy as np

from .domain import EQUILATERAL_VERTICES, ref_to_equilateral
from .rule import QuadratureRule

# drawing geometry (pixels)
_EDGE = 360.0
_MARGIN = 40.0
_MAX_RADIUS = 14.0


def _canvas_transform():
    verts = EQUILATERAL_VERTICES * _EDGE
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    width = (xmax - xmin) + 2 * _MARGIN
    height = (ymax - ymin) + 2 * _MARGIN

    def to_canvas(xy: np.ndarray) -> np.ndarray:
        x = xy[:, 0] * _EDGE - xmin + _MARGIN
        y = height - (xy[:, 1] * _EDGE - ymin + _MARGIN)  # flip: SVG y grows down
        return np.column_stack([x, y])

    return to_canvas, width, height


def plot_rule(rule: QuadratureRule) -> str:
    """Render the rule as an SVG document string."""
    to_canvas, width, height = _canvas_transform()
    corners = to_canvas(EQUILATERAL_VERTICES)
    centers = to_canvas(ref_to_equilateral(rule.points))

    wmax = float(np.max(np.abs(rule.weights)))
    if wmax <= 0.0:
        wmax = 1.0
    # circle area proportional to weight, largest circle at _MAX_RADIUS
    radii = _MAX_RADIUS * np.sqrt(np.abs(rule.weights) / wmax)

    d = rule.cardinal_degree
    title = f"triangle quadrature rule: {rule.n_points} points"
    if d is not None:
        title += f", d={d}"
    if rule.certification is not None:
        title += f", strength={rule.certification.strength}"

    path = "M {} {} L {} {} L {} {} Z".format(
        *(f"{c:.2f}" for c in corners.ravel())
    )
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f"  <title>{title}</title>",
        f'  <path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for (cx, cy), r, w in zip(centers, radii, rule.weights):
        fill = "#1f4e9c" if w > 0.0 else "#c03020"
        lines.append(
            f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="{max(r, 0.75):.2f}" '
            f'fill="{fill}" fill-opacity="0.85"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
