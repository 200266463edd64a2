"""Deterministic SVG rendering for patterns and tessellations.

Output is plain SVG 1.1 text assembled with fixed-precision formatting
and stable iteration order, so the same inputs give byte-identical files
on every run.
"""

from __future__ import annotations

import numpy as np

from .pattern import PointPattern

DEFAULT_SCALE = 10.0

# cell fill keyed by side count; unlisted counts fall back to white
_SIDE_FILLS = {
    3: "#dce9f7",
    4: "#d3ead3",
    5: "#f6e7c9",
    6: "#ebebeb",
    7: "#f2d7d7",
    8: "#e4d6f1",
}


def _f(x: float) -> str:
    return f"{x:.6f}"


def _header(lengths, scale: float) -> list[str]:
    if not scale > 0:
        raise ValueError("scale must be positive")
    lx, ly = lengths
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'width="{lx * scale:.6g}" height="{ly * scale:.6g}" '
         f'viewBox="0 0 {_f(lx)} {_f(ly)}">'),
        # flip to y-up so geometry reads like the coordinate system
        f'<g transform="matrix(1 0 0 -1 0 {_f(ly)})">',
        (f'<rect x="0" y="0" width="{_f(lx)}" height="{_f(ly)}" '
         f'fill="#ffffff" stroke="none"/>'),
    ]


def _footer(lengths) -> list[str]:
    lx, ly = lengths
    stroke = 0.004 * min(lx, ly)
    return [
        (f'<rect x="0" y="0" width="{_f(lx)}" height="{_f(ly)}" '
         f'fill="none" stroke="#222222" stroke-width="{_f(stroke)}"/>'),
        "</g>",
        "</svg>",
    ]


def _dots(points, r: float, paint: str) -> list[str]:
    """One circle per point; paint holds the fill attributes."""
    rs = _f(r)
    return [f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{rs}" {paint}/>'
            for x, y in points]


def render_pattern(pattern: PointPattern, scale: float = DEFAULT_SCALE) -> str:
    """Render points as filled dots; hard-core points at true radius.
    scale sets the pixel size of one model unit."""
    if pattern.box.dim != 2:
        raise ValueError("only 2D patterns can be rendered")
    lengths = pattern.box.lengths
    r = pattern.hard_radius
    if r is None:
        r = 0.008 * pattern.box.min_length
        paint = 'fill="#1f3044"'
    else:
        paint = 'fill="#2b5d8a" fill-opacity="0.85"'
    lines = (_header(lengths, scale) + _dots(pattern.points, r, paint)
             + _footer(lengths))
    return "\n".join(lines) + "\n"


def render_tess_model(model, scale: float = DEFAULT_SCALE) -> str:
    """Render a face model (see tessellation.face_model): one closed path
    per face, colored by side count, generators overdrawn as dots."""
    lengths = model.lengths
    corners = (model.vertices[model.corner_row]
               + model.corner_offset * np.asarray(lengths))
    xy = [f"{_f(x)} {_f(y)}" for x, y in corners.tolist()]
    stroke = _f(0.003 * min(lengths))
    ptr = model.ptr.tolist()
    lines = _header(lengths, scale)
    lines.extend(
        f'<path d="M {" L ".join(xy[s:e])} Z" '
        f'fill="{_SIDE_FILLS.get(sides, "#ffffff")}" stroke="#444444" '
        f'stroke-width="{stroke}"/>'
        for s, e, sides in zip(ptr, ptr[1:], model.sides.tolist()))
    if model.generators is not None:
        lines += _dots(model.generators, 0.006 * min(lengths), 'fill="#1f3044"')
    lines.extend(_footer(lengths))
    return "\n".join(lines) + "\n"
