"""Deterministic SVG rendering: curve, inscribed polygon, event annotations.

Planar results render as one 800x800 panel; space curves get two orthographic
views (xy and xz) side by side.  All coordinates are written with fixed
precision so fixed-seed runs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .curves import ClosedCurve, curve_points

SIZE = 800.0
MARGIN = 0.05


def _fmt(x: float) -> str:
    return format(x, ".3f")


class _Panel:
    def __init__(self, pts, offset_x=0.0):
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = max(float(np.max(hi - lo)), 1e-9)
        pad = MARGIN * SIZE
        self.scale = (SIZE - 2 * pad) / span
        self.lo = lo
        self.pad = pad
        self.offset_x = offset_x
        mid = 0.5 * (lo + hi)
        self.center_shift = (SIZE / 2.0) - self.scale * (mid - lo) - pad

    def map(self, p):
        x = self.offset_x + self.pad + self.scale * (p[0] - self.lo[0]) + self.center_shift[0]
        y = SIZE - (self.pad + self.scale * (p[1] - self.lo[1]) + self.center_shift[1])
        return x, y

    def path(self, pts, close=True, stroke="#1f3b73", width=1.5, dash=None):
        d = []
        for k, p in enumerate(pts):
            x, y = self.map(p)
            d.append(f"{'M' if k == 0 else 'L'}{_fmt(x)},{_fmt(y)}")
        if close:
            d.append("Z")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<path d="{"".join(d)}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def dot(self, p, r=5.0, fill="#c03020"):
        x, y = self.map(p)
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'

    def label(self, p, text, dx=8.0):
        x, y = self.map(p)
        return (
            f'<text x="{_fmt(x + dx)}" y="{_fmt(y)}" font-size="16" '
            f'font-family="monospace" fill="#222222">{text}</text>'
        )


def _document(views, draw) -> str:
    """One panel per view (i, j), side by side: draw(offset_x, i, j) yields a
    panel's elements; two panels get "xy view"/"xz view" labels."""
    width = int(SIZE * len(views))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {int(SIZE)}" '
        f'width="{width}" height="{int(SIZE)}">',
        f'<rect width="{width}" height="{int(SIZE)}" fill="#ffffff"/>',
    ]
    for v, (i, j) in enumerate(views):
        parts.extend(draw(v * SIZE, i, j))
        if len(views) > 1:
            axis = "xy" if (i, j) == (0, 1) else "xz"
            parts.append(
                f'<text x="{_fmt(v * SIZE + 16)}" y="28" font-size="18" '
                f'font-family="monospace" fill="#222222">{axis} view</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_octahedron_svg(sphere, q) -> str:
    """Two orthographic views of six sphere points with the octahedron edges."""
    from .residuals import OCT_EDGES

    theta = 2 * np.pi * np.arange(256) / 256
    p = sphere.embed(np.asarray(q, dtype=float).reshape(6, 3))

    def draw(offset_x, i, j):
        outline = np.column_stack([sphere.scale[i] * np.cos(theta), sphere.scale[j] * np.sin(theta)])
        pts = p[:, [i, j]]
        panel = _Panel(np.vstack([outline, pts]), offset_x)
        yield panel.path(np.vstack([outline, outline[:1]]), close=False)
        for a, b in OCT_EDGES:
            yield panel.path(pts[[a, b]], close=False, stroke="#c03020", width=1.5)
        for k, pt in enumerate(pts):
            yield panel.dot(pt)
            yield panel.label(pt, str(k + 1))

    return _document([(0, 1), (0, 2)], draw)


def render_svg(
    curve: ClosedCurve,
    polygons=(),
    annotations=(),
    extra_paths=(),
    samples: int = 512,
) -> str:
    """Render the curve with inscribed polygons (vertex-parameter tuples).

    polygons: iterables of vertex parameters; annotations: (vertex_params,
    text) pairs; extra_paths: iterables of vertex-parameter polylines drawn
    dashed (used for solution paths).
    """
    pts = curve_points(curve, samples)

    def draw(offset_x, i, j):
        proj = pts[:, [i, j]]
        panel = _Panel(proj, offset_x)
        yield panel.path(np.vstack([proj, proj[:1]]), close=False)
        for poly in polygons:
            vp = curve.eval(np.asarray(poly, dtype=float))[:, [i, j]]
            yield panel.path(vp, close=True, stroke="#c03020", width=2.0)
            for p in vp:
                yield panel.dot(p)
        for chain in extra_paths:
            vp = curve.eval(np.asarray(chain, dtype=float))[:, [i, j]]
            yield panel.path(vp, close=False, stroke="#2a7a2a", width=1.0, dash="4,3")
        for poly, text in annotations:
            vp = curve.eval(np.asarray(poly, dtype=float))[:, [i, j]]
            yield panel.label(vp[0], text)

    return _document([(0, 1)] if pts.shape[1] == 2 else [(0, 1), (0, 2)], draw)
