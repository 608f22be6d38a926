"""Minimal static SVG line charts (log-scale y), pure text generation."""
from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _ticks(lo, hi, count=6):
    """Round-valued ticks over lo < hi; the step is below hi - lo, so the first
    tick, the multiple of it at or above lo, never exceeds hi."""
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    ticks = [math.ceil(lo / step) * step]
    while ticks[-1] + step <= hi + 1e-9 * step:
        ticks.append(ticks[-1] + step)
    return ticks


def _thin(pts):
    """The first and last of the (x, y) pixel points and, per pixel column,
    its lowest and highest, in their order: the line drawn at the chart's
    resolution from at most two points a column."""
    extremes = {}   # pixel column -> [index of its smallest y, of its largest]
    for i, (px, py) in enumerate(pts):
        ext = extremes.setdefault(int(px), [i, i])
        if py < pts[ext[0]][1]:
            ext[0] = i
        elif py > pts[ext[1]][1]:
            ext[1] = i
    return [pts[i] for i in sorted({0, len(pts) - 1}.union(*extremes.values()))]


def line_chart_svg(series, title="", xlabel="", ylabel=""):
    """series: list of (label, xs, ys), drawn as log10(y) over its positive ys.
    Returns the SVG document as a string. A series of more than twice the
    plot's pixel width in points is thinned to its first and last point and
    each pixel column's extremes."""
    pts = [(float(x), math.log10(y)) for _label, xs, ys in series for x, y in zip(xs, ys) if y > 0]
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                   f'y2="{HEIGHT-MARGIN_B}" stroke="#ddd"/>')
        out.append(f'<text x="{px:.1f}" y="{HEIGHT-MARGIN_B+18}" text-anchor="middle" '
                   f'font-size="11">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH-MARGIN_R}" '
                   f'y2="{py:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{MARGIN_L-6}" y="{py+4:.1f}" text-anchor="end" '
                   f'font-size="11">1e{t:g}</text>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#333"/>')
    for idx, (label, xs, ys) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        pts = [(sx(float(x)), sy(math.log10(y))) for x, y in zip(xs, ys) if y > 0]
        if len(pts) > 2 * pw:
            pts = _thin(pts)
        coords = [f"{px:.2f},{py:.2f}" for px, py in pts]
        if coords:
            out.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * idx
        out.append(f'<line x1="{WIDTH-170}" y1="{ly-4}" x2="{WIDTH-146}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{WIDTH-140}" y="{ly}" font-size="12">{label}</text>')
    out.append(f'<text x="{WIDTH/2}" y="{HEIGHT-12}" text-anchor="middle" '
               f'font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{HEIGHT/2}" text-anchor="middle" font-size="13" '
               f'transform="rotate(-90 18 {HEIGHT/2})">{ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
