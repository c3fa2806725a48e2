"""Minimal static SVG: empirical density histogram with Gaussian overlay."""

from __future__ import annotations

import math
from bisect import bisect_right

WIDTH, HEIGHT = 640, 420
MARGIN = 40
BINS = 80  # histogram bins across the plotted range
SPAN = 4.0  # the plotted range is +- SPAN standard deviations


def _scale(x, lo, hi, out_lo, out_hi):
    return out_lo + (x - lo) / (hi - lo) * (out_hi - out_lo)


def density_histogram(cdf_points, lo, hi, bins):
    """Bin masses from a right-continuous CDF; returns (edges, densities)."""
    width = (hi - lo) / bins
    edges = [lo + i * width for i in range(bins + 1)]
    xs = [x for x, _ in cdf_points]
    # F at each edge: the value of the last point at or left of it, 0 before any.
    fs = [0.0] + [f for _, f in cdf_points]
    at_edges = [fs[bisect_right(xs, edge)] for edge in edges]
    densities = [(b - a) / width for a, b in zip(at_edges, at_edges[1:])]
    return edges, densities


def render(cdf_points, sigma2):
    """SVG document with one histogram group and one Gaussian curve path."""
    sigma = math.sqrt(sigma2)
    lo, hi = -SPAN * sigma, SPAN * sigma
    edges, dens = density_histogram(cdf_points, lo, hi, BINS)
    peak = 1.0 / math.sqrt(2 * math.pi * sigma2)
    ymax = max([peak] + dens) * 1.15

    def px(x):
        return _scale(x, lo, hi, MARGIN, WIDTH - MARGIN)

    def py(y):
        return _scale(y, 0.0, ymax, HEIGHT - MARGIN, MARGIN)

    rects = []
    for i, d in enumerate(dens):
        if d <= 0:
            continue
        x0, x1 = px(edges[i]), px(edges[i + 1])
        y = py(d)
        rects.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" '
            f'height="{HEIGHT - MARGIN - y:.2f}"/>'
        )

    steps = 200
    path = []
    for i in range(steps + 1):
        x = lo + (hi - lo) * i / steps
        y = math.exp(-x * x / (2 * sigma2)) * peak
        cmd = "M" if i == 0 else "L"
        path.append(f"{cmd}{px(x):.2f},{py(y):.2f}")

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>\n'
        f'<g fill="#4477cc" fill-opacity="0.7">\n'
        + "\n".join(rects)
        + "\n</g>\n"
        f'<path d="{" ".join(path)}" fill="none" stroke="#cc3333" '
        f'stroke-dasharray="6 4" stroke-width="2"/>\n'
        "</svg>\n"
    )
