"""Minimal hand-rolled SVG output for the simulate command.

Only needs polygons, polylines, circles and text, so no plotting library.
The state-plane scene shows the constraint set, its contracted copies, and
a trajectory; the input scene shows the input signal against its bounds.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN_FRAC = 0.10
SHRINK_FLOOR = 0.05
MAX_COPIES = 300


def _coords(points, xlim, ylim) -> list:
    """Screen coordinates of the world points of a (k, 2) array, as pairs of
    strings: xlim maps onto [0, WIDTH] and ylim onto [HEIGHT, 0]. Finite
    points or limits near the end of the float range can overflow the
    mapping; that is a ValueError, not an inf in the scene."""
    points = np.asarray(points, dtype=float)
    (x0, x1), (y0, y1) = xlim, ylim
    with np.errstate(over="ignore", invalid="ignore"):
        span_x, span_y = x1 - x0, y1 - y0
        screen = np.column_stack([(points[:, 0] - x0) / span_x * WIDTH,
                                  (y1 - points[:, 1]) / span_y * HEIGHT])
    if not (np.isfinite([span_x, span_y]).all() and np.isfinite(screen).all()):
        raise ValueError("the scene reaches too far out for finite screen coordinates")
    # one "%.2f" operation over every coordinate, the bits f"{v:.2f}" gives
    flat = ("%.2f " * screen.size % tuple(screen.ravel().tolist())).split()
    return list(zip(flat[::2], flat[1::2]))


def _points(coords) -> str:
    return " ".join(f"{sx},{sy}" for sx, sy in coords)


def _scene(body, title) -> str:
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>', *body]
    if title:
        parts.append(f'<text x="10" y="20" font-family="sans-serif" font-size="14" '
                     f'fill="#333333">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def state_plane_svg(ordered_vertices, trajectory, lam=None, title="") -> str:
    """Scene with the set polygon, contracted copies for shrinking powers of
    lam (drawn while the factor stays above SHRINK_FLOOR), and a trajectory.
    Every k-th power is drawn, k the smallest that keeps MAX_COPIES or fewer,
    so k is 1 up to lam = 0.99 and a lam near 1 keeps the scene small."""
    verts = np.asarray(ordered_vertices, dtype=float)
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    pad_x = (xmax - xmin) * MARGIN_FRAC
    pad_y = (ymax - ymin) * MARGIN_FRAC
    lims = (xmin - pad_x, xmax + pad_x), (ymin - pad_y, ymax + pad_y)

    [(ox, oy)] = _coords(np.zeros((1, 2)), *lims)
    body = [f'<line x1="0" y1="{oy}" x2="{WIDTH}" y2="{oy}" stroke="#cccccc" stroke-width="1"/>',
            f'<line x1="{ox}" y1="0" x2="{ox}" y2="{HEIGHT}" stroke="#cccccc" stroke-width="1"/>',
            f'<polygon points="{_points(_coords(verts, *lims))}" fill="none" '
            'stroke="#1f77b4" stroke-width="2"/>']
    factors = []
    if lam is not None and 0.0 < lam < 1.0:
        step = lam ** (int(math.log(SHRINK_FLOOR) / math.log(lam)) // (MAX_COPIES + 1) + 1)
        factor = step
        while factor >= SHRINK_FLOOR:
            factors.append(factor)
            factor *= step
    ladder = _coords(np.multiply.outer(factors, verts).reshape(-1, 2), *lims)
    for k in range(0, len(ladder), len(verts)):
        body.append(f'<polygon points="{_points(ladder[k:k + len(verts)])}" fill="none" '
                    'stroke="#9ecae1" stroke-width="1" stroke-dasharray="4 3"/>')
    path = _coords(np.atleast_2d(np.asarray(trajectory, dtype=float)), *lims)
    body.append(f'<polyline points="{_points(path)}" fill="none" '
                'stroke="#d62728" stroke-width="1.5"/>')
    body.extend(f'<circle cx="{sx}" cy="{sy}" r="2.5" fill="#d62728"/>' for sx, sy in path)
    body.append(f'<circle cx="{path[0][0]}" cy="{path[0][1]}" r="4" fill="none" '
                'stroke="#d62728" stroke-width="1.5"/>')
    return _scene(body, title)


def input_signal_svg(inputs, lower: float, upper: float, title="") -> str:
    """Scalar input signal of one or more steps against its admissible band.
    An infinite side of the band is not drawn and does not set the scale."""
    u = np.asarray(inputs, dtype=float).reshape(-1)
    steps = len(u)
    bounds = [bound for bound in (lower, upper) if np.isfinite(bound)]
    span = max([abs(bound) for bound in bounds] + [float(np.max(np.abs(u)))]) or 1.0
    lims = (-0.5, steps - 0.5), (-1.15 * span, 1.15 * span)

    levels = _coords(np.column_stack([np.zeros(1 + len(bounds)), [0.0, *bounds]]), *lims)
    body = [f'<line x1="0" y1="{levels[0][1]}" x2="{WIDTH}" y2="{levels[0][1]}" '
            'stroke="#cccccc" stroke-width="1"/>']
    body.extend(f'<line x1="0" y1="{by}" x2="{WIDTH}" y2="{by}" '
                'stroke="#d62728" stroke-width="1" stroke-dasharray="6 4"/>'
                for _, by in levels[1:])
    signal = _coords(np.column_stack([np.arange(steps, dtype=float), u]), *lims)
    body.append(f'<polyline points="{_points(signal)}" fill="none" '
                'stroke="#1f77b4" stroke-width="1.5"/>')
    body.extend(f'<circle cx="{sx}" cy="{sy}" r="2" fill="#1f77b4"/>' for sx, sy in signal)
    return _scene(body, title)
