"""Minimal static SVG line plots, one polyline per series.

Hand-rolled on purpose: the output is a deterministic function of the
data, with no timestamps or library-version metadata.
"""

import numpy as np

from . import numfmt

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#17becf")


def write_line_plot(path, x, series):
    """Write a 900 x 480 plot of relative-phase probabilities against tau to ``path``.

    ``series`` is a sequence of (label, y-array) pairs drawn over the
    common abscissa ``x``.  The y range is padded a little and always
    includes zero, which suits probability curves.  Each polyline is
    formatted and written ``numfmt.CHUNK // 2`` points (``numfmt.CHUNK``
    cells) at a time.  Raises ValueError before the file is opened: for
    no series, for an ``x`` not 1-D, empty or not finite, and naming the
    first series not shaped like ``x`` or not finite, which would spoil
    the scale of every polyline.
    """
    x = np.asarray(x, dtype=float)
    if len(series) == 0:
        raise ValueError("need at least one series to plot")
    if x.ndim != 1:
        raise ValueError(f"x must be 1-D, got shape {x.shape}")
    if len(x) == 0:
        raise ValueError("x holds no point to plot")
    if not np.all(np.isfinite(x)):
        raise ValueError("x holds a non-finite value")
    series = [(label, np.asarray(y, dtype=float)) for label, y in series]
    for label, y in series:
        if y.shape != x.shape:
            raise ValueError(f"series {label} has shape {y.shape}, not x's {x.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError(f"series {label} holds a non-finite value")
    width, height = 900, 480
    margin_left, margin_right, margin_top, margin_bottom = 64, 150, 36, 48
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    ymin = min(0.0, min(float(np.min(y)) for _, y in series))
    ymax = max(float(np.max(y)) for _, y in series)
    if ymax <= ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmin, xmax = float(x[0]), float(x[-1])
    if xmax <= xmin:
        xmax = xmin + 1.0

    def sx(v):
        return margin_left + (v - xmin) / (xmax - xmin) * plot_w

    def sy(v):
        return margin_top + (ymax - v) / (ymax - ymin) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">Relative-phase probabilities</text>',
    ]

    n_ticks = 5
    for k in range(n_ticks + 1):
        xv = xmin + (xmax - xmin) * k / n_ticks
        px = sx(xv)
        parts.append(f'<line x1="{px:.3f}" y1="{margin_top + plot_h}" '
                     f'x2="{px:.3f}" y2="{margin_top + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.3f}" y="{margin_top + plot_h + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.3g}</text>')
        yv = ymin + (ymax - ymin) * k / n_ticks
        py = sy(yv)
        parts.append(f'<line x1="{margin_left - 5}" y1="{py:.3f}" '
                     f'x2="{margin_left}" y2="{py:.3f}" stroke="#333"/>')
        parts.append(f'<text x="{margin_left - 8}" y="{py + 4:.3f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{yv:.3g}</text>')
    parts.append(f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">rescaled time tau</text>')
    yx, yy = 16, margin_top + plot_h / 2
    parts.append(f'<text x="{yx}" y="{yy:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 {yx} {yy:.1f})">probability</text>')

    points = numfmt.CHUNK // 2
    with open(path, "wb") as handle:
        handle.write("\n".join(parts).encode())
        for k, (label, y) in enumerate(series):
            color = PALETTE[k % len(PALETTE)]
            handle.write(f'\n<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.3" points="'.encode())
            for start in range(0, len(x), points):
                stop = start + points
                if start:
                    handle.write(b" ")
                pixels = np.column_stack([sx(x[start:stop]), sy(y[start:stop])])
                handle.write(numfmt.format_table(pixels, b"%.3f", b", ")[:-1])
            ly = margin_top + 16 + 18 * k
            lx = margin_left + plot_w + 12
            handle.write(f'"/>\n<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
                         f'\n<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                         f'font-size="12">{label}</text>'.encode())
        handle.write(b"\n</svg>\n")
