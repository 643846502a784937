"""Minimal standalone SVG emission for fit-versus-data plots.

No plotting dependency: a log-log scatter of the data with the fitted
model drawn as a polyline, axes and tick labels included.  Good enough
to eyeball an expansion fit from a CLI run.
"""

import math


def _log_map(v, lo, hi, out_lo, out_hi):
    t = (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    return out_lo + t * (out_hi - out_lo)


def write_fit_svg(path, x, y_data, y_model, *, title="fit vs data"):
    width, height = 640, 440
    xs = [float(v) for v in x]
    yd = [abs(float(v)) for v in y_data]
    ym = [abs(float(v)) for v in y_model]
    pos = [(a, b, c) for a, b, c in zip(xs, yd, ym) if a > 0 and b > 0 and c > 0]
    if len(pos) < 2:
        raise ValueError("need at least two positive samples to plot")
    xs, yd, ym = map(list, zip(*pos))
    x_lo, x_hi = min(xs), max(xs)
    y_all = yd + ym
    y_lo, y_hi = min(y_all), max(y_all)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.5, y_hi * 2.0
    box = (70, 30, width - 20, height - 50)

    def px(v):
        return _log_map(v, x_lo, x_hi, box[0], box[2])

    def py(v):
        return _log_map(v, y_lo, y_hi, box[3], box[1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{box[0]}" y="{box[1]}" width="{box[2]-box[0]}" '
        f'height="{box[3]-box[1]}" fill="none" stroke="black"/>',
    ]
    for k in range(math.ceil(math.log10(x_lo)), math.floor(math.log10(x_hi)) + 1):
        v = 10.0 ** k
        parts.append(f'<line x1="{px(v):.1f}" y1="{box[3]}" x2="{px(v):.1f}" '
                     f'y2="{box[3]+5}" stroke="black"/>')
        parts.append(f'<text x="{px(v):.1f}" y="{box[3]+18}" text-anchor="middle" '
                     f'font-family="monospace" font-size="10">1e{k}</text>')
    for k in range(math.ceil(math.log10(y_lo)), math.floor(math.log10(y_hi)) + 1):
        v = 10.0 ** k
        parts.append(f'<line x1="{box[0]-5}" y1="{py(v):.1f}" x2="{box[0]}" '
                     f'y2="{py(v):.1f}" stroke="black"/>')
        parts.append(f'<text x="{box[0]-8}" y="{py(v)+3:.1f}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">1e{k}</text>')
    model_pts = " ".join(f"{px(a):.1f},{py(c):.1f}" for a, c in zip(xs, ym))
    parts.append(f'<polyline points="{model_pts}" fill="none" '
                 f'stroke="#c33" stroke-width="1.5"/>')
    for a, b in zip(xs, yd):
        parts.append(f'<circle cx="{px(a):.1f}" cy="{py(b):.1f}" r="2.4" '
                     f'fill="none" stroke="#226" stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
