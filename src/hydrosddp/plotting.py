"""Standalone SVG convergence charts (no external renderer needed).

One polyline for the deterministic lower bound, one marker per
upper-bound estimate with a vertical 95% error bar. Input rows are the
dicts produced by ``caseio.read_convergence_csv``.
"""

from __future__ import annotations

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 24, 36, 48
Z95 = 1.96


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def convergence_svg(rows) -> str:
    if not rows:
        raise ValueError("no convergence rows to plot")
    iters = [r["iteration"] for r in rows]
    lbs = [r["lower_bound"] for r in rows]
    ub_pts = [(r["iteration"], r["ub_mean"], r["ub_stderr"] or 0.0)
              for r in rows if r["ub_mean"] is not None]

    ys = list(lbs)
    for _, mean, err in ub_pts:
        ys += [mean - Z95 * err, mean + Z95 * err]
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo) or max(1e-9, 0.05 * abs(y_hi)) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = min(iters), max(iters)
    if x_hi == x_lo:
        x_hi = x_lo + 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">Convergence</text>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
        f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
    ]
    # y ticks
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{_fmt(sy(yv))}" x2="{MARGIN_L}" '
            f'y2="{_fmt(sy(yv))}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(sy(yv) + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f'{yv:.4g}</text>')
    # x ticks: first, middle, last iteration
    for xv in sorted({x_lo, (x_lo + x_hi) // 2, x_hi}):
        parts.append(
            f'<line x1="{_fmt(sx(xv))}" y1="{HEIGHT - MARGIN_B}" '
            f'x2="{_fmt(sx(xv))}" y2="{HEIGHT - MARGIN_B + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(sx(xv))}" y="{HEIGHT - MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{xv}</text>')
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
        f'y="{HEIGHT - 12}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">iteration</text>')

    points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}"
                      for x, y in zip(iters, lbs))
    parts.append(f'<polyline points="{points}" fill="none" '
                 f'stroke="#1f77b4" stroke-width="2"/>')

    for x, mean, err in ub_pts:
        cx, cy = sx(x), sy(mean)
        if err > 0:
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(sy(mean - Z95 * err))}" '
                f'x2="{_fmt(cx)}" y2="{_fmt(sy(mean + Z95 * err))}" '
                f'stroke="#d62728" stroke-width="1"/>')
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" '
                     f'fill="#d62728"/>')

    legend_y = MARGIN_T + 8
    parts += [
        f'<line x1="{WIDTH - 220}" y1="{legend_y}" x2="{WIDTH - 190}" '
        f'y2="{legend_y}" stroke="#1f77b4" stroke-width="2"/>',
        f'<text x="{WIDTH - 184}" y="{legend_y + 4}" '
        f'font-family="sans-serif" font-size="11">lower bound</text>',
        f'<circle cx="{WIDTH - 205}" cy="{legend_y + 16}" r="3" '
        f'fill="#d62728"/>',
        f'<text x="{WIDTH - 184}" y="{legend_y + 20}" '
        f'font-family="sans-serif" font-size="11">upper bound '
        f'(95% bar)</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
