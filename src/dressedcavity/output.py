"""Deterministic CSV and SVG emission for the command-line tools.

CSV files carry a header row, comma separators, 17 significant digits and
LF line endings, so identical configurations produce byte-identical
files.  SVG output is a static polyline plot with axes, ticks and a small
legend; no external plotting dependency is used.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def _cell_format(kind: type) -> str:
    """printf-style format of one CSV cell: integers (not bools) as written,
    anything else as a float with 17 significant digits."""
    return "%d" if issubclass(kind, int) and kind is not bool else "%.17g"


def format_value(x) -> str:
    return _cell_format(type(x)) % x


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one line per row, each through a single %-format string.

    The format is built once per distinct sequence of cell types, so a
    row costs one formatting call instead of one per value.  Python floats
    format faster than numpy scalars: pass ``array.tolist()`` for long rows.
    """
    row_formats: dict[tuple, str] = {}
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            fmt = row_formats.get(kinds)
            if fmt is None:
                fmt = ",".join(map(_cell_format, kinds)) + "\n"
                row_formats[kinds] = fmt
            fh.write(fmt % row)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return out


def svg_line_plot(
    path: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a fixed-size polyline plot of the given (label, x, y) series."""
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    axis = (
        f'<path d="M {px(x_lo):.2f} {py(y_lo):.2f} L {px(x_hi):.2f} '
        f'{py(y_lo):.2f} M {px(x_lo):.2f} {py(y_lo):.2f} L {px(x_lo):.2f} '
        f'{py(y_hi):.2f}" stroke="black" fill="none" stroke-width="1"/>'
    )
    parts.append(axis)
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{py(y_lo):.2f}" x2="{px(tx):.2f}" '
            f'y2="{py(y_lo) + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{py(y_lo) + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{px(x_lo) - 5:.2f}" y1="{py(ty):.2f}" x2="{px(x_lo):.2f}" '
            f'y2="{py(ty):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(x_lo) - 8:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, sx, sy) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(sx, sy))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 18 * i
        parts.append(
            f'<line x1="{_WIDTH - 170}" y1="{ly}" x2="{_WIDTH - 140}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - 134}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
