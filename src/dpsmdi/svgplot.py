"""Small self-contained SVG line plotter.

The CSV output is the real deliverable of every command; plots are a
convenience.  To keep the package free of mandatory plotting dependencies
this module emits plain SVG text directly: linear or log10 axes, nice tick
placement, a legend, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

_WIDTH = 640
_HEIGHT = 440
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 55
_PALETTE = ("#1f6fb4", "#d1495b", "#3a7d44", "#8c5aa0", "#c77d2e", "#4f4f4f")


@dataclass(frozen=True)
class Series:
    """One labelled curve; points with non-finite coordinates are skipped."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]


def _axis_points(series: Series, x_log: bool, y_log: bool) -> List[Tuple[float, float]]:
    """The plottable points in axis coordinates, log10 on a log axis, where
    a subnormal value stays finite; its power of ten may underflow to 0."""
    points = []
    for x, y in zip(series.xs, series.ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if x_log and x <= 0.0:
            continue
        if y_log and y <= 0.0:
            continue
        points.append((math.log10(x) if x_log else x, math.log10(y) if y_log else y))
    return points


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] with a 1/2/5 step."""
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw_step <= mult * magnitude:
            step = mult * magnitude
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # t stops where the bound overflows to inf, beside the largest float,
    # and where a step of half a float spacing or less rounds back to t, far
    # from 0 (a range a few spacings wide, or t at the power of two above it)
    while t <= hi + 0.5 * step and t < math.inf:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            break
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> List[float]:
    """Decade ticks inside [lo, hi], ends and ticks as exponents."""
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    if last < first:
        return [lo, hi]
    return [float(k) for k in range(first, last + 1)]


def _widened(lo: float, hi: float) -> Tuple[float, float]:
    """[lo, hi], or, where it is narrower than 1e-12, widened by 0.5 either way.

    From 2**51 on a float's spacing is 0.5 or more, so rounding loses the
    0.5, or a tick step of 0.2 no longer moves a tick; there the widening is
    2 spacings, which keeps the step above half a spacing.  Next to the
    largest float, where hi + 2 spacings overflows, all 4 go below.
    """
    if hi - lo >= 1e-12:
        return lo, hi
    half = max(0.5, 2.0 * math.ulp(hi))
    if math.isinf(hi + half):
        return lo - 2.0 * half, hi
    return lo - half, hi + half


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_plot(
    series_list: Sequence[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_log: bool = False,
    y_log: bool = False,
) -> str:
    """Render the given curves to SVG text; deterministic for fixed input.
    With no plottable point at all the result is an empty, labelled frame."""
    cleaned = [_axis_points(s, x_log, y_log) for s in series_list]
    all_points = [p for pts in cleaned for p in pts]
    if not all_points:
        # A rate that is zero everywhere has no point on a log axis; the
        # frame gets no ticks, only this note.
        all_points = [(1.0, 1.0)]
        note = "no point to plot: every value is zero, negative or not finite"
    else:
        note = ""

    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_lo, x_hi = _widened(min(xs), max(xs))
    y_lo, y_hi = _widened(min(ys), max(ys))
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def to_px(x: float, y: float) -> Tuple[float, float]:
        px = _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]

    x_ticks = _log_ticks(x_lo, x_hi) if x_log else _nice_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if y_log else _nice_ticks(y_lo, y_hi)
    if note:
        x_ticks = y_ticks = []

    for tick in x_ticks:
        px, _ = to_px(tick, y_lo)
        label = _fmt(10.0**tick if x_log else tick)
        if not (_MARGIN_L - 0.5 <= px <= _WIDTH - _MARGIN_R + 0.5):
            continue
        y0 = _HEIGHT - _MARGIN_B
        parts.append(
            f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" '
            'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
    for tick in y_ticks:
        _, py = to_px(x_lo, tick)
        label = _fmt(10.0**tick if y_log else tick)
        if not (_MARGIN_T - 0.5 <= py <= _HEIGHT - _MARGIN_B + 0.5):
            continue
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" '
            f'y2="{py:.1f}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{label}</text>'
        )

    for index, points in enumerate(cleaned):
        if not points:
            continue
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y) for x, y in points))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.8"/>'
        )

    if note:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_MARGIN_T + plot_h / 2:.0f}" '
            f'font-size="12" text-anchor="middle" font-family="sans-serif">{note}</text>'
        )
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 14}" '
            'font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{x_label}</text>'
        )
    if y_label:
        cx, cy = 18, _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.0f}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 {cx} {cy:.0f})">'
            f"{y_label}</text>"
        )

    legend_y = _MARGIN_T + 14
    for index, series in enumerate(series_list):
        if not cleaned[index]:
            continue
        color = _PALETTE[index % len(_PALETTE)]
        x0 = _WIDTH - _MARGIN_R - 150
        parts.append(
            f'<line x1="{x0}" y1="{legend_y - 4}" x2="{x0 + 22}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{x0 + 28}" y="{legend_y}" font-size="11" '
            f'font-family="sans-serif">{series.label}</text>'
        )
        legend_y += 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
