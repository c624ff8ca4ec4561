"""Self-contained SVG plots of run traces.

Writes a two-panel figure (suboptimality of the average iterate on top,
iterate consensus error below), both on a log scale against the iteration
counter, one polyline per trace, with a shared legend. The output is plain
SVG 1.1 with no external references, produced directly so the package does
not depend on a plotting library.
"""

from __future__ import annotations

import math
import os

from .diagnostics import IterRecord
from .harness import Trace, _write_text

__all__ = ["emit_plot"]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 920
_PANEL_LEFT = 80
_PANEL_WIDTH = 640
_PANEL_HEIGHT = 240
_PANEL_GAP = 70
_TOP = 56
_FLOOR = 1e-300


def _trace_label(trace: Trace) -> str:
    """Display label for a trace: the configured label or a compact summary."""
    cfg = trace.config
    return cfg.label or f"{cfg.algo} m={cfg.agents} {cfg.mixing}"


def _series(records: list[IterRecord], field: str) -> list[tuple[int, float]]:
    return [(r.t, max(float(getattr(r, field)), _FLOOR)) for r in records]


def _log_ticks(vmin: float, vmax: float) -> list[float]:
    lo = math.floor(math.log10(vmin))
    hi = math.ceil(math.log10(vmax))
    step = max(1, (hi - lo) // 6)
    return [10.0**e for e in range(lo, hi + 1, step)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` written as XML entities.

    The same replacements, in the same order, as ``xml.sax.saxutils.escape``
    without its import, which loads the standard library's network modules.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class _Panel:
    """One log-scale panel: computes coordinates and emits its SVG parts."""

    def __init__(self, title: str, top: int, series: list[list[tuple[int, float]]]):
        self.title = title
        self.top = top
        self.series = series
        xs = [t for line in series for t, _ in line]
        ys = [v for line in series for _, v in line]
        self.x_max = max(max(xs), 1)
        positive = [v for v in ys if v > _FLOOR]
        if positive:
            self.y_min = min(positive)
            self.y_max = max(max(positive), self.y_min * 10.0)
        else:
            self.y_min, self.y_max = 1e-1, 1e1
        self.log_lo = math.log10(self.y_min)
        # At least one decade, as y_max >= 10 * y_min.
        self.log_hi = math.log10(self.y_max)

    def x_px(self, t: float) -> float:
        return _PANEL_LEFT + _PANEL_WIDTH * (t / self.x_max)

    def y_px(self, v: float) -> float:
        v = min(max(v, self.y_min), self.y_max)
        frac = (math.log10(v) - self.log_lo) / (self.log_hi - self.log_lo)
        return self.top + _PANEL_HEIGHT * (1.0 - frac)

    def render(self) -> list[str]:
        parts = [
            f'<text x="{_PANEL_LEFT}" y="{self.top - 10}" class="title">{_escape(self.title)}</text>',
            f'<rect x="{_PANEL_LEFT}" y="{self.top}" width="{_PANEL_WIDTH}" '
            f'height="{_PANEL_HEIGHT}" class="frame"/>',
        ]
        for tick in _log_ticks(self.y_min, self.y_max):
            if tick < self.y_min / 1.001 or tick > self.y_max * 1.001:
                continue
            y = self.y_px(tick)
            parts.append(
                f'<line x1="{_PANEL_LEFT}" y1="{y:.2f}" x2="{_PANEL_LEFT + _PANEL_WIDTH}" '
                f'y2="{y:.2f}" class="grid"/>'
            )
            parts.append(
                f'<text x="{_PANEL_LEFT - 8}" y="{y + 4:.2f}" class="ylabel">{_fmt(tick)}</text>'
            )
        n_xticks = 5
        for k in range(n_xticks + 1):
            t = round(self.x_max * k / n_xticks)
            x = self.x_px(t)
            parts.append(
                f'<line x1="{x:.2f}" y1="{self.top + _PANEL_HEIGHT}" x2="{x:.2f}" '
                f'y2="{self.top + _PANEL_HEIGHT + 5}" class="tick"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{self.top + _PANEL_HEIGHT + 18}" '
                f'class="xlabel">{t}</text>'
            )
        for idx, line in enumerate(self.series):
            color = _PALETTE[idx % len(_PALETTE)]
            points = " ".join(f"{self.x_px(t):.2f},{self.y_px(v):.2f}" for t, v in line)
            parts.append(
                f'<polyline class="series" fill="none" stroke="{color}" '
                f'stroke-width="1.6" points="{points}"/>'
            )
        parts.append(
            f'<text x="{_PANEL_LEFT + _PANEL_WIDTH / 2:.0f}" '
            f'y="{self.top + _PANEL_HEIGHT + 34}" class="xlabel">iteration</text>'
        )
        return parts


def emit_plot(traces: list[Trace], path: str | os.PathLike) -> None:
    """Write the standard two-panel trace figure to ``path``.

    Args:
        traces: At least one trace; each contributes one series per panel
            and one legend entry.
        path: Output file; written as UTF-8 with LF endings.

    Raises:
        ValueError: When no traces are given or a trace has no records.
    """
    if not traces:
        raise ValueError("need at least one trace to plot")
    for trace in traces:
        if not trace.records:
            raise ValueError("cannot plot a trace with no records")

    labels = [_trace_label(t) for t in traces]
    subopt = [_series(t.records, "subopt") for t in traces]
    consensus = [_series(t.records, "consensus_x") for t in traces]

    top_panel = _Panel("suboptimality of the average iterate", _TOP, subopt)
    bottom_panel = _Panel(
        "iterate consensus error", _TOP + _PANEL_HEIGHT + _PANEL_GAP, consensus
    )
    height = _TOP + 2 * _PANEL_HEIGHT + _PANEL_GAP + 60

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        "<style>",
        "text { font-family: sans-serif; font-size: 12px; fill: #222; }",
        ".title { font-size: 14px; font-weight: bold; }",
        ".ylabel { text-anchor: end; }",
        ".xlabel { text-anchor: middle; }",
        ".legend { text-anchor: start; }",
        ".frame { fill: none; stroke: #444; stroke-width: 1; }",
        ".grid { stroke: #ddd; stroke-width: 0.6; }",
        ".tick { stroke: #444; stroke-width: 1; }",
        "</style>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    parts.extend(top_panel.render())
    parts.extend(bottom_panel.render())

    legend_x = _PANEL_LEFT + _PANEL_WIDTH + 16
    for idx, label in enumerate(labels):
        color = _PALETTE[idx % len(_PALETTE)]
        y = _TOP + 14 + 20 * idx
        parts.append(
            f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 24}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{y}" class="legend">{_escape(label)}</text>'
        )
    parts.append("</svg>")

    _write_text(path, "\n".join(parts) + "\n")
