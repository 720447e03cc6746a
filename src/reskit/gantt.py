"""Gantt renderings of a schedule state: SVG (canonical) and plain text.

Both renderers are pure functions of the state, with fixed-precision
coordinates, so output is stable enough for golden-file tests. The SVG
escapes every name and the caption, so any name the loader accepts gives
well-formed XML. The focal task is drawn white with a dark border,
executing tasks orange, everything else takes a color from a fixed
per-product palette.
"""

from __future__ import annotations

import math
from html import escape

from .errors import InvalidConfig
from .schedule import ScheduleState, Task

PALETTE = [
    "#4e79a7",
    "#59a14f",
    "#9c755f",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#f28e2b",
    "#ff9da7",
]
FOCAL_FILL = "#ffffff"
EXECUTING_FILL = "#e8821e"

_LEFT, _TOP, _RIGHT, _BOTTOM = 70, 42, 24, 34
_ROW_H, _BAR_H, _WIDTH = 34, 24, 900
# Longest text row; render_text refuses a longer one before building any.
MAX_TEXT_CELLS = 10_000


def _horizon(state: ScheduleState) -> float:
    h = max((f for r in state.resources for f in r.finishes), default=0.0)
    h = max(h, max((r.release_time for r in state.resources), default=0.0))
    return h if h > 0 else 1.0


def _tick_step(horizon: float) -> float:
    """A 1/2/5-series step giving roughly 6-12 axis ticks, never 0: below about
    1e-322 h, 10 ** k underflows and horizon / 8 rounds to a whole subnormal."""
    rough = horizon / 8
    mag = max(10 ** math.floor(math.log10(rough)), math.ulp(0.0)) if rough > 0 else 1.0
    for mult in (1, 2, 5, 10):
        if mult * mag * 8 >= horizon:
            return mult * mag
    return 10 * mag


def _bar_style(state: ScheduleState, task: Task, colors: dict[str, str]) -> tuple[str, str]:
    """A bar's (class, fill): focal first, then executing, then by product."""
    if task.id == state.focal_task:
        return "bar focal", FOCAL_FILL
    if task.executing:
        return "bar executing", EXECUTING_FILL
    return "bar", colors.get(task.product, PALETTE[0])


def render_svg(state: ScheduleState, caption: str = "") -> str:
    """One row per resource, one bar per task, width proportional to duration."""
    horizon = _horizon(state)
    if not math.isfinite(horizon):
        raise InvalidConfig(f"a horizon of {horizon:g} h has no scale to draw at")
    span = _WIDTH - _LEFT - _RIGHT
    rows = len(state.resources)
    height = _TOP + rows * _ROW_H + _BOTTOM

    def x(t: float) -> float:
        return _LEFT + t / horizon * span  # span / horizon overflows below about 4e-306 h

    products = sorted({t.product for t in state.tasks.values()})
    colors = {p: PALETTE[i % len(PALETTE)] for i, p in enumerate(products)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}" font-family="sans-serif">',
        f'<rect class="bg" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    if caption:
        parts.append(
            f'<text x="{_LEFT}" y="20" font-size="13" fill="#111111">{escape(caption)}</text>'
        )

    chart_bottom = _TOP + rows * _ROW_H
    step = _tick_step(horizon)
    tick = 0.0
    # Slack for the sum's rounding: 1e-9 h, but relative below 1 h, where a
    # fixed 1e-9 h could span billions of steps.
    while tick <= horizon + 1e-9 * min(horizon, 1.0):
        parts.append(
            f'<line x1="{x(tick):.2f}" y1="{_TOP}" x2="{x(tick):.2f}" y2="{chart_bottom}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x(tick):.2f}" y="{chart_bottom + 16}" font-size="10" '
            f'fill="#555555" text-anchor="middle">{tick:g}</text>'
        )
        tick += step

    for row, r in enumerate(state.resources):
        y = _TOP + row * _ROW_H
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + _ROW_H / 2 + 4:.2f}" font-size="12" '
            f'fill="#111111" text-anchor="end">{escape(r.id)}</text>'
        )
        for tid, start in zip(r.task_chain, r.starts):
            t = state.tasks[tid]
            bx = x(start)
            bw = max(t.quantity / r.rates[t.product] / horizon * span, 1.0)
            by = y + (_ROW_H - _BAR_H) / 2
            css, fill = _bar_style(state, t, colors)
            name = escape(t.name)
            parts.append(
                f'<rect class="{css}" x="{bx:.2f}" y="{by:.2f}" '
                f'width="{bw:.2f}" height="{_BAR_H}" fill="{fill}" '
                f'stroke="#222222" stroke-width="1"><title>{name} ({escape(t.product)} '
                f'{t.quantity:g} kg, due {t.due_date:g} h)</title></rect>'
            )
            if bw >= 34:
                parts.append(
                    f'<text x="{bx + bw / 2:.2f}" y="{by + _BAR_H / 2 + 4:.2f}" '
                    f'font-size="10" fill="#111111" text-anchor="middle">{name}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts)


def render_text(state: ScheduleState, quantum: float = 0.5) -> str:
    """Terminal rendering: one row per resource, one char per time quantum.

    Upper-case product letter for a scheduled task, lower-case when the task
    is executing, ``*`` for the focal task, ``.`` when idle.
    """
    horizon = _horizon(state)
    if not (quantum > 0 and 0 < horizon / quantum <= MAX_TEXT_CELLS):
        raise InvalidConfig(
            f"{horizon:g} h at {quantum:g} h/char is not 1 to {MAX_TEXT_CELLS} chars per row"
        )
    cells = max(1, math.ceil(horizon / quantum - 1e-9))
    label_w = max([len(r.id) for r in state.resources] + [2]) + 1

    lines = []
    for r in state.resources:
        chars = []
        for i in range(cells):
            mid = (i + 0.5) * quantum
            ch = "."
            for tid, start, finish in zip(r.task_chain, r.starts, r.finishes):
                t = state.tasks[tid]
                if start <= mid < finish:
                    if tid == state.focal_task:
                        ch = "*"
                    elif t.executing:
                        ch = t.product[:1].lower() or "?"
                    else:
                        ch = t.product[:1].upper() or "?"
                    break
            chars.append(ch)
        lines.append(f"{r.id:<{label_w}}|{''.join(chars)}|")
    lines.append(f"{'':<{label_w}} 0 .. {horizon:g} h  ({quantum:g} h/char)")
    return "\n".join(lines)
