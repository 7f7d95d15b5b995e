"""Text plots: render figure series as ASCII charts.

The original figures are scatter/line plots; offline we render them as
character grids so bench logs and EXPERIMENTS.md show the curve
*shapes* (the power-law straight line of Fig. 3(a), the dominance gaps
of Fig. 4) and not just number columns.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Markers assigned to successive series of a multi-line plot.
SERIES_MARKERS = "*o+x#@%&"


def _transform(values: Sequence[float], log: bool) -> list[float]:
    if not log:
        return [float(v) for v in values]
    out = []
    for v in values:
        if v <= 0:
            raise ValueError("log-scale axis requires positive values")
        out.append(math.log10(v))
    return out


def scatter(
    x: Sequence[float],
    y: Sequence[float],
    width: int = 60,
    height: int = 18,
    log_x: bool = False,
    log_y: bool = False,
    marker: str = "*",
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one series as an ASCII scatter plot."""
    return multi_scatter(
        {marker: (x, y)},
        width=width,
        height=height,
        log_x=log_x,
        log_y=log_y,
        title=title,
        x_label=x_label,
        y_label=y_label,
        markers_are_labels=False,
    )


def multi_scatter(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 60,
    height: int = 18,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    markers_are_labels: bool = True,
) -> str:
    """Render several named series on one ASCII grid.

    Each series gets a marker from :data:`SERIES_MARKERS` (in insertion
    order); overlapping points keep the earlier series' marker.  When
    ``markers_are_labels`` is false the dict keys *are* the markers.
    """
    if not series:
        raise ValueError("no series to plot")
    if width < 10 or height < 5:
        raise ValueError("plot area too small")

    all_x: list[float] = []
    all_y: list[float] = []
    prepared: list[tuple[str, list[float], list[float]]] = []
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: x and y must be parallel")
        if not xs:
            continue
        tx = _transform(xs, log_x)
        ty = _transform(ys, log_y)
        marker = (
            SERIES_MARKERS[idx % len(SERIES_MARKERS)]
            if markers_are_labels
            else name
        )
        prepared.append((marker, tx, ty))
        all_x.extend(tx)
        all_y.extend(ty)
    if not all_x:
        raise ValueError("all series are empty")

    lo_x, hi_x = min(all_x), max(all_x)
    lo_y, hi_y = min(all_y), max(all_y)

    def col(v: float) -> int:
        if hi_x == lo_x:
            return width // 2
        return min(width - 1, int(round((v - lo_x) / (hi_x - lo_x) * (width - 1))))

    def row(v: float) -> int:
        if hi_y == lo_y:
            return height // 2
        return min(
            height - 1, int(round((v - lo_y) / (hi_y - lo_y) * (height - 1)))
        )

    grid = [[" "] * width for _ in range(height)]
    for marker, tx, ty in prepared:
        for vx, vy in zip(tx, ty):
            r = height - 1 - row(vy)
            c = col(vx)
            if grid[r][c] == " ":
                grid[r][c] = marker

    def fmt_axis(v: float, log: bool) -> str:
        real = 10**v if log else v
        if abs(real) >= 1000 or (abs(real) < 0.01 and real != 0):
            return f"{real:.1e}"
        return f"{real:.3g}"

    lines: list[str] = []
    if title:
        lines.append(title)
    top_label = fmt_axis(hi_y, log_y)
    bottom_label = fmt_axis(lo_y, log_y)
    label_width = max(len(top_label), len(bottom_label))
    for r, grid_row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(label_width)
        elif r == height - 1:
            prefix = bottom_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(grid_row)}|")
    x_lo = fmt_axis(lo_x, log_x)
    x_hi = fmt_axis(hi_x, log_x)
    pad = width - len(x_lo) - len(x_hi)
    lines.append(
        " " * label_width + "  " + x_lo + " " * max(1, pad) + x_hi
    )
    footer = []
    if x_label:
        footer.append(f"x: {x_label}" + (" (log)" if log_x else ""))
    if y_label:
        footer.append(f"y: {y_label}" + (" (log)" if log_y else ""))
    if markers_are_labels and len(series) > 1:
        legend = ", ".join(
            f"{SERIES_MARKERS[i % len(SERIES_MARKERS)]}={name}"
            for i, name in enumerate(series)
        )
        footer.append(f"legend: {legend}")
    if footer:
        lines.append(" " * label_width + "  " + "; ".join(footer))
    return "\n".join(lines)
