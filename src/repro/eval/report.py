"""Plain-text table/figure renderers for the evaluation harness."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width text table (the bench suite's 'figures')."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(name: str, pairs: Iterable[Sequence[object]],
                  x_label: str = "x", y_label: str = "y") -> str:
    """A labelled (x, y) series — the text stand-in for a figure line."""
    return render_table([x_label, y_label], pairs, title=name)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def pct(value: float) -> str:
    return f"{value * 100:.2f}%"
