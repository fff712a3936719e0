"""Plain-text rendering of experiment results.

Every experiment module prints the same rows/series the paper's figure or
table reports, as aligned ASCII — suitable for diffing runs and for
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "sat."  # saturated data point
    if isinstance(value, float):
        if math.isinf(value):
            return "sat."
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 100:
            return f"{value:.0f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_grid(
    values: List[List[str]], cell_width: int = 14, title: Optional[str] = None
) -> str:
    """Render a 2-D grid of preformatted cells (used by Fig. 9)."""
    lines = []
    if title:
        lines.append(title)
    for row in values:
        lines.append(" | ".join(cell.center(cell_width) for cell in row))
    return "\n".join(lines)
