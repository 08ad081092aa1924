"""Plain-text table rendering for experiment reports.

The experiment harness prints every reproduced table in the same row
layout the paper uses; this module owns the formatting so tables render
identically in the terminal, in written result files and in benchmark
output.
"""

from __future__ import annotations

__all__ = ["render_table", "format_number"]


def format_number(value, digits=2):
    """Format a numeric cell: ints verbatim, floats to ``digits`` places."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{digits}f}"
    return str(value)


def render_table(headers, rows, title=None, digits=2):
    """Render an aligned monospace table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of row iterables; cells may be str, int, float or None.
    title:
        Optional heading printed above the table.
    digits:
        Decimal places for float cells.
    """
    text_rows = [[format_number(cell, digits) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line([str(header) for header in headers]))
    parts.append("-+-".join("-" * width for width in widths))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)
