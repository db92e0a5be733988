"""Plain-text reporting helpers: the tables/series the paper prints."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 1e-3 or abs(cell) >= 1e5):
            return f"{cell:.2e}"
        return f"{cell:.3f}"
    return str(cell)


def render(title: str, sections: Iterable[Tuple]) -> str:
    """``title``, then per ``(heading, label, columns, rows)`` section its
    heading (when given) and a table of ``rows`` (``{key: row}``): a first
    column headed ``label`` holding the keys (none when ``label`` is None),
    then one per ``(header, field)`` in ``columns``, where ``field`` is a
    row key or a function of the row."""
    parts = [title]
    for heading, label, columns, rows in sections:
        if heading:
            parts.append(heading)
        headers = [header for header, _ in columns]
        body = [[field(row) if callable(field) else row[field]
                 for _, field in columns] for row in rows.values()]
        if label is not None:
            headers.insert(0, label)
            body = [[key, *cells] for key, cells in zip(rows, body)]
        parts.append(format_table(headers, body))
    return "\n".join(parts)


def percent(rate: float) -> str:
    """A rate as a percent label; distinct rates get distinct labels."""
    return f"{rate * 100:g}%"


def reconvergence(row) -> str:
    """A row's reconvergence time as a table cell."""
    value = row["reconvergence"]
    return "never" if value is None else f"{value:.0f}s"


def format_series(
    name: str, series: List[Tuple[float, float]], time_unit: float = 3600.0,
    unit_label: str = "h",
) -> str:
    """One-line-per-point rendering of a time series."""
    lines = [name]
    for t, value in series:
        lines.append(f"  t={t / time_unit:7.2f}{unit_label}  {_fmt(value)}")
    return "\n".join(lines)


def downsample(series: List[Tuple[float, float]], max_points: int = 24):
    """Thin a series for terminal display.

    Keeps both endpoints — the final sample carries the end state of the
    run, which the old stride-based thinning could silently drop.
    """
    if len(series) <= max_points or max_points < 2:
        return series
    step = (len(series) - 1) / (max_points - 1)
    return [series[round(i * step)] for i in range(max_points)]
