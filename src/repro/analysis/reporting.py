"""Plain-text reporting helpers for benchmarks and EXPERIMENTS.md.

The benchmarks print the same rows and series the paper's figures show; this
module formats those results as aligned ASCII tables so they are readable in
terminal output and can be pasted into EXPERIMENTS.md verbatim.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.analysis.experiments import AlgorithmOutcome


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Format rows as an aligned, pipe-separated ASCII table."""
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header.ljust(widths[index])
                            for index, header in enumerate(headers)))
    lines.append("-+-".join("-" * width for width in widths[:len(headers)]))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[index])
                                for index, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.2f}"
    return str(cell)


def outcome_cell(outcome: AlgorithmOutcome) -> str:
    """Render one algorithm outcome as a table cell (time or failure tag)."""
    if outcome.finished and outcome.simulated_seconds is not None:
        return f"{outcome.simulated_seconds:,.0f}s"
    tags = {
        "out_of_memory": "DNF (out of memory)",
        "timeout": "DNF (killed by scheduler)",
        "unsupported": "N/A (engine feature missing)",
        "out_of_disk": "DNF (out of disk)",
    }
    return tags.get(outcome.status, outcome.status)


def format_sweep_table(sweep: Mapping[object, Mapping[str, AlgorithmOutcome]],
                       algorithms: Sequence[str],
                       sweep_column: str,
                       title: str | None = None) -> str:
    """Format a sweep result (threshold or machine-count keyed) as a table."""
    headers = [sweep_column] + list(algorithms)
    rows = []
    for key in sorted(sweep):
        row: list[object] = [key]
        for algorithm in algorithms:
            outcome = sweep[key].get(algorithm)
            row.append(outcome_cell(outcome) if outcome is not None else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)


def speedup(reference_seconds: float | None,
            subject_seconds: float | None) -> float | None:
    """``reference / subject`` — how many times faster the subject is.

    Returns ``None`` when either run did not finish.
    """
    if not reference_seconds or not subject_seconds:
        return None
    return reference_seconds / subject_seconds


def relative_drop(first_seconds: float | None,
                  last_seconds: float | None) -> float | None:
    """Relative run-time reduction between two sweep endpoints (0.35 = 35%)."""
    if not first_seconds or not last_seconds:
        return None
    return (first_seconds - last_seconds) / first_seconds
