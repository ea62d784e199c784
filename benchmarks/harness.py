"""Shared helpers for the benchmark suite.

Each ``bench_*`` module reproduces one table or figure from the paper's
evaluation.  Benchmarks do two things:

* time the relevant operation through ``pytest-benchmark`` (so
  ``pytest benchmarks/ --benchmark-only`` gives comparable timings), and
* emit the figure's actual data series (normalized times, pruning ratios,
  update ratios, per-slice series) as formatted text tables, written to
  ``benchmarks/results/<figure>.txt`` and echoed to stdout.

Absolute numbers will not match the paper (different hardware, Python instead
of Java/C++, scaled-down data); the *shape* of each series is what the
reproduction targets.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a small fixed-width text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def publish(name: str, text: str) -> None:
    """Write a figure's data series to benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"\n{text}\n[written to {path}]")


def normalize(values: Dict[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalize a dict of timings to one baseline entry (the paper's style)."""
    baseline = values[baseline_key]
    if baseline <= 0:
        return {key: 0.0 for key in values}
    return {key: value / baseline for key, value in values.items()}
