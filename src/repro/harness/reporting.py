"""Plain-text tables for the benchmark harness.

Each benchmark prints the rows/series the corresponding paper table or
figure reports, so `pytest benchmarks/ --benchmark-only -s` regenerates
the evaluation in textual form.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.harness.runner import RunResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(line(row) for row in materialized)
    return "\n".join([line(list(headers)), separator, body]) if materialized else line(list(headers))


def results_by_query(results: list[RunResult], engine_order: Sequence[str]) -> str:
    """One row per query, one time column per engine (Fig 11/12/13 style)."""
    queries: list[str] = []
    for result in results:
        if result.query not in queries:
            queries.append(result.query)
    table_rows = []
    for query in queries:
        row: list[object] = [query]
        for engine in engine_order:
            match = next(
                (r for r in results if r.query == query and r.engine == engine), None
            )
            row.append(match.display_time() if match else "-")
        table_rows.append(row)
    headers = ["query"] + [f"{engine} (vms)" for engine in engine_order]
    return format_table(headers, table_rows)


def speedup_summary(results: list[RunResult], baseline: str, target: str) -> str:
    """Per-query speedup of ``target`` over ``baseline`` (ok runs only)."""
    lines = []
    for result in results:
        if result.engine != target or not result.ok:
            continue
        base = next(
            (r for r in results if r.query == result.query and r.engine == baseline),
            None,
        )
        if base is None:
            continue
        if base.ok and result.virtual_ms > 0:
            lines.append((result.query, f"{base.virtual_ms / result.virtual_ms:.1f}x"))
        else:
            lines.append((result.query, f"{baseline}: {base.display_time()}"))
    return format_table(["query", f"{target} speedup vs {baseline}"], lines)
