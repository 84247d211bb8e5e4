"""Delay regret — SAPE's delay decision against every alternative.

Per query, the delay set the heuristic chose (virtual ms, requests,
rows shipped) beside the best of every delay set of the required
subqueries (``tests/delay_oracle.py``, deterministic virtual time), and
their ratio; a totals line per dataset.  Data and engine temperature
follow the performance ledger: the 17 LUBM queries (L1–L14, Q4–Q6) at
``scaled_profile(6)``, two endpoints, seed 1, on a warm engine; the
paper's 29 LargeRDFBench queries at scale 4, hub scale 4, seed 1, on a
fresh engine per run (``largerdf_cold``).  Multi-branch queries are
not enumerated: their rows show the heuristic's run and why they were
skipped, and the totals count that run as its own best.

Expected shape: every LUBM row reads 1.00 — the heuristic is the best
delay set there; LargeRDFBench keeps headroom (1183 vs 760 virtual ms
in total, S2, S11, C2 and C10 at 5-8x), which a cost-based delay rule
would have to close.
"""

from repro.datasets import largerdf, lubm, queries_largerdf, queries_lubm
from repro.harness.reporting import format_table

from conftest import emit
from tests.delay_oracle import delay_regret

HEADERS = (
    "dataset", "query", "delayed", "virtual_ms", "requests", "rows_shipped",
    "best_delayed", "best_virtual_ms", "best_requests", "best_rows_shipped", "ratio",
)


def _datasets():
    lubm_queries = {**queries_lubm.queries(), **lubm.crossing_queries()}
    federation = lubm.build_federation(2, lubm.scaled_profile(6), seed=1)
    yield "LUBM", federation, lubm_queries, True
    federation = largerdf.build_federation(scale=4.0, seed=1, hub_scale=4.0)
    yield "LargeRDF", federation, queries_largerdf.paper_selection(), False


def _run_cells(run) -> list[str]:
    delayed = "{" + ",".join(str(index) for index in sorted(run.delayed)) + "}"
    return [delayed, f"{run.virtual_ms:.1f}", str(run.requests), str(run.rows_shipped)]


def delay_regret_table() -> tuple[list[list[str]], dict[str, dict[str, float]]]:
    """One row per query and a totals row per dataset (a skipped query
    counts its heuristic run on both sides); and the ratios, per dataset
    and query."""
    rows: list[list[str]] = []
    ratios: dict[str, dict[str, float]] = {}
    for dataset, federation, queries, warm in _datasets():
        ratios[dataset] = {}
        heuristic_ms = best_ms = 0.0
        for name, text in queries.items():
            regret = delay_regret(federation, name, text, warm)
            cells = [dataset, name, *_run_cells(regret.heuristic)]
            heuristic_ms += regret.heuristic.virtual_ms
            if regret.skipped:
                best_ms += regret.heuristic.virtual_ms
                rows.append(cells + [f"skipped: {regret.skipped}", "", "", "", ""])
                continue
            best_ms += regret.best.virtual_ms
            ratios[dataset][name] = regret.ratio
            rows.append(cells + _run_cells(regret.best) + [f"{regret.ratio:.2f}"])
        rows.append([
            dataset, "total", "", f"{heuristic_ms:.1f}", "", "", "",
            f"{best_ms:.1f}", "", "", f"{heuristic_ms / best_ms:.2f}",
        ])
    return rows, ratios


def test_delay_regret(benchmark):
    rows, ratios = benchmark.pedantic(delay_regret_table, rounds=1, iterations=1)
    emit("delay_regret", format_table(HEADERS, rows))

    assert len(ratios["LUBM"]) == 17
    assert all(ratio <= 1.01 for ratio in ratios["LUBM"].values()), ratios["LUBM"]
    assert all(ratio >= 1.0 for by_query in ratios.values() for ratio in by_query.values())
