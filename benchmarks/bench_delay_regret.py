"""Delay regret — SAPE's delay decision against every alternative.

Per query, the delay set the engine's rule chose (virtual ms, requests,
rows shipped) beside the best of every delay set of the required
subqueries (``tests/delay_oracle.py``, deterministic virtual time), and
their ratio; a totals line per dataset.  A UNION is enumerated one
branch at a time, the other branches held at the rule's verdict; its
sets read ``{branch 0}|{branch 1}``.  Data and engine temperature
follow the performance ledger: the 17 LUBM queries (L1–L14, Q4–Q6) at
``scaled_profile(6)``, two endpoints, seed 1, on a warm engine; the
paper's 29 LargeRDFBench queries at scale 4, hub scale 4, seed 1, on a
fresh engine per run (``largerdf_cold``); QFed's eight C2P2 queries on
Fig 11's federation, on a fresh engine per run.

Expected shape: every LUBM row reads 1.00 — the rule is the best delay
set there; the LargeRDFBench total is within 5% of the best (the
paper's ``mu + sigma`` rule alone was 1183 vs 760 virtual ms, with S2,
S11, C2 and C10 at 5-8x; the cost rule delays their chain ends).  QFed
reads ~1.17 in total, all of it on the filtered queries (C2P2*F), whose
filtered star the estimates put at thousands of rows where a few dozen
ship.
"""

from repro.datasets import largerdf, lubm, qfed, queries_largerdf, queries_lubm
from repro.harness import experiments
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
    yield "QFed", experiments.qfed_federation(), qfed.queries(), False


def _run_cells(run) -> list[str]:
    delayed = "|".join(
        "{" + ",".join(str(index) for index in sorted(ids)) + "}" for ids in run.delayed
    )
    return [delayed, f"{run.virtual_ms:.1f}", str(run.requests), str(run.rows_shipped)]


def delay_regret_table() -> tuple[
    list[list[str]], dict[str, dict[str, float]], dict[str, float]
]:
    """One row per query and a totals row per dataset (a skipped query
    counts its heuristic run on both sides); the ratios, per dataset and
    query; and each dataset's total ratio."""
    rows: list[list[str]] = []
    ratios: dict[str, dict[str, float]] = {}
    totals: dict[str, float] = {}
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
        totals[dataset] = heuristic_ms / best_ms
        rows.append([
            dataset, "total", "", f"{heuristic_ms:.1f}", "", "", "",
            f"{best_ms:.1f}", "", "", f"{totals[dataset]:.2f}",
        ])
    return rows, ratios, totals


def test_delay_regret(benchmark):
    rows, ratios, totals = benchmark.pedantic(delay_regret_table, rounds=1, iterations=1)
    emit("delay_regret", format_table(HEADERS, rows))

    assert len(ratios["LUBM"]) == 17
    assert all(ratio <= 1.01 for ratio in ratios["LUBM"].values()), ratios["LUBM"]
    assert all(ratio >= 1.0 for by_query in ratios.values() for ratio in by_query.values())
    assert len(ratios["LargeRDF"]) == 29
    assert totals["LargeRDF"] <= 1.05, totals
    assert len(ratios["QFed"]) == 8
    assert totals["QFed"] <= 1.17, totals
