"""Ablations — the design choices DESIGN.md calls out.

Lusail variants over LUBM (Q1 and the 17 ledger queries), the paper's
29 LargeRDFBench queries and QFed's 8, with one totals row per dataset:
LADE off (exclusive groups or per-triple decomposition), delaying off,
Chauvenet off.  Expected shape: the full configuration ships the least
data; per-triple decomposition is the worst.  Every variant must move
some row of the table, or its knob has not earned its place.
"""

from repro.harness import experiments

from conftest import dicts_to_table, emit


def test_ablation(benchmark):
    rows = benchmark.pedantic(experiments.ablation, rounds=1, iterations=1)
    emit("ablation", dicts_to_table(rows))

    def total(variant, field):
        return sum(r[field] for r in rows if r["variant"] == variant and r["status"] == "ok")

    full_rows = total("full", "rows_shipped")
    per_triple_rows = total("no-lade (per-triple)", "rows_shipped")
    assert full_rows <= per_triple_rows
    ok = {r["variant"] for r in rows if r["status"] == "ok"}
    assert "full" in ok

    def measured(variant):
        """Each row's numbers as the table prints them."""
        return {
            r["query"]: (f"{r['virtual_ms']:.1f}", r["requests"], r["rows_shipped"])
            for r in rows
            if r["variant"] == variant
        }

    full = measured("full")
    for variant in experiments.ABLATION_VARIANTS[1:]:
        assert measured(variant.name) != full, f"{variant.name} moves no row"
