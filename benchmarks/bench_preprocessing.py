"""Paper Sec VI-A — preprocessing cost of index-based systems.

SPLENDID and HiBISCuS must scan every endpoint before the first query;
Lusail and FedX start cold.  Expected shape: index construction time
grows with corpus size and is zero for the index-free engines.  The
endpoints' own characteristic-set summaries, which Lusail's planner
reads, cost the endpoints a build at load time (``endpoint_summaries_ms``).
"""

from repro.harness import experiments

from conftest import dicts_to_table, emit


def test_preprocessing_cost(benchmark):
    rows = benchmark.pedantic(experiments.preprocessing_cost, rounds=1, iterations=1)
    emit("preprocessing_cost", dicts_to_table(rows))

    for row in rows:
        assert row["Lusail_ms"] == 0.0 and row["FedX_ms"] == 0.0
        assert row["SPLENDID_ms"] > 0.0 and row["HiBISCuS_ms"] > 0.0
        assert row["endpoint_summaries_ms"] > 0.0
    big = next(r for r in rows if r["benchmark"] == "LargeRDFBench")
    small = next(r for r in rows if r["benchmark"] == "QFed")
    assert big["SPLENDID_ms"] > small["SPLENDID_ms"]
