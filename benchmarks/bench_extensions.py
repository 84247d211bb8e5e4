"""Extension experiments: multi-query optimization and multi-machine
execution (features the paper supports via its extended report [11])."""

from repro.core.engine import LusailEngine
from repro.harness import experiments
from repro.serve import QueryRequest, QueryServer

from conftest import dicts_to_table, emit


def test_multi_machine(benchmark):
    rows = benchmark.pedantic(experiments.multi_machine, rounds=1, iterations=1)
    emit("multi_machine", dicts_to_table(rows))

    for query in ("B3", "B7"):
        series = [r for r in rows if r["query"] == query and r["status"] == "ok"]
        assert series[0]["execution_ms"] >= series[-1]["execution_ms"]


def test_multi_query_optimization(benchmark):
    from collections import Counter

    federation = experiments.lubm_federation(4)
    # A realistic dashboard batch: three queries over the same advisor/
    # course core with different projections and constraints — their
    # decompositions ship projections of the same subqueries, which the
    # server's per-endpoint share answers from one response.
    base_where = (
        "?x a ub:GraduateStudent . ?x ub:advisor ?y . ?y ub:teacherOf ?z . "
        "?x ub:takesCourse ?z . ?y ub:doctoralDegreeFrom ?u . ?u ub:name ?n ."
    )
    prefix = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    queries = [
        prefix + "SELECT ?x ?y ?u ?n WHERE { " + base_where + " }",
        prefix + "SELECT ?x ?n WHERE { " + base_where + " }",
        prefix + "SELECT DISTINCT ?y ?u WHERE { " + base_where + " }",
    ]

    def run():
        # A batch is a set of arrivals at one instant on a QueryServer.
        server = QueryServer(federation)
        batch = server.run(
            [QueryRequest(0.0, "batch", f"q{i}", text) for i, text in enumerate(queries)]
        )
        solo_engine = LusailEngine(federation)
        solo = [solo_engine.execute(text) for text in queries]
        return server, batch, solo

    server, batch, solo = benchmark.pedantic(run, rounds=1, iterations=1)
    batch_requests = sum(record.requests for record in batch)
    solo_requests = sum(outcome.metrics.request_count() for outcome in solo)
    emit(
        "multi_query_optimization",
        f"batch requests: {batch_requests}\n"
        f"individual requests: {solo_requests}\n"
        f"shared subquery hits: {server.mqo_subquery_hits}",
    )
    assert all(record.ok and record.path == "executed" for record in batch)
    for record, outcome in zip(batch, solo):
        assert record.result.vars == outcome.result.vars
        assert Counter(record.result.rows) == Counter(outcome.result.rows)
    assert server.mqo_subquery_hits > 0
    assert batch_requests < solo_requests
