"""Tests for the concurrent serving layer (:mod:`repro.serve`)."""

from repro.core.engine import LusailEngine
from repro.datasets import lubm, queries_lubm
from repro.obs import MetricsRegistry, Tracer
from repro.rdf import Triple, UB
from repro.serve import QueryRequest, QueryServer, ResultCache, ServeConfig

from tests.conftest import MIT, QA, assert_same_bag, build_paper_federation, oracle_rows

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"

#: QA with every variable renamed — canonically identical to QA.
QA_RENAMED = UB_PREFIX + (
    "SELECT ?student ?prof ?uni ?addr WHERE { ?student ub:advisor ?prof . "
    "?student ub:takesCourse ?crs . ?prof ub:teacherOf ?crs . "
    "?prof ub:PhDDegreeFrom ?uni . ?uni ub:address ?addr }"
)


def _signature(records):
    return [
        (
            record.seq,
            record.name,
            record.tenant,
            record.path,
            record.status,
            record.arrival_ms,
            record.start_ms,
            record.finish_ms,
            record.result_rows,
            record.requests,
        )
        for record in records
    ]


def _requests(pairs):
    return [
        QueryRequest(at_ms=at, tenant=tenant, name=name, text=text)
        for at, tenant, name, text in pairs
    ]


class TestServing:
    def test_replay_is_deterministic(self, lubm4):
        queries = queries_lubm.queries()
        arrivals = _requests(
            [
                (float(index), f"tenant{index % 3}", name, queries[name])
                for index, name in enumerate(sorted(queries) * 4)
            ]
        )
        first = QueryServer(lubm4).run(arrivals)
        second = QueryServer(lubm4).run(arrivals)
        assert _signature(first) == _signature(second)

    def test_results_identical_to_serial(self, lubm4):
        queries = queries_lubm.queries()
        names = sorted(queries)[:6]
        arrivals = _requests(
            [(0.0, f"tenant{index % 2}", name, queries[name]) for index, name in enumerate(names * 3)]
        )
        records = QueryServer(lubm4).run(arrivals)
        serial = LusailEngine(lubm4)
        expected = {name: serial.execute(queries[name]).result.rows for name in names}
        assert all(record.ok for record in records)
        for record in records:
            assert_same_bag(record.result.rows, expected[record.name])

    def test_identical_arrivals_share_one_execution(self, paper_federation):
        arrivals = _requests(
            [(0.0, "a", "QA", QA), (0.0, "b", "QA", QA), (50.0, "a", "QA", QA)]
        )
        records = QueryServer(paper_federation).run(arrivals)
        paths = sorted(record.path for record in records)
        # One execution; the concurrent duplicate attaches to it and the
        # late arrival hits the result cache.
        assert paths == ["attach", "cache", "executed"]
        rows = {id(record.result.rows) for record in records}
        assert len(rows) == 1

    def test_count_is_served_and_cached_as_one_row(self, lubm2):
        text = UB_PREFIX + (
            "SELECT (COUNT(DISTINCT ?x) AS ?c) WHERE "
            "{ ?x ub:advisor ?y . ?y ub:doctoralDegreeFrom ?u }"
        )
        expected = oracle_rows(lubm2, text)
        records = QueryServer(lubm2).run(
            _requests([(0.0, "a", "count", text), (500.0, "b", "count", text)])
        )
        assert [record.path for record in records] == ["executed", "cache"]
        for record in records:
            assert [v.name for v in record.result.vars] == ["c"]
            assert record.result.rows == expected and len(expected) == 1

    def test_cache_key_ignores_variable_names(self, paper_federation):
        arrivals = _requests(
            [(0.0, "a", "QA", QA), (100.0, "b", "QA'", QA_RENAMED)]
        )
        records = QueryServer(paper_federation).run(arrivals)
        assert [record.path for record in records] == ["executed", "cache"]
        assert_same_bag(records[0].result.rows, records[1].result.rows)

    def test_subquery_mqo_feeds_concurrent_queries(self, lubm4):
        queries = dict(queries_lubm.queries())
        queries.update(lubm.queries())
        arrivals = _requests(
            [(0.0, f"tenant{index % 4}", name, queries[name]) for index, name in enumerate(sorted(queries))]
        )
        server = QueryServer(lubm4)
        records = server.run(arrivals)
        assert all(record.ok for record in records)
        assert server.mqo_subquery_hits > 0
        serial = LusailEngine(lubm4)
        for record in records:
            if record.path == "executed":
                expected = serial.execute(queries[record.name]).result.rows
                assert_same_bag(record.result.rows, expected)

    def test_seeded_replay_counters_are_golden(self, lubm2):
        """The exact sharing counters of one small Zipfian replay (the
        gate the 10⁵-request smoke held, at a size a test can run): a
        scheduler, cache or MQO change that moves them must say so here."""
        from repro.harness.traffic import TrafficConfig, run_traffic, workload_queries

        config = TrafficConfig(requests=600, tenants=4, seed=0)
        report, __, __ = run_traffic(lubm2, workload_queries("lubm"), config)
        assert report["totals"]["results_match_serial"] is True
        assert report["paths"] == {"cache": 580, "attach": 6, "executed": 14}
        assert report["cache"] == {"hits": 580, "misses": 20, "invalidations": 0, "entries": 14}
        assert report["mqo"] == {"subquery_hits": 3, "query_attached": 6}

    def test_per_tenant_quota_keeps_other_tenants_responsive(self, lubm4):
        queries = queries_lubm.queries()
        names = sorted(queries)
        config = ServeConfig(
            max_inflight=4,
            per_tenant_inflight=2,
            result_cache=False,
            attach_identical=False,
            share_subqueries=False,
        )
        # Tenant A floods at t=0; tenant B arrives last in queue order.
        arrivals = _requests(
            [(0.0, "hog", name, queries[name]) for name in names[:6]]
            + [(0.0, "polite", names[6], queries[names[6]])]
        )
        records = QueryServer(lubm4, config=config).run(arrivals)
        hog_starts = sorted(r.start_ms for r in records if r.tenant == "hog")
        polite = next(r for r in records if r.tenant == "polite")
        # DRR + per-tenant quota: the polite tenant is admitted before
        # the hog's backlog drains.
        assert polite.start_ms < hog_starts[-1]
        # The per-tenant cap bounds hog concurrency: its third query can
        # only start once one of the first two finished.
        hog = sorted(
            (r for r in records if r.tenant == "hog"), key=lambda r: r.start_ms
        )
        assert hog[2].start_ms >= min(hog[0].finish_ms, hog[1].finish_ms)

    def test_lane_utilization_reported(self, lubm4):
        queries = queries_lubm.queries()
        arrivals = _requests([(0.0, "a", name, queries[name]) for name in sorted(queries)[:4]])
        server = QueryServer(lubm4)
        server.run(arrivals)
        utilization = server.lanes.utilization()
        assert utilization
        assert all(0.0 <= fraction <= 1.0 for fraction in utilization.values())


    def test_server_tracer_records_serve_query_span(self, paper_federation):
        tracer = Tracer(enabled=True)
        records = QueryServer(paper_federation, tracer=tracer).run(
            _requests([(0.0, "a", "QA", QA)])
        )
        assert [record.path for record in records] == ["executed"]
        (span,) = [span for span in tracer.all_spans() if span.name == "serve.query"]
        assert span.attrs["query"] == "QA" and span.attrs["tenant"] == "a"
        assert span.attrs["path"] == "executed" and span.attrs["status"] == "ok"


class TestResultCacheInvalidation:
    """Satellite: a store-version bump invalidates exactly the entries
    whose key includes that endpoint — hit/miss/invalidation counters
    asserted."""

    def test_bump_invalidates_exactly_touching_entries(self):
        federation = build_paper_federation()
        registry = MetricsRegistry()
        cache = ResultCache(registry=registry)
        cache.store(("only-ep1",), [("a",)], ["EP1"], federation)
        cache.store(("only-ep2",), [("b",)], ["EP2"], federation)
        cache.store(("both",), [("c",)], ["EP1", "EP2"], federation)

        federation.get("EP1").add_all([Triple(MIT.Zoe, UB.advisor, MIT.Ben)])

        # The EP2-only entry survives; both EP1-touching entries drop.
        assert cache.lookup(("only-ep2",), federation) is not None
        assert cache.lookup(("only-ep1",), federation) is None
        assert cache.lookup(("both",), federation) is None
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.invalidations == 2
        assert registry.counter_value("serve_result_cache_hits_total") == 1
        assert registry.counter_value("serve_result_cache_misses_total") == 2
        assert (
            registry.counter_value(
                "serve_result_cache_invalidations_total", endpoint="EP1"
            )
            == 2
        )
        assert (
            registry.counter_value(
                "serve_result_cache_invalidations_total", endpoint="EP2"
            )
            == 0
        )

    def test_sweep_drops_stale_entries(self):
        federation = build_paper_federation()
        cache = ResultCache()
        cache.store(("k1",), [], ["EP1"], federation)
        cache.store(("k2",), [], ["EP2"], federation)
        federation.get("EP2").add_all([Triple(MIT.Zoe, UB.advisor, MIT.Ben)])
        assert cache.sweep(federation) == 1
        assert len(cache) == 1

    def test_server_reexecutes_after_store_mutation(self):
        federation = build_paper_federation()
        registry = MetricsRegistry()
        server = QueryServer(federation, registry=registry)
        first = server.run(_requests([(0.0, "a", "QA", QA)]))
        assert first[0].path == "executed"

        # New advisee satisfying QA's shape appears on EP1.
        federation.get("EP1").add_all(
            [
                Triple(MIT.Zoe, UB.advisor, MIT.Ben),
                Triple(MIT.Zoe, UB.takesCourse, MIT.c1),
            ]
        )
        server.invalidate()
        second = server.run(_requests([(0.0, "a", "QA", QA)]))
        assert second[0].path == "executed"
        assert len(second[0].result.rows) == len(first[0].result.rows) + 1
        assert server.result_cache.invalidations >= 1

    def test_unchanged_store_keeps_entry_across_runs(self):
        federation = build_paper_federation()
        server = QueryServer(federation)
        server.run(_requests([(0.0, "a", "QA", QA)]))
        again = server.run(_requests([(0.0, "a", "QA", QA)]))
        assert again[0].path == "cache"
        assert server.result_cache.invalidations == 0
