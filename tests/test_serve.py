"""Tests for the concurrent serving layer (:mod:`repro.serve`)."""

from collections import Counter

from repro.core.engine import LusailEngine
from repro.datasets import lubm, queries_lubm
from repro.harness.traffic import TrafficConfig, generate_arrivals
from repro.net import metrics as metrics_module
from repro.obs import MetricsRegistry, Tracer
from repro.rdf import Triple, UB
from repro.serve import QueryRequest, QueryServer, ResultCache
from repro.serve.server import MAX_INFLIGHT, PER_TENANT_INFLIGHT

from tests.conftest import (
    MIT,
    QA,
    assert_same_bag,
    assert_served_as_serial,
    build_paper_federation,
    oracle_rows,
    serial_runs,
)
from tests.plan_forcing import ForcedPlanEngine, block_size, serving_engines

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
        queries = queries_lubm.queries()
        server = QueryServer(lubm2)
        records = server.run(
            generate_arrivals(queries, TrafficConfig(requests=600, tenants=4, seed=0))
        )
        assert_served_as_serial(records, serial_runs(lubm2, queries)[1])
        assert Counter(record.path for record in records) == {
            "cache": 580,
            "attach": 6,
            "executed": 14,
        }
        cache = server.result_cache
        assert (cache.hits, cache.misses, cache.invalidations, len(cache)) == (580, 20, 0, 14)
        assert server.mqo_subquery_hits == 3

    def test_workers_keep_their_own_kernel_runtime(self):
        # Every query runs on its own worker thread and parks at the gate
        # inside its mediator runtime: with one process-wide runtime stack
        # the workers popped each other's runtimes and lost kernel counts
        # (17/29/26/5 build/probe/emitted/fast here instead of 22/35/31/8).
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)
        queries = queries_lubm.queries()
        registry = MetricsRegistry()
        records = QueryServer(federation, registry=registry).run(
            generate_arrivals(queries, TrafficConfig(requests=200, tenants=4, seed=1))
        )
        serial = MetricsRegistry()
        executed = [record.name for record in records if record.path == "executed"]
        for name in executed:
            engine = LusailEngine(federation)
            engine.registry = serial
            assert engine.execute(queries[name]).ok
        assert len(executed) == 14
        for metric in (
            "mediator_kernel_build_rows_total",
            "mediator_kernel_probe_rows_total",
            "mediator_kernel_rows_emitted_total",
            "mediator_kernel_fast_dispatches_total",
            "mediator_kernel_general_dispatches_total",
        ):
            assert registry.counter_value(metric) == serial.counter_value(metric), metric
        assert serial.counter_value("mediator_kernel_build_rows_total") == 22

    def test_per_tenant_quota_keeps_other_tenants_responsive(self, lubm4):
        queries = queries_lubm.queries()
        names = sorted(queries)
        flood = PER_TENANT_INFLIGHT + 2
        # Distinct texts, all at t=0: nothing is cached yet and no
        # arrival can attach to another, so every request is admitted.
        # The hog floods past its quota; the polite tenant arrives last
        # in queue order.
        arrivals = _requests(
            [(0.0, "hog", name, queries[name]) for name in names[:flood]]
            + [(0.0, "polite", names[flood], queries[names[flood]])]
        )
        records = QueryServer(lubm4).run(arrivals)
        assert all(record.path == "executed" for record in records)
        hog = sorted((r for r in records if r.tenant == "hog"), key=lambda r: r.start_ms)
        polite = next(r for r in records if r.tenant == "polite")
        # DRR + per-tenant quota: the polite tenant is admitted before
        # the hog's backlog drains.
        assert polite.start_ms < hog[-1].start_ms
        # The per-tenant cap bounds hog concurrency: its first query
        # past the quota only starts once one of the earlier ones finished.
        assert sum(1 for r in hog if r.start_ms == 0.0) == PER_TENANT_INFLIGHT
        first = hog[:PER_TENANT_INFLIGHT]
        assert hog[PER_TENANT_INFLIGHT].start_ms >= min(r.finish_ms for r in first)

    def test_global_cap_bounds_concurrent_executions(self, lubm4):
        queries = queries_lubm.queries()
        names = sorted(queries)
        tenants = MAX_INFLIGHT // PER_TENANT_INFLIGHT + 1
        assert tenants * PER_TENANT_INFLIGHT <= len(names)
        # Each tenant asks its quota of distinct queries at t=0: together
        # more than the admission slots.
        arrivals = _requests(
            [
                (0.0, f"tenant{index // PER_TENANT_INFLIGHT}", name, queries[name])
                for index, name in enumerate(names[: tenants * PER_TENANT_INFLIGHT])
            ]
        )
        records = QueryServer(lubm4).run(arrivals)
        assert all(record.path == "executed" for record in records)
        admitted = [r for r in records if r.start_ms == 0.0]
        assert len(admitted) == MAX_INFLIGHT
        first_finish = min(r.finish_ms for r in admitted)
        assert all(r.start_ms >= first_finish for r in records if r.start_ms > 0.0)
        for record in records:
            running = sum(
                1 for other in records if other.start_ms <= record.start_ms < other.finish_ms
            )
            assert running <= MAX_INFLIGHT

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


class TestBoundPlanCacheHits:
    """The ``bound_subquery`` span's ``plan_cache_hits`` counts the hits
    of its own blocks, read from the query's client, even when other
    queries share the registry."""

    #: Small enough that L10's 140 bindings ship in three blocks per run.
    BLOCK = 50

    @staticmethod
    def _bound_hits(registry) -> int:
        return int(registry.counter_value("plan_cache_hits_total", kind=metrics_module.BOUND))

    def test_the_span_counts_its_blocks_hits(self):
        federation = lubm.build_federation(4, lubm.BENCH_PROFILE, seed=1)
        engine = ForcedPlanEngine(federation, force=block_size(self.BLOCK))
        text = queries_lubm.queries()["L10"]
        readings = []
        for __ in range(2):
            engine.tracer = Tracer(enabled=True)
            before = self._bound_hits(engine.registry)
            engine.execute(text)
            (bound,) = engine.tracer.roots[0].find("bound_subquery")
            assert len(bound.find("bound_block")) == 3
            readings.append(
                (bound.attrs["plan_cache_hits"], self._bound_hits(engine.registry) - before)
            )
        # The first run compiles the skeleton once; the second reuses it.
        assert readings == [(2, 2), (3, 3)]

    def test_concurrent_queries_count_only_their_own_hits(self):
        federation = lubm.build_federation(4, lubm.BENCH_PROFILE, seed=1)
        queries = queries_lubm.queries()
        server = QueryServer(federation)
        engines = []
        forced = serving_engines(server, block_size(self.BLOCK))

        def traced():
            engine = forced()
            engine.tracer = Tracer(enabled=True)
            engines.append(engine)
            return engine

        server.engine_factory = traced
        arrivals = _requests(
            [(0.0, f"tenant{index % 4}", name, queries[name]) for index, name in enumerate(sorted(queries))]
        )
        records = server.run(arrivals)
        assert all(record.ok for record in records)
        spans = [
            span
            for engine in engines
            for root in engine.tracer.roots
            for span in root.find("bound_subquery")
        ]
        assert len(spans) > 1
        span_hits = sum(span.attrs["plan_cache_hits"] for span in spans)
        # Each bound hit is counted on exactly one span.
        assert span_hits == self._bound_hits(server.registry) > 0
