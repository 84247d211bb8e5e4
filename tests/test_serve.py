"""Tests for the concurrent serving layer (:mod:`repro.serve`)."""

import sys
import threading
from collections import Counter

import pytest

from repro.core.engine import LusailEngine
from repro.datasets import lubm, queries_lubm
from repro.exceptions import UnsupportedQueryError
from repro.harness.traffic import TrafficConfig, generate_arrivals
from repro.net import metrics as metrics_module
from repro.obs import MetricsRegistry, Tracer
from repro.rdf import Triple, UB
from repro.relational.kernels import _RUNTIME_STACK
from repro.serve import QueryRequest, QueryServer, ResultCache
from repro.serve.server import MAX_INFLIGHT, PER_TENANT_INFLIGHT

from tests.conftest import (
    MIT,
    QA,
    assert_same_bag,
    assert_served_as_serial,
    build_paper_federation,
    fresh_federation,
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

    def test_seeded_replay_counters_are_golden(self):
        """The exact sharing counters of one small Zipfian replay (the
        gate the 10⁵-request smoke held, at a size a test can run): a
        scheduler, cache or MQO change that moves them must say so here.
        The replay runs on endpoints built for it, so no test that ran
        before leaves compiled plans or member sets behind."""
        queries = queries_lubm.queries()
        federation = fresh_federation("lubm2")
        server = QueryServer(federation)
        records = server.run(
            generate_arrivals(queries, TrafficConfig(requests=600, tenants=4, seed=0))
        )
        assert_served_as_serial(records, serial_runs(federation, queries)[1])
        assert Counter(record.path for record in records) == {
            "cache": 580,
            "attach": 6,
            "executed": 14,
        }
        cache = server.result_cache
        assert (cache.hits, cache.misses, cache.invalidations, len(cache)) == (580, 20, 0, 14)
        assert server.mqo_subquery_hits == 3
        # 14 executions on the calling thread and three pooled ones; the
        # turn changes threads 12 times.
        assert _handoff_counters(server.registry) == (3, 12)

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


#: The turn hand-off counters, which the recorded snapshot predates.
HANDOFF_COUNTERS = ("serve_worker_threads_started_total", "serve_turn_handoffs_total")


def _handoff_counters(registry) -> tuple[int, int]:
    """``(threads started, turn hand-offs)`` a server recorded."""
    return tuple(int(registry.counter_value(name)) for name in HANDOFF_COUNTERS)


def _counter_lines(registry) -> list[str]:
    """Every counter series of ``registry``, one ``name{labels} value``
    line each, sorted."""
    return [
        f"{name}{{{','.join(f'{label}={value}' for label, value in labels)}}} {total!r}"
        for (name, labels), total in sorted(registry._counters.items())
    ]


class TestInterleavingPin:
    """A t=0 burst past the admission slots, with twins and a late
    repeat, replays to the exact records and counters recorded when the
    server still ran a scheduler thread beside its workers (re-timed
    once since, for smaller summaries: see the literals).  The burst
    grants the turn to other tickets, admits queries while the turn
    holder is parked mid-query, attaches twins, feeds subqueries across
    queries and hits the result cache: a change to how the turn passes
    between threads must leave all of it byte-identical."""

    @staticmethod
    def _burst() -> list[QueryRequest]:
        queries = dict(queries_lubm.queries())
        queries.update(lubm.queries())
        names = sorted(queries)[:12]
        assert len(names) > MAX_INFLIGHT
        return _requests(
            [(0.0, f"t{index % 3}", name, queries[name]) for index, name in enumerate(names)]
            + [(0.0, "t1", name, queries[name]) for name in names[:3]]
            + [(5.0, "t2", name, queries[name]) for name in names[3:5]]
            + [(100.0, "t0", names[0], queries[names[0]])]
        )

    def test_burst_replays_to_the_recorded_interleaving(self):
        # A fresh federation: the endpoints' plan and member-set memos
        # feed counters, so a shared fixture would pin test order.
        federation = lubm.build_federation(universities=2, seed=7)
        registry = MetricsRegistry()
        server = QueryServer(federation, registry=registry)
        records = server.run(self._burst())
        assert _signature(records) == BURST_SIGNATURE
        lines = _counter_lines(registry)
        assert [line for line in lines if not line.startswith(HANDOFF_COUNTERS)] == BURST_COUNTERS
        assert server.mqo_subquery_hits == 2
        # Eight queries are admitted at t=0, each parked at its first
        # gate: the calling thread runs one, seven pooled threads the
        # rest.  A scheduler thread made 50 round trips here (38 gates,
        # 12 starts); the turn now changes threads 32 times.
        assert _handoff_counters(registry) == (7, 32)

    def test_burst_holds_under_preemptive_thread_switching(self):
        """The pooled threads share the server's state under the turn
        alone: with the interpreter switching threads every microsecond,
        a step taken outside the turn would lose an update or reorder the
        replay."""
        federation = lubm.build_federation(universities=2, seed=7)
        server = QueryServer(federation)
        served = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            replay = threading.Thread(target=lambda: served.extend(server.run(self._burst())))
            replay.start()
            replay.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not replay.is_alive()
        assert _signature(served) == BURST_SIGNATURE
        assert _handoff_counters(server.registry) == (7, 32)


class TestTurnPassing:
    """Pooled serving threads: none outlives ``run``, a reused thread
    starts each query with a clean kernel runtime, and a failure unwinds
    every other in-flight query before it reaches the caller."""

    @staticmethod
    def _federation():
        return lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)

    @staticmethod
    def _distinct(count: int) -> list[QueryRequest]:
        queries = queries_lubm.queries()
        names = sorted(queries)[:count]
        return _requests(
            [(0.0, f"t{index % 2}", name, queries[name]) for index, name in enumerate(names)]
        )

    @staticmethod
    def _assert_drained(server) -> None:
        assert server._inflight == {} and server._pending == {} and server._draining == []
        assert not any(server._queues.values())
        assert len(_RUNTIME_STACK.runtimes) == 1

    def test_threads_are_reused_and_none_outlives_run(self):
        server = QueryServer(self._federation())
        untouched = server.engine_factory
        runs = []

        def recording():
            engine = untouched()
            execute = engine.execute

            def recorded(query, *args, **kwargs):
                runs.append((threading.get_ident(), len(_RUNTIME_STACK.runtimes)))
                return execute(query, *args, **kwargs)

            engine.execute = recorded
            return engine

        server.engine_factory = recording
        before = threading.active_count()
        records = server.run(self._distinct(12))
        assert threading.active_count() == before
        assert all(record.ok for record in records) and len(runs) == 12
        per_thread = Counter(ident for ident, __ in runs)
        pooled = [ident for ident in per_thread if ident != threading.get_ident()]
        assert max(per_thread[ident] for ident in pooled) > 1
        assert {depth for __, depth in runs} == {1}
        threads, __ = _handoff_counters(server.registry)
        assert threads == len(pooled) < len(runs)

    def test_a_failing_query_unwinds_its_peers(self):
        server = QueryServer(self._federation())
        untouched = server.engine_factory
        failure = RuntimeError("the third engine fails")
        built = []

        def third_fails():
            built.append(True)
            if len(built) == 3:
                raise failure
            return untouched()

        server.engine_factory = third_fails
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            server.run(self._distinct(6))
        assert raised.value is failure
        assert threading.active_count() == before
        self._assert_drained(server)
        # The first two queries were parked mid-query, not finished.
        assert server.registry.counter_value("serve_queries_total") == 0
        server.engine_factory = untouched
        (again,) = server.run(self._distinct(1))
        assert again.ok and again.path == "executed"

    def test_a_failing_step_on_a_worker_unwinds_every_query(self):
        server = QueryServer(self._federation())
        ask = UB_PREFIX + "ASK { ?x ub:advisor ?y }"
        arrivals = self._distinct(3) + _requests([(1.0, "t0", "ask", ask)])
        before = threading.active_count()
        # The ASK arrives while the queries are in flight: the thread
        # holding the turn at a gate refuses it.
        with pytest.raises(UnsupportedQueryError):
            server.run(arrivals)
        assert threading.active_count() == before
        self._assert_drained(server)
        assert len(server.run(self._distinct(2))) == 2


# Recorded from the scheduler-thread server (one worker per query, the
# scheduler resuming each at every gate) on a fresh two-university LUBM
# federation (seed 7).  Since the summaries dropped their pair fan-out
# tables, each endpoint's ``stats`` payload is half its recorded size:
# every finish time is 0.857 ms earlier, the ``stats`` bytes and lane
# busy times are lower, and the interleaving, paths and every other
# counter are as recorded.
BURST_SIGNATURE = [
    (0, 'L1', 't0', 'executed', 'ok', 0.0, 0.0, 28.326382000000002, 3, 4),
    (1, 'L10', 't1', 'executed', 'ok', 0.0, 0.0, 30.018324, 22, 3),
    (2, 'L11', 't2', 'executed', 'ok', 0.0, 0.0, 31.343534000000002, 3, 3),
    (3, 'L12', 't0', 'executed', 'ok', 0.0, 0.0, 32.694829999999996, 3, 2),
    (4, 'L13', 't1', 'executed', 'ok', 0.0, 0.0, 21.170472, 30, 3),
    (5, 'L14', 't2', 'executed', 'ok', 0.0, 0.0, 23.033272, 72, 3),
    (6, 'L2', 't0', 'executed', 'ok', 0.0, 0.0, 37.444904, 38, 7),
    (7, 'L3', 't1', 'executed', 'ok', 0.0, 0.0, 38.764454, 1, 5),
    (8, 'L4', 't2', 'executed', 'ok', 0.0, 23.033272, 41.48408800000001, 4, 2),
    (9, 'L5', 't0', 'executed', 'ok', 0.0, 21.170472, 21.170472, 22, 0),
    (10, 'L6', 't1', 'executed', 'ok', 0.0, 21.170472, 34.460672, 60, 2),
    (11, 'L7', 't2', 'executed', 'ok', 0.0, 28.326382000000002, 42.885688, 6, 2),
    (12, 'L1', 't1', 'attach', 'ok', 0.0, 0.0, 28.526382, 3, 0),
    (13, 'L10', 't1', 'attach', 'ok', 0.0, 0.0, 30.218324, 22, 0),
    (14, 'L11', 't1', 'attach', 'ok', 0.0, 0.0, 31.543534, 3, 0),
    (15, 'L12', 't2', 'attach', 'ok', 5.0, 5.0, 32.89483, 3, 0),
    (16, 'L13', 't2', 'attach', 'ok', 5.0, 5.0, 21.370472, 30, 0),
    (17, 'L1', 't0', 'cache', 'ok', 100.0, 100.0, 100.2, 3, 0),
]
BURST_COUNTERS = [
    "bound_bindings_routed_out_total{endpoint=university1,engine=Lusail} 42.0",
    "bound_join_blocks_total{engine=Lusail} 7.0",
    "bytes_shipped_total{endpoint=university0,engine=Lusail,kind=ask} 200.0",
    "bytes_shipped_total{endpoint=university0,engine=Lusail,kind=bound} 9609.0",
    "bytes_shipped_total{endpoint=university0,engine=Lusail,kind=check} 677.0",
    "bytes_shipped_total{endpoint=university0,engine=Lusail,kind=select} 15253.0",
    "bytes_shipped_total{endpoint=university0,engine=Lusail,kind=stats} 105472.0",
    "bytes_shipped_total{endpoint=university1,engine=Lusail,kind=ask} 200.0",
    "bytes_shipped_total{endpoint=university1,engine=Lusail,kind=check} 677.0",
    "bytes_shipped_total{endpoint=university1,engine=Lusail,kind=select} 10884.0",
    "bytes_shipped_total{endpoint=university1,engine=Lusail,kind=stats} 13184.0",
    "check_queries_total{engine=Lusail} 4.0",
    "delayed_subqueries_total{engine=Lusail} 7.0",
    "lane_busy_virtual_ms_total{endpoint=university0,engine=Lusail} 42.879688",
    "lane_busy_virtual_ms_total{endpoint=university1,engine=Lusail} 12.38456",
    "mediator_join_rows_total{engine=Lusail} 42.0",
    "mediator_kernel_build_rows_total{engine=Lusail} 39.0",
    "mediator_kernel_fast_dispatches_total{engine=Lusail} 7.0",
    "mediator_kernel_probe_rows_total{engine=Lusail} 45.0",
    "mediator_kernel_rows_emitted_total{engine=Lusail} 42.0",
    "member_set_ids_total{endpoint=university0,engine=Lusail,kind=bound} 51.0",
    "member_set_ids_total{endpoint=university0,engine=Lusail,kind=select} 58.0",
    "member_set_ids_total{endpoint=university1,engine=Lusail,kind=select} 60.0",
    "member_sets_built_total{endpoint=university0,engine=Lusail,kind=bound} 3.0",
    "member_sets_built_total{endpoint=university0,engine=Lusail,kind=select} 2.0",
    "member_sets_built_total{endpoint=university1,engine=Lusail,kind=select} 3.0",
    "metadata_requests_total{engine=Lusail,kind=ask} 2.0",
    "metadata_requests_total{engine=Lusail,kind=check} 4.0",
    "metadata_requests_total{engine=Lusail,kind=stats} 9.0",
    "plan_cache_misses_total{endpoint=university0,engine=Lusail,kind=bound} 7.0",
    "plan_cache_misses_total{endpoint=university0,engine=Lusail,kind=check} 2.0",
    "plan_cache_misses_total{endpoint=university0,engine=Lusail,kind=select} 10.0",
    "plan_cache_misses_total{endpoint=university1,engine=Lusail,kind=check} 2.0",
    "plan_cache_misses_total{endpoint=university1,engine=Lusail,kind=select} 4.0",
    "probe_cache_hits_total{engine=Lusail,kind=stats} 15.0",
    "probe_cache_misses_total{engine=Lusail,kind=ask} 2.0",
    "probe_cache_misses_total{engine=Lusail,kind=check} 4.0",
    "probe_cache_misses_total{engine=Lusail,kind=stats} 9.0",
    "queries_total{engine=Lusail,status=ok} 12.0",
    "requests_cached_total{endpoint=university0,engine=Lusail,kind=stats} 4.0",
    "requests_cached_total{endpoint=university1,engine=Lusail,kind=stats} 11.0",
    "requests_total{endpoint=university0,engine=Lusail,kind=ask} 1.0",
    "requests_total{endpoint=university0,engine=Lusail,kind=bound} 7.0",
    "requests_total{endpoint=university0,engine=Lusail,kind=check} 2.0",
    "requests_total{endpoint=university0,engine=Lusail,kind=select} 10.0",
    "requests_total{endpoint=university0,engine=Lusail,kind=stats} 8.0",
    "requests_total{endpoint=university1,engine=Lusail,kind=ask} 1.0",
    "requests_total{endpoint=university1,engine=Lusail,kind=check} 2.0",
    "requests_total{endpoint=university1,engine=Lusail,kind=select} 4.0",
    "requests_total{endpoint=university1,engine=Lusail,kind=stats} 1.0",
    "rows_shipped_total{endpoint=university0,engine=Lusail,kind=ask} 1.0",
    "rows_shipped_total{endpoint=university0,engine=Lusail,kind=bound} 42.0",
    "rows_shipped_total{endpoint=university0,engine=Lusail,kind=check} 0.0",
    "rows_shipped_total{endpoint=university0,engine=Lusail,kind=select} 143.0",
    "rows_shipped_total{endpoint=university0,engine=Lusail,kind=stats} 176.0",
    "rows_shipped_total{endpoint=university1,engine=Lusail,kind=ask} 1.0",
    "rows_shipped_total{endpoint=university1,engine=Lusail,kind=check} 0.0",
    "rows_shipped_total{endpoint=university1,engine=Lusail,kind=select} 96.0",
    "rows_shipped_total{endpoint=university1,engine=Lusail,kind=stats} 22.0",
    "serve_admitted_total{tenant=t0} 4.0",
    "serve_admitted_total{tenant=t1} 4.0",
    "serve_admitted_total{tenant=t2} 4.0",
    "serve_mqo_query_attached_total{} 5.0",
    "serve_mqo_subquery_hits_total{endpoint=university0,engine=Lusail} 2.0",
    "serve_queries_total{path=attach,status=ok,tenant=t1} 3.0",
    "serve_queries_total{path=attach,status=ok,tenant=t2} 2.0",
    "serve_queries_total{path=cache,status=ok,tenant=t0} 1.0",
    "serve_queries_total{path=executed,status=ok,tenant=t0} 4.0",
    "serve_queries_total{path=executed,status=ok,tenant=t1} 4.0",
    "serve_queries_total{path=executed,status=ok,tenant=t2} 4.0",
    "serve_result_cache_hits_total{} 1.0",
    "serve_result_cache_misses_total{} 17.0",
    "subqueries_total{engine=Lusail} 19.0",
]
