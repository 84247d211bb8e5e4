"""Seeded arrival streams (:mod:`repro.harness.traffic`) replayed through
:class:`~repro.serve.QueryServer`."""

import json
from collections import Counter

from repro.datasets import queries_lubm
from repro.faults import default_chaos_policy, fault_profile
from repro.harness.traffic import TrafficConfig, generate_arrivals
from repro.serve import QueryServer

from tests.conftest import assert_served_as_serial, serial_runs


def _replay(federation, config, **server_options):
    arrivals = generate_arrivals(queries_lubm.queries(), config)
    return arrivals, QueryServer(federation, **server_options).run(arrivals)


def _report(records) -> str:
    """Every record field plus each served result's rows, as JSON."""
    return json.dumps(
        [
            [
                record.seq, record.name, record.tenant, record.path, record.status,
                record.arrival_ms, record.start_ms, record.finish_ms,
                record.result_rows, record.requests, record.error,
                sorted(map(repr, record.result.rows)) if record.result else None,
            ]
            for record in records
        ]
    )


class TestArrivalGeneration:
    def test_stream_is_deterministic(self):
        queries = queries_lubm.queries()
        config = TrafficConfig(requests=2000, tenants=5, seed=11)
        assert generate_arrivals(queries, config) == generate_arrivals(queries, config)

    def test_seed_changes_stream(self):
        queries = queries_lubm.queries()
        first = generate_arrivals(queries, TrafficConfig(requests=200, seed=1))
        second = generate_arrivals(queries, TrafficConfig(requests=200, seed=2))
        assert first != second

    def test_stream_shape(self):
        queries = queries_lubm.queries()
        config = TrafficConfig(requests=1000, tenants=3, seed=0, zipf_s=1.2)
        arrivals = generate_arrivals(queries, config)
        assert len(arrivals) == 1000
        times = [request.at_ms for request in arrivals]
        assert times == sorted(times)
        assert all(request.name in queries for request in arrivals)
        assert {request.tenant for request in arrivals} == {
            "tenant0",
            "tenant1",
            "tenant2",
        }

    def test_zipf_skew_favors_low_ranks(self):
        queries = queries_lubm.queries()
        arrivals = generate_arrivals(queries, TrafficConfig(requests=5000, seed=3))
        counts = {}
        for request in arrivals:
            counts[request.name] = counts.get(request.name, 0) + 1
        ranked = sorted(queries)
        assert counts[ranked[0]] > counts[ranked[-1]]


class TestTrafficReplay:
    def test_report_byte_identical(self, lubm2):
        config = TrafficConfig(requests=400, tenants=3, seed=5)
        __, first = _replay(lubm2, config)
        __, second = _replay(lubm2, config)
        assert _report(first) == _report(second)

    def test_speedup_and_serial_identity(self, lubm2):
        """The replay beats a one-at-a-time mediator at least twofold, and
        every served result is the serial answer to its query."""
        queries = queries_lubm.queries()
        arrivals, records = _replay(lubm2, TrafficConfig(requests=600, tenants=4, seed=0))
        costs, rows = serial_runs(lubm2, queries)
        assert len(records) == 600 and all(record.ok for record in records)
        assert_served_as_serial(records, rows)
        makespan = max(record.finish_ms for record in records)
        baseline = sum(costs[request.name] for request in arrivals)
        assert baseline / makespan >= 2.0

    def test_per_tenant_sections(self, lubm2):
        __, records = _replay(lubm2, TrafficConfig(requests=300, tenants=2, seed=9))
        tenants = Counter(record.tenant for record in records)
        assert set(tenants) == {"tenant0", "tenant1"}
        assert sum(tenants.values()) == 300

    def test_chaos_profile_layering_is_deterministic(self, lubm2):
        config = TrafficConfig(requests=250, tenants=2, seed=4)

        def chaos_replay():
            return _replay(
                lubm2,
                config,
                fault_plan=fault_profile("chaos", seed=4),
                resilience=default_chaos_policy(),
            )[1]

        first, second = chaos_replay(), chaos_replay()
        assert _report(first) == _report(second)
        # Resilience keeps completed results serial-identical even when
        # faults are injected.
        assert any(record.ok for record in first)
        assert_served_as_serial(first, serial_runs(lubm2, queries_lubm.queries())[1])
