"""Sharded endpoint lanes: chunking, equality, stats and virtual costs.

The sharded SELECT path chunks a compiled pipeline's input rows across K
lanes; its results must be row-identical to the single-lane evaluation
for every shard count, with per-lane statistics exposed through
``Endpoint.last_shard_stats`` and mirrored into the metrics registry by
the federation client.  The opt-in fork pool (real parallelism) must
produce the same rows again, and the network simulator must divide only
the per-row evaluation cost across lanes — never the transfer.
"""

import pytest

from repro.datasets import lubm
from repro.endpoint import Endpoint, EngineCaches, Federation, FederationClient
from repro.endpoint.client import _payload_bytes
from repro.endpoint.shards import fork_shardable, split_values_rows
from repro.net import QueryMetrics
from repro.net.simulator import VirtualNetwork, local_cluster_config
from repro.obs.registry import MetricsRegistry
from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.relational import Relation
from repro.sparql import parse_query
from repro.sparql.ast import BGP, GroupPattern, SelectQuery, ValuesPattern

EX = "http://ex.org/"


def iri(name):
    return IRI(EX + name)


def values_query(subjects):
    s, o = Variable("s"), Variable("o")
    return SelectQuery(
        where=GroupPattern(
            [
                ValuesPattern((s,), tuple((subj,) for subj in subjects)),
                BGP([TriplePattern(s, iri("p"), o)]),
            ]
        ),
        select_vars=(s, o),
    )


def make_triples(n=12):
    out = []
    for i in range(n):
        out.append(Triple(iri(f"s{i}"), iri("p"), iri(f"o{i}")))
        out.append(Triple(iri(f"s{i}"), iri("p"), iri(f"o{i}x")))
    return out


class TestSplitValuesRows:
    def test_chunks_cover_rows_in_order(self):
        query = values_query([iri(f"s{i}") for i in range(7)])
        chunks = split_values_rows(query, 3)
        assert len(chunks) == 3
        sizes = [len(chunk.where.elements[0].rows) for chunk in chunks]
        assert sizes == [3, 2, 2]
        recombined = [
            row for chunk in chunks for row in chunk.where.elements[0].rows
        ]
        assert recombined == list(query.where.elements[0].rows)

    def test_more_shards_than_rows(self):
        query = values_query([iri("s0"), iri("s1")])
        chunks = split_values_rows(query, 8)
        assert len(chunks) == 2

    def test_body_is_preserved(self):
        query = values_query([iri("s0"), iri("s1")])
        for chunk in split_values_rows(query, 2):
            assert chunk.select_vars == query.select_vars
            assert chunk.where.elements[1:] == query.where.elements[1:]


class TestForkShardable:
    def test_bound_join_shape_is_eligible(self):
        assert fork_shardable(values_query([iri("s0")]))

    def test_ineligible_shapes(self):
        plain = parse_query("SELECT ?s WHERE { ?s <http://ex.org/p> ?o }")
        assert not fork_shardable(plain)
        eligible = values_query([iri("s0")])
        for modifier in ({"distinct": True}, {"limit": 5}, {"offset": 3}):
            variant = SelectQuery(
                where=eligible.where,
                select_vars=eligible.select_vars,
                **modifier,
            )
            assert not fork_shardable(variant)
        empty_values = SelectQuery(
            where=GroupPattern(
                [ValuesPattern((Variable("s"),), ()), *eligible.where.elements[1:]]
            ),
            select_vars=eligible.select_vars,
        )
        assert not fork_shardable(empty_values)


class TestShardedSelect:
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_sharded_rows_equal_serial(self, shards):
        triples = make_triples()
        serial = Endpoint("serial", triples)
        sharded = Endpoint("lanes", triples, shards=shards)
        query = values_query([iri(f"s{i}") for i in range(10)])
        expected = serial.select(query)
        got = sharded.select(query)
        assert got.vars == expected.vars
        assert list(got.rows) == list(expected.rows)
        assert serial.last_shard_stats == []
        stats = sharded.last_shard_stats
        assert [entry["shard"] for entry in stats] == list(range(len(stats)))
        assert sum(entry["output_rows"] for entry in stats) == len(expected.rows)
        assert all(entry["seconds"] >= 0 for entry in stats)

    def test_sharded_plain_select_equal_serial(self):
        # Non-bound-join shapes go through the in-process lane path too.
        triples = make_triples()
        serial = Endpoint("serial", triples)
        sharded = Endpoint("lanes", triples, shards=3)
        query = parse_query("SELECT ?s ?o WHERE { ?s <http://ex.org/p> ?o }")
        assert list(sharded.select(query).rows) == list(serial.select(query).rows)

    def test_shard_stats_flow_into_registry(self):
        triples = make_triples()
        sharded = Endpoint("ep1", triples, shards=2)
        federation = Federation([sharded])
        registry = MetricsRegistry()
        client = FederationClient(
            federation,
            local_cluster_config(),
            EngineCaches(),
            registry=registry,
            engine="TestEngine",
        )
        query = values_query([iri(f"s{i}") for i in range(6)])
        result, __ = client.select("ep1", query, 0.0)
        assert len(result) == 12
        total = sum(
            registry.counter_value(
                "endpoint_shard_rows_total",
                engine="TestEngine",
                endpoint="ep1",
                kind="select",
                shard=str(shard),
            )
            for shard in range(2)
        )
        assert total == 12


class TestForkPool:
    def test_parallel_rows_equal_serial(self):
        triples = make_triples()
        serial = Endpoint("serial", triples)
        parallel = Endpoint("forked", triples, shards=2, parallel=True)
        try:
            query = values_query([iri(f"s{i}") for i in range(8)])
            expected = serial.select(query)
            got = parallel.select(query)
            assert list(got.rows) == list(expected.rows)
            if parallel._shard_pool is not None:
                # The pool actually ran: per-worker stats came back.
                assert len(parallel.last_shard_stats) == 2
                # A worker's dictionary is a private copy, so its rows
                # come back as terms; they size and ingest like the
                # serial run's id columns.
                assert got.columns is None and expected.columns is not None
                assert _payload_bytes(got) == _payload_bytes(expected)
                assert Relation.from_result(got).columns == Relation.from_result(expected).columns
        finally:
            parallel.close()

    def test_mutation_invalidates_pool(self):
        parallel = Endpoint("forked", make_triples(), shards=2, parallel=True)
        try:
            query = values_query([iri("s0"), iri("s1")])
            parallel.select(query)
            pool = parallel._shard_pool
            if pool is None:
                pytest.skip("fork pool unavailable on this platform")
            assert pool.valid_for(parallel)
            parallel.add(Triple(iri("s99"), iri("p"), iri("o99")))
            assert not pool.valid_for(parallel)
            # The next select re-forks (or falls back) and sees the new row.
            refreshed = parallel.select(values_query([iri("s99")]))
            assert len(refreshed.rows) == 1
        finally:
            parallel.close()


class TestSimulatorShards:
    def _request(self, shards):
        config = local_cluster_config()
        simulator = VirtualNetwork(config, QueryMetrics())
        end = simulator.request(
            endpoint_name="e0",
            endpoint_region="local",
            kind="select",
            ready_at_ms=0.0,
            result_rows=100,
            request_bytes=200,
            shards=shards,
        )
        return end, config

    def test_shards_divide_eval_cost_only(self):
        serial, config = self._request(1)
        sharded, __ = self._request(4)
        assert sharded < serial
        # Exactly the per-row evaluation component is divided by K.
        saved = 100 * (config.eval_row_ms - config.eval_row_ms / 4)
        assert sharded == pytest.approx(serial - saved)

    def test_single_shard_formula_is_byte_identical(self):
        # shards=1 must reproduce the historical expression exactly
        # (committed baselines compare virtual times to the float ulp).
        explicit, __ = self._request(1)
        config = local_cluster_config()
        simulator = VirtualNetwork(config, QueryMetrics())
        default_end = simulator.request(
            endpoint_name="e0",
            endpoint_region="local",
            kind="select",
            ready_at_ms=0.0,
            result_rows=100,
            request_bytes=200,
        )
        assert explicit == default_end


class TestShardedLubmQuery:
    def test_federation_query_invariant_under_shards(self):
        from repro.core.engine import LusailEngine

        query = lubm.queries()["Q4"]
        baseline = None
        for shards in (1, 3):
            federation = lubm.build_federation(
                universities=2, profile=lubm.TINY_PROFILE, seed=11
            )
            for name in federation.names():
                federation.get(name).shards = shards
            outcome = LusailEngine(federation).execute(query)
            assert outcome.ok, outcome.error
            rows = sorted(map(repr, outcome.result.rows))
            if baseline is None:
                baseline = rows
            else:
                assert rows == baseline
        assert baseline
