"""Tests for the auxiliary features: multi-query optimization (a batch
is a set of arrivals at one instant on a QueryServer), plan explanation,
federation persistence, and the CLI."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import LusailEngine
from repro.datasets import lubm
from repro.datasets.io import load_federation, save_federation
from repro.datasets.random_federation import (
    FederationShape,
    build_random_federation,
    build_random_query,
)
from repro.rdf import UB, Triple, TriplePattern, Variable
from repro.serve import QueryRequest, QueryServer, ServingClient
from repro.sparql.ast import BGP, GroupPattern, SelectQuery
from repro.sparql.parser import parse_query
from repro.sparql.serializer import serialize_query

from tests.conftest import MIT, QA, assert_same_bag, build_paper_federation, oracle_rows

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


def _batch(federation, texts):
    """A batch: every text arriving at one instant on one QueryServer."""
    server = QueryServer(federation)
    records = server.run(
        [QueryRequest(0.0, "batch", f"q{index}", text) for index, text in enumerate(texts)]
    )
    return server, records


def _registered(server, endpoint, text):
    """Ship ``text`` to ``endpoint`` and register its response the way a
    producing ServingClient does; returns the response."""
    query = parse_query(text)
    result = endpoint.select(query)
    server.register_select(endpoint.name, query, result, 1.0)
    return result


def _shared(server, endpoint, text):
    """What a ServingClient shipping ``text`` to ``endpoint`` would read
    from the share registry (the response view, or None)."""
    found = server.shared_select(endpoint.name, parse_query(text))
    return None if found is None else found[0]


ADVISOR = UB_PREFIX + "SELECT ?s ?p WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }"


class TestMultiQueryOptimization:
    def queries(self):
        # Three queries sharing the advisor/takesCourse/teacherOf core.
        q1 = UB_PREFIX + (
            "SELECT ?S ?U WHERE { ?S ub:advisor ?P . ?S ub:takesCourse ?C . "
            "?P ub:teacherOf ?C . ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }"
        )
        q2 = UB_PREFIX + (
            "SELECT ?S ?A WHERE { ?S ub:advisor ?P . ?S ub:takesCourse ?C . "
            "?P ub:teacherOf ?C . ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }"
        )
        return [QA, q1, q2]

    def test_batch_matches_individual_results(self, paper_federation):
        __, records = _batch(paper_federation, self.queries())
        solo_engine = LusailEngine(build_paper_federation())
        assert [record.path for record in records] == ["executed"] * 3
        for record, text in zip(records, self.queries()):
            solo = solo_engine.execute(text)
            assert record.result.vars == solo.result.vars
            assert_same_bag(record.result.rows, solo.result.rows)

    def test_sharing_reduces_requests(self, paper_federation):
        server, records = _batch(paper_federation, self.queries())
        unshared_engine = LusailEngine(build_paper_federation())
        unshared = sum(
            unshared_engine.execute(text).metrics.request_count()
            for text in self.queries()
        )
        assert server.mqo_subquery_hits > 0
        # The three queries ship different projections of one subquery:
        # the covering rule answers the narrower ones.
        assert (sum(record.requests for record in records), unshared) == (10, 20)

    def test_attached_twin_reads_its_own_variable_names(self, paper_federation):
        # A permuted, renamed twin attaches to the first query's
        # execution; its record carries its own header over the shared
        # positional columns.
        texts = [
            UB_PREFIX + "SELECT ?a ?b WHERE { ?a ub:advisor ?b }",
            UB_PREFIX + "SELECT ?b ?a WHERE { ?b ub:advisor ?a }",
        ]
        __, records = _batch(paper_federation, texts)
        assert [record.path for record in records] == ["executed", "attach"]
        solo_engine = LusailEngine(build_paper_federation())
        for record, text in zip(records, texts):
            solo = solo_engine.execute(text)
            assert record.result.vars == solo.result.vars
            assert_same_bag(record.result.rows, solo.result.rows)

    def test_cache_key_distinguishes_sources(self, paper_federation):
        # The same body at another endpoint is another relation.
        server = QueryServer(paper_federation)
        ep1, ep2 = paper_federation.get("EP1"), paper_federation.get("EP2")
        _registered(server, ep1, ADVISOR)
        assert _shared(server, ep1, ADVISOR) is not None
        assert _shared(server, ep2, ADVISOR) is None

    def test_cache_key_ignores_variable_names(self, paper_federation):
        # The canonical body collapses SELECTs that differ only in
        # variable naming onto one key and one set of names.
        server = QueryServer(paper_federation)
        one = parse_query(UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor ?p }")
        two = parse_query(UB_PREFIX + "SELECT ?x WHERE { ?x ub:advisor ?y }")
        assert server.subquery_key(one) == server.subquery_key(two)
        # Constants stay part of the key (as lifted VALUES data).
        three = parse_query(
            UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor <http://mit.example.org/Ben> }"
        )
        assert server.subquery_key(one)[0] != server.subquery_key(three)[0]

    def test_shared_relation_renamed_across_queries(self, paper_federation):
        # Two SELECTs with different variable names share one shipped
        # response; the reuse arrives under the requester's own names.
        server = QueryServer(paper_federation)
        endpoint = paper_federation.get("EP2")
        result = _registered(server, endpoint, ADVISOR)
        reused = _shared(
            server,
            endpoint,
            UB_PREFIX + "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?x ub:takesCourse ?z }",
        )
        assert reused is not None
        assert [v.name for v in reused.vars] == ["x", "y"]
        assert sorted(map(repr, reused.rows)) == sorted(map(repr, result.rows))
        assert server.mqo_subquery_hits == 1


class TestCoveringShare:
    """A plain SELECT is answered from any response at the same endpoint
    and store version whose projection covers its own."""

    @staticmethod
    def _recorded_selects(monkeypatch):
        selects = []
        original = ServingClient.select

        def recording(client, endpoint_name, query, at_ms, **kwargs):
            result, end = original(client, endpoint_name, query, at_ms, **kwargs)
            selects.append((endpoint_name, result))
            return result, end

        monkeypatch.setattr(ServingClient, "select", recording)
        return selects

    def test_narrower_select_reads_the_wider_columns(self, monkeypatch, paper_federation):
        wide = UB_PREFIX + "SELECT ?S ?P WHERE { ?S ub:advisor ?P }"
        narrow = UB_PREFIX + "SELECT ?S WHERE { ?S ub:advisor ?P }"
        selects = self._recorded_selects(monkeypatch)
        server, records = _batch(paper_federation, [wide, narrow])
        assert [record.path for record in records] == ["executed", "executed"]
        assert server.mqo_subquery_hits == 2
        for endpoint in ("EP1", "EP2"):
            producer, consumer = [result for name, result in selects if name == endpoint]
            assert [v.name for v in consumer.vars] == ["S"]
            # A column-subset view: the producer's column object itself,
            # nothing copied or decoded.
            assert consumer.columns[0] is producer.columns[producer.vars.index(Variable("S"))]
            assert consumer.dictionary is producer.dictionary
            assert consumer._rows is None and len(consumer) == len(producer)
        for record, text in zip(records, (wide, narrow)):
            assert_same_bag(record.result.rows, oracle_rows(paper_federation, text))

    def test_renamed_and_reordered_projection_is_answered(self, monkeypatch, paper_federation):
        wide = UB_PREFIX + "SELECT ?S ?P WHERE { ?S ub:advisor ?P }"
        swapped = UB_PREFIX + "SELECT ?prof ?student WHERE { ?student ub:advisor ?prof }"
        selects = self._recorded_selects(monkeypatch)
        server, records = _batch(paper_federation, [wide, swapped])
        assert server.mqo_subquery_hits == 2
        for endpoint in ("EP1", "EP2"):
            producer, consumer = [result for name, result in selects if name == endpoint]
            position = {v.name: i for i, v in enumerate(producer.vars)}
            for var, column in zip(consumer.vars, consumer.columns):
                original = {"prof": "P", "student": "S"}[var.name]
                assert column is producer.columns[position[original]]
        for record, text in zip(records, (wide, swapped)):
            assert_same_bag(record.result.rows, oracle_rows(paper_federation, text))

    @pytest.mark.parametrize(
        "modifier",
        [
            "SELECT DISTINCT ?s WHERE { ?s ub:advisor ?p }",
            "SELECT ?s WHERE { ?s ub:advisor ?p } LIMIT 1",
            "SELECT ?s WHERE { ?s ub:advisor ?p } OFFSET 1",
            "SELECT ?s WHERE { ?s ub:advisor ?p } ORDER BY ?s",
            "SELECT (COUNT(?s) AS ?n) WHERE { ?s ub:advisor ?p }",
        ],
    )
    def test_modified_selects_share_only_with_an_exact_twin(self, paper_federation, modifier):
        server = QueryServer(paper_federation)
        endpoint = paper_federation.get("EP2")
        text = UB_PREFIX + modifier
        _registered(server, endpoint, UB_PREFIX + "SELECT ?s ?p WHERE { ?s ub:advisor ?p }")
        assert _shared(server, endpoint, text) is None
        produced = _registered(server, endpoint, text)
        twin = text.replace("?s", "?x").replace("?p", "?y")
        reused = _shared(server, endpoint, twin)
        assert reused is not None and reused.rows == produced.rows
        assert server.mqo_subquery_hits == 1

    def test_a_write_between_producer_and_consumer_misses(self, paper_federation):
        server = QueryServer(paper_federation)
        endpoint = paper_federation.get("EP1")
        _registered(server, endpoint, ADVISOR)
        endpoint.add_all([Triple(MIT.Zoe, UB.advisor, MIT.Ben)])
        assert _shared(server, endpoint, ADVISOR) is None
        assert server.mqo_subquery_hits == 0

    def test_a_narrower_response_never_replaces_a_wider_one(self, paper_federation):
        server = QueryServer(paper_federation)
        endpoint = paper_federation.get("EP2")
        _registered(server, endpoint, ADVISOR)
        narrow = UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }"
        _registered(server, endpoint, narrow)
        assert _shared(server, endpoint, ADVISOR) is not None

    def test_each_projection_keeps_its_own_response(self, paper_federation):
        # Two responses of equal width over different projections of one
        # body both stay registered: an exact twin of the first still hits.
        server = QueryServer(paper_federation)
        endpoint = paper_federation.get("EP2")
        first = UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor ?p }"
        second = UB_PREFIX + "SELECT ?p WHERE { ?s ub:advisor ?p }"
        produced = _registered(server, endpoint, first)
        assert _shared(server, endpoint, second) is None
        _registered(server, endpoint, second)
        twin = _shared(server, endpoint, UB_PREFIX + "SELECT ?x WHERE { ?x ub:advisor ?y }")
        assert twin is not None and twin.columns[0] is produced.columns[0]
        assert server.mqo_subquery_hits == 1

    @given(st.data())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_projections_and_renamings_at_one_instant_match_the_oracle(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=500))
        federation = build_random_federation(
            seed, FederationShape(endpoints=2, entities_per_endpoint=6)
        )
        query = build_random_query(seed, 2, max_patterns=4)
        variables = list(query.select_vars)
        variants = [query]
        for index in range(data.draw(st.integers(min_value=1, max_value=3))):
            projection = data.draw(st.permutations(variables))[
                : data.draw(st.integers(min_value=1, max_value=len(variables)))
            ]
            rename = {var: Variable(f"r{index}_{var.name}") for var in variables}
            if data.draw(st.booleans()):
                rename = {var: var for var in variables}
            variants.append(_renamed(query, projection, rename))
        texts = [serialize_query(variant) for variant in variants]
        __, records = _batch(federation, texts)
        for record, text in zip(records, texts):
            assert record.ok, record.error
            assert record.result.vars == parse_query(text).projected_variables()
            assert_same_bag(record.result.rows, oracle_rows(federation, text))


def _renamed(query, projection, rename):
    """``query``'s BGP body under ``rename``, projecting ``projection``."""
    (bgp,) = query.where.elements

    def term(value):
        return rename.get(value, value)

    triples = [TriplePattern(term(t.subject), t.predicate, term(t.object)) for t in bgp.triples]
    return SelectQuery(
        where=GroupPattern([BGP(triples)]),
        select_vars=tuple(rename[var] for var in projection),
    )


class TestExplain:
    def test_explain_mentions_gjvs_and_subqueries(self, paper_federation):
        engine = LusailEngine(paper_federation)
        text = engine.explain(QA)
        assert "global join variables" in text
        assert "'P'" in text and "'U'" in text
        assert "subquery" in text
        assert "PhDDegreeFrom" in text

    def test_explain_disjoint(self, paper_federation):
        engine = LusailEngine(paper_federation)
        text = engine.explain(
            UB_PREFIX + "SELECT ?s ?p WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }"
        )
        assert "disjoint" in text

    def test_explain_matches_execution_with_delays_disabled(self):
        """``explain`` and ``execute`` share one analysis: with delays
        off, LUBM Q4 runs no bound join, so none may be planned."""
        from repro.core.engine import LusailConfig
        from repro.datasets import lubm

        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        assert "[delayed" in LusailEngine(federation).explain(lubm.query_q4())
        engine = LusailEngine(federation, config=LusailConfig(delay_policy=None))
        text = engine.explain(lubm.query_q4())
        assert "delay decision: disabled" in text
        assert "[delayed" not in text and "bound-join blocks" not in text
        outcome = engine.execute(lubm.query_q4())
        assert not any(plan.delays.delayed_ids for plan in outcome.plan.branch_plans)
        assert outcome.metrics.request_count("bound") == 0

    def test_explain_does_not_fetch_data(self, paper_federation):
        engine = LusailEngine(paper_federation)
        engine.explain(QA)
        # Only probes (ask/check/count) were issued; verify via a fresh
        # execution whose probe phase is fully cached.
        outcome = engine.execute(QA)
        assert outcome.metrics.request_count("ask", "check", "count") == 0


class TestFederationIO:
    def test_round_trip(self, tmp_path, paper_federation):
        save_federation(paper_federation, tmp_path)
        loaded = load_federation(tmp_path)
        assert loaded.names() == paper_federation.names()
        for original, restored in zip(paper_federation, loaded):
            assert set(original.store) == set(restored.store)
            assert original.region == restored.region

    def test_round_trip_preserves_query_results(self, tmp_path):
        federation = lubm.build_federation(2, seed=13)
        save_federation(federation, tmp_path)
        loaded = load_federation(tmp_path)
        original = LusailEngine(federation).execute(lubm.query_q2())
        restored = LusailEngine(loaded).execute(lubm.query_q2())
        assert_same_bag(original.result.rows, restored.result.rows)

    def test_manifest_counts(self, tmp_path, paper_federation):
        import json

        save_federation(paper_federation, tmp_path)
        manifest = json.loads((tmp_path / "federation.json").read_text())
        counts = {e["name"]: e["triples"] for e in manifest["endpoints"]}
        assert counts == {"EP1": 8, "EP2": 9}


class TestCli:
    def test_generate_and_files(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "generate", "--benchmark", "lubm", "--endpoints", "2",
                "--profile", "tiny", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "university0.nt").exists()
        assert (tmp_path / "out" / "federation.json").exists()

    def test_query_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "query", "--benchmark", "lubm", "--endpoints", "2",
                "--name", "Q3", "--engine", "Lusail", "--limit", "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "status: ok" in captured
        assert "requests" in captured

    def test_explain_command(self, capsys):
        from repro.cli import main

        code = main(["explain", "--benchmark", "lubm", "--endpoints", "2", "--name", "Q4"])
        assert code == 0
        assert "global join variables" in capsys.readouterr().out

    def test_unknown_query_name(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["query", "--benchmark", "lubm", "--name", "Q99"])


class TestMultiMachine:
    def test_more_machines_not_slower(self):
        from repro.core.engine import LusailConfig
        from repro.datasets import largerdf
        from repro.datasets.queries_largerdf import BIG

        federation = largerdf.build_federation(scale=0.5, seed=7)
        times = []
        for machines in (1, 4):
            engine = LusailEngine(federation, config=LusailConfig(machines=machines))
            engine.execute(BIG["B3"])  # warm caches
            outcome = engine.execute(BIG["B3"])
            assert outcome.ok
            times.append(outcome.metrics.virtual_ms)
        assert times[1] <= times[0]

    def test_results_identical_across_machine_counts(self):
        from collections import Counter

        from repro.core.engine import LusailConfig

        federation = build_paper_federation()
        single = LusailEngine(federation, config=LusailConfig(machines=1)).execute(QA)
        multi = LusailEngine(federation, config=LusailConfig(machines=3)).execute(QA)
        assert Counter(single.result.rows) == Counter(multi.result.rows)
