"""Dynamic federations and failure injection.

The paper argues for index-free engines because "endpoints can join and
leave the federation at no cost".  These tests exercise exactly that:
adding endpoints after caches are warm, removing them, endpoints
becoming unavailable mid-workload, and writes between two queries of a
warm engine.
"""

import pytest

from repro.baselines import AnapsidEngine, FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailEngine
from repro.endpoint import Endpoint, Federation
from repro.rdf import Literal, Namespace, Triple, UB
from repro.serve import QueryRequest, QueryServer

from tests.conftest import CMU, MIT, QA, assert_same_bag, build_paper_federation, oracle_rows

ETH = Namespace("http://eth.example.org/")


def third_university() -> Endpoint:
    ep3 = Endpoint("EP3")
    ep3.add_all(
        [
            Triple(ETH.Ida, UB.advisor, ETH.Max),
            Triple(ETH.Ida, UB.takesCourse, ETH.c9),
            Triple(ETH.Max, UB.teacherOf, ETH.c9),
            Triple(ETH.Max, UB.PhDDegreeFrom, ETH.ETH),
            Triple(ETH.ETH, UB.address, Literal("ZZZ")),
        ]
    )
    return ep3


class TestJoiningEndpoints:
    def test_new_endpoint_included_without_preprocessing(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        before = engine.execute(QA)
        assert len(before.result) == 3

        federation.add(third_university())
        after = engine.execute(QA)
        # The cached probes only cover EP1/EP2; EP3 is probed on demand.
        assert len(after.result) == 4
        assert_same_bag(after.result.rows, oracle_rows(federation, QA))

    def test_fedx_also_handles_joins(self):
        federation = build_paper_federation()
        engine = FedXEngine(federation)
        engine.execute(QA)
        federation.add(third_university())
        after = engine.execute(QA)
        assert_same_bag(after.result.rows, oracle_rows(federation, QA))

    def test_warm_server_result_cache_sees_a_joined_endpoint(self):
        """A cached answer pins only the endpoints its execution touched;
        the federation's membership version retires it when EP3 joins."""
        federation = build_paper_federation()
        server = QueryServer(federation)
        request = [QueryRequest(at_ms=0.0, tenant="t", name="QA", text=QA)]
        (first,) = server.run(request)
        assert (first.path, first.result_rows) == ("executed", 3)
        (cached,) = server.run(request)
        assert cached.path == "cache"

        federation.add(third_university())
        (after,) = server.run(request)
        assert after.status == "ok"
        assert after.path == "executed"
        assert after.result_rows == 4
        assert_same_bag(after.result.rows, oracle_rows(federation, QA))

        federation.remove("EP3")
        (left,) = server.run(request)
        assert (left.path, left.result_rows) == ("executed", 3)

    def test_splendid_index_goes_stale(self):
        """Index-based engines miss data added after preprocessing —
        the drawback the paper highlights."""
        federation = build_paper_federation()
        engine = SplendidEngine(federation)
        engine.execute(QA)
        federation.add(third_university())
        stale = engine.execute(QA)
        # The VoID index predates EP3: its predicates are unknown, so the
        # new university's answer is missed (3 rows instead of 4) until
        # the index is rebuilt.
        assert len(stale.result) == 3
        rebuilt = SplendidEngine(federation)
        fresh = rebuilt.execute(QA)
        assert len(fresh.result) == 4


class TestLeavingEndpoints:
    def test_removed_endpoint_not_queried(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        engine.execute(QA)
        federation.remove("EP2")
        # Fresh engine: the cached sources of the old engine mention EP2.
        fresh = LusailEngine(federation)
        outcome = fresh.execute(QA)
        assert outcome.ok
        endpoints_hit = {record.endpoint for record in outcome.metrics.records}
        assert "EP2" not in endpoints_hit
        assert len(outcome.result) == 1  # only Lee/Ben/MIT remains


ALL_ENGINES = [LusailEngine, FedXEngine, HibiscusEngine, SplendidEngine, AnapsidEngine]


class TestWritesBetweenQueries:
    """A write to an endpoint a warm engine has probed or indexed.  The
    ASK, check and COUNT probe caches hold the store version they were
    probed at and are served only while no later write could match
    their patterns, and the index-based engines rebuild the entries of
    the endpoints written since they were indexed."""

    KIM_ADVISORS = (
        "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
        "PREFIX cmu: <http://cmu.example.org/>\n"
        "SELECT ?P WHERE { cmu:Kim ub:advisor ?P }"
    )
    WORKS_FOR = (
        "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
        "SELECT ?S ?P WHERE { ?S ub:worksFor ?P }"
    )

    @pytest.mark.parametrize("engine_class", ALL_ENGINES)
    def test_a_warm_engine_sees_a_write(self, engine_class):
        federation = build_paper_federation()
        engine = engine_class(federation)
        assert len(engine.execute(self.KIM_ADVISORS).result) == 2
        federation.get("EP1").add_all([Triple(CMU.Kim, UB.advisor, MIT.Ben)])
        expected = oracle_rows(federation, self.KIM_ADVISORS)
        assert len(expected) == 3
        assert len(engine_class(federation).execute(self.KIM_ADVISORS).result) == 3
        warm = engine.execute(self.KIM_ADVISORS)
        assert warm.ok
        assert_same_bag(warm.result.rows, expected)

    @pytest.mark.parametrize("engine_class", ALL_ENGINES)
    def test_an_index_follows_an_add_then_a_remove(self, engine_class):
        federation = build_paper_federation()
        federation.get("EP2").add(Triple(CMU.Joy, UB.worksFor, CMU.CMU))
        engine = engine_class(federation)
        counts = []
        for write in (
            None,
            lambda: federation.get("EP1").add(Triple(MIT.Ben, UB.worksFor, MIT.MIT)),
            lambda: federation.get("EP2").remove(Triple(CMU.Joy, UB.worksFor, CMU.CMU)),
        ):
            if write is not None:
                write()
            outcome = engine.execute(self.WORKS_FOR)
            assert outcome.ok
            expected = oracle_rows(federation, self.WORKS_FOR)
            assert_same_bag(outcome.result.rows, expected)
            counts.append(len(outcome.result))
        assert counts == [1, 2, 1]

    @pytest.mark.parametrize("engine_class", [SplendidEngine, AnapsidEngine, HibiscusEngine])
    def test_only_written_endpoints_are_reindexed_and_charged(self, engine_class):
        federation = build_paper_federation()
        engine = engine_class(federation)
        engine.execute(self.WORKS_FOR)
        built = engine.stats.preprocessing_ms
        untouched = _index_entry(engine, "EP2")
        federation.get("EP1").add(Triple(MIT.Ben, UB.worksFor, MIT.MIT))
        engine.execute(self.WORKS_FOR)
        assert engine.stats.preprocessing_ms > built
        assert _index_entry(engine, "EP2") is untouched
        assert engine.index_pins["EP1"] is federation.get("EP1").store.state
        charged = engine.stats.preprocessing_ms
        engine.execute(self.WORKS_FOR)
        assert engine.stats.preprocessing_ms == charged


class TestReplacedEndpoints:
    """EP1 removed and a different endpoint of the same name added, its
    store at the same version as its predecessor's.  A warm engine's
    caches pin the predecessor's store, so nothing it learned about the
    old EP1 may answer for the new one."""

    KIM_ADVISORS = TestWritesBetweenQueries.KIM_ADVISORS

    @staticmethod
    def _replace_ep1(federation: Federation) -> Endpoint:
        old = federation.remove("EP1")
        new = Endpoint("EP1", [*old.store, Triple(CMU.Kim, UB.advisor, MIT.Ben)])
        assert new.store.version == old.store.version
        federation.add(new)
        return new

    @pytest.mark.parametrize("engine_class", ALL_ENGINES)
    def test_a_warm_engine_sees_a_replaced_endpoint(self, engine_class):
        federation = build_paper_federation()
        engine = engine_class(federation)
        assert len(engine.execute(self.KIM_ADVISORS).result) == 2
        self._replace_ep1(federation)
        expected = oracle_rows(federation, self.KIM_ADVISORS)
        assert len(expected) == 3
        warm = engine.execute(self.KIM_ADVISORS)
        assert warm.status == "ok"
        assert_same_bag(warm.result.rows, expected)

    def test_a_warm_server_sees_a_replaced_endpoint(self):
        federation = build_paper_federation()
        server = QueryServer(federation)
        request = [QueryRequest(at_ms=0.0, tenant="t", name="Kim", text=self.KIM_ADVISORS)]
        (first,) = server.run(request)
        assert (first.status, first.result_rows) == ("ok", 2)
        self._replace_ep1(federation)
        (after,) = server.run(request)
        assert after.status == "ok"
        assert_same_bag(after.result.rows, oracle_rows(federation, self.KIM_ADVISORS))

    @pytest.mark.parametrize("engine_class", [SplendidEngine, AnapsidEngine, HibiscusEngine])
    def test_a_replaced_endpoint_is_reindexed_and_charged(self, engine_class):
        federation = build_paper_federation()
        engine = engine_class(federation)
        engine.execute(self.KIM_ADVISORS)
        built = engine.stats.preprocessing_ms
        replaced, untouched = _index_entry(engine, "EP1"), _index_entry(engine, "EP2")
        self._replace_ep1(federation)
        engine.execute(self.KIM_ADVISORS)
        assert engine.stats.preprocessing_ms > built
        assert _index_entry(engine, "EP1") is not replaced
        assert _index_entry(engine, "EP2") is untouched
        charged = engine.stats.preprocessing_ms
        engine.execute(self.KIM_ADVISORS)
        assert engine.stats.preprocessing_ms == charged


def _index_entry(engine, name: str):
    index = engine.index
    return (index.endpoints if hasattr(index, "endpoints") else index)[name]


class TestUnavailableEndpoints:
    def test_unavailable_endpoint_is_a_runtime_error(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        federation.get("EP2").available = False
        outcome = engine.execute(QA)
        assert outcome.status == "error"
        assert "EP2" in (outcome.error or "")

    def test_recovery_after_restoration(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        federation.get("EP2").available = False
        assert engine.execute(QA).status == "error"
        federation.get("EP2").available = True
        outcome = engine.execute(QA)
        assert outcome.ok and len(outcome.result) == 3

    def test_failure_during_warm_cache_run(self):
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        engine.execute(QA)  # warm
        federation.get("EP1").available = False
        outcome = engine.execute(QA)
        assert outcome.status == "error"


class TestResultCaps:
    """Real public endpoints truncate large results (e.g. Virtuoso's
    10K-row cap).  Selective strategies survive; extent-fetchers lose
    rows — one reason the paper's Sec VI-D favors Lusail on live
    endpoints."""

    def _capped_lubm(self, cap):
        from repro.datasets import lubm

        federation = lubm.build_federation(3, seed=17)
        for endpoint in federation:
            endpoint.result_limit = cap
        return federation

    def test_lusail_correct_under_generous_cap(self):
        from collections import Counter

        from repro.datasets import lubm
        from repro.sparql import evaluate_select, parse_query

        federation = self._capped_lubm(cap=5000)
        uncapped = lubm.build_federation(3, seed=17)
        oracle = evaluate_select(
            uncapped.union_store(), parse_query(lubm.query_q4())
        )
        outcome = LusailEngine(federation).execute(lubm.query_q4())
        assert outcome.ok
        assert Counter(outcome.result.rows) == Counter(oracle.rows)

    def test_tight_cap_starves_extent_fetchers_more(self):
        """Under a tight cap, ANAPSID's full-extent fetches are truncated
        harder than Lusail's bound subqueries: Lusail retains at least as
        many correct rows."""
        from repro.datasets import lubm

        federation = self._capped_lubm(cap=60)
        lusail = LusailEngine(federation).execute(lubm.query_q4())
        anapsid = AnapsidEngine(federation).execute(lubm.query_q4())
        assert lusail.ok and anapsid.ok
        assert len(lusail.result) >= len(anapsid.result)

    def test_cap_visible_in_shipped_rows(self):
        from repro.datasets import lubm

        capped = self._capped_lubm(cap=3)
        free = lubm.build_federation(3, seed=17)
        capped_out = LusailEngine(capped).execute(lubm.query_q2())
        free_out = LusailEngine(free).execute(lubm.query_q2())
        assert capped_out.metrics.rows_shipped() < free_out.metrics.rows_shipped()
