"""Tests for the auxiliary features: multi-query optimization, plan
explanation, federation persistence, and the CLI."""

import pytest

from repro.core.engine import LusailEngine
from repro.core.mqo import MultiQueryExecutor, SharedSubqueryCache
from repro.datasets import lubm
from repro.datasets.io import load_federation, save_federation
from repro.endpoint.client import FederationClient

from tests.conftest import QA, assert_same_bag, build_paper_federation, oracle_rows

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


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
        engine = LusailEngine(paper_federation)
        batch = MultiQueryExecutor(engine).execute_batch(self.queries())
        solo_engine = LusailEngine(build_paper_federation())
        for outcome, text in zip(batch.outcomes, self.queries()):
            solo = solo_engine.execute(text)
            assert_same_bag(outcome.result.rows, solo.result.rows)

    def test_sharing_reduces_requests(self, paper_federation):
        shared_engine = LusailEngine(paper_federation)
        batch = MultiQueryExecutor(shared_engine).execute_batch(self.queries())
        unshared_engine = LusailEngine(build_paper_federation())
        unshared = sum(
            unshared_engine.execute(text).metrics.request_count()
            for text in self.queries()
        )
        assert batch.shared_hits > 0
        assert batch.total_requests < unshared

    def test_interleaved_batches_keep_their_own_cache(self):
        # A second executor running a whole batch in the middle of the
        # first one's must neither disable nor cross-wire its sharing.
        solo = MultiQueryExecutor(LusailEngine(build_paper_federation())).execute_batch(
            self.queries()
        )
        assert solo.shared_hits > 0
        outer_engine = LusailEngine(build_paper_federation())
        inner_engine = LusailEngine(build_paper_federation())
        inner_batches = []

        def nest_then_build(**kwargs):
            # The client seam runs at the start of every execution: the
            # outer batch's second query finds a whole inner batch done.
            if outer_engine.stats.queries_executed == 1 and not inner_batches:
                inner_batches.append(
                    MultiQueryExecutor(inner_engine).execute_batch(self.queries())
                )
            return FederationClient(**kwargs)

        outer_engine.client_factory = nest_then_build
        outer = MultiQueryExecutor(outer_engine).execute_batch(self.queries())
        for batch in (outer, inner_batches[0]):
            assert (batch.shared_hits, batch.shared_misses, batch.total_requests) == (
                solo.shared_hits,
                solo.shared_misses,
                solo.total_requests,
            )

    def test_batch_leaves_engine_untouched(self, paper_federation):
        # The batch reaches its cache through its own engine value.
        engine = LusailEngine(paper_federation)
        before = {name: id(value) for name, value in vars(engine).items()}
        batch = MultiQueryExecutor(engine).execute_batch(self.queries())
        assert batch.shared_hits > 0
        assert {name: id(value) for name, value in vars(engine).items()} == before
        assert engine.stats.queries_executed == len(self.queries())
        # ...and a later plain execution shares nothing.
        assert engine.execute(QA).plan.branch_plans[0].strategy.reason != (
            batch.outcomes[0].plan.branch_plans[0].strategy.reason
        )

    def test_cache_key_distinguishes_sources(self):
        from repro.core.decomposition.subquery import Subquery
        from repro.rdf import UB, TriplePattern, Variable

        pattern = TriplePattern(Variable("s"), UB.advisor, Variable("p"))
        one = Subquery(0, (pattern,), ("EP1",))
        two = Subquery(1, (pattern,), ("EP1", "EP2"))
        cache = SharedSubqueryCache()
        assert cache.key(one) != cache.key(two)

    def test_cache_key_ignores_variable_names(self):
        # The canonical-skeleton matcher collapses subqueries that differ
        # only in variable naming onto one key (what the raw structural
        # key used to miss).
        from repro.core.decomposition.subquery import Subquery
        from repro.core.mqo import SubqueryMatcher
        from repro.rdf import UB, TriplePattern, Variable

        one = Subquery(0, (TriplePattern(Variable("s"), UB.advisor, Variable("p")),), ("EP1",))
        two = Subquery(1, (TriplePattern(Variable("x"), UB.advisor, Variable("y")),), ("EP1",))
        matcher = SubqueryMatcher()
        assert matcher.key(one) == matcher.key(two)
        # Constants stay part of the key (as lifted VALUES data).
        three = Subquery(
            2, (TriplePattern(Variable("s"), UB.advisor, UB.Professor0),), ("EP1",)
        )
        assert matcher.key(one) != matcher.key(three)

    def test_shared_relation_renamed_across_queries(self, paper_federation):
        # Two subqueries with different variable names share one fetched
        # relation; the reuse arrives under the requester's own names.
        from repro.core.decomposition.subquery import Subquery
        from repro.rdf import UB, TriplePattern, Variable
        from repro.relational.relation import Relation

        cache = SharedSubqueryCache()
        producer = Subquery(
            0, (TriplePattern(Variable("s"), UB.advisor, Variable("p")),), ("EP1",)
        )
        consumer = Subquery(
            1, (TriplePattern(Variable("x"), UB.advisor, Variable("y")),), ("EP1",)
        )
        endpoint = next(iter(paper_federation))
        result = endpoint.select(producer.to_select((Variable("s"), Variable("p"))))
        cache.put(producer, Relation.from_result(result))
        reused = cache.get(consumer, (Variable("x"), Variable("y")))
        assert reused is not None
        assert [v.name for v in reused.vars] == ["x", "y"]
        assert sorted(map(repr, reused.rows)) == sorted(map(repr, result.rows))
        assert cache.hits == 1


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
        engine = LusailEngine(federation, config=LusailConfig(enable_delay=False))
        text = engine.explain(lubm.query_q4())
        assert "delay decision: disabled" in text
        assert "[delayed" not in text and "bound-join blocks" not in text
        outcome = engine.execute(lubm.query_q4())
        assert outcome.plan.delayed_count == 0
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


class TestDecompositionChoice:
    """The paper's future work: compile-time decomposition selection."""

    def test_enumerate_yields_alternatives_for_qa(self, paper_federation):
        from repro.core.decomposition.decomposer import enumerate_decompositions
        from repro.core.decomposition.gjv import detect_gjvs
        from repro.endpoint import EngineCaches, FederationClient
        from repro.net.simulator import local_cluster_config
        from repro.planning.source_selection import select_sources
        from repro.planning.normalize import normalize
        from repro.sparql import parse_query

        branch = normalize(parse_query(QA)).branches[0]
        client = FederationClient(paper_federation, local_cluster_config(), EngineCaches())
        selection, __ = select_sources(client, list(branch.patterns), 0.0)
        gjvs, __ = detect_gjvs(client, list(branch.patterns), selection, 0.0)
        candidates = enumerate_decompositions(list(branch.patterns), gjvs, selection)
        assert len(candidates) >= 1
        # Every candidate covers every pattern exactly once.
        for groups in candidates:
            flattened = [p for group in groups for p in group]
            assert sorted(map(repr, flattened)) == sorted(map(repr, branch.patterns))

    def test_optimized_engine_matches_default_results(self, paper_federation):
        from collections import Counter
        from repro.core.engine import LusailConfig

        base = LusailEngine(paper_federation).execute(QA)
        optimized = LusailEngine(
            paper_federation, config=LusailConfig(optimize_decomposition=True)
        ).execute(QA)
        assert optimized.ok
        assert Counter(optimized.result.rows) == Counter(base.result.rows)

    def test_optimized_never_more_subqueries_than_worst_candidate(self, lubm4):
        from repro.core.engine import LusailConfig
        from repro.datasets import lubm

        engine = LusailEngine(lubm4, config=LusailConfig(optimize_decomposition=True))
        outcome = engine.execute(lubm.query_q4())
        assert outcome.ok
        assert outcome.plan.subquery_count >= 1
