"""Integration tests for the Lusail engine on the paper's running example
and small LUBM federations."""

import pytest

from repro.core.engine import LusailConfig, LusailEngine
from repro.core.execution.cost_model import DelayPolicy
from repro.endpoint import EngineCaches
from repro.exceptions import FederationError
from repro.net.simulator import geo_distributed_config
from repro.rdf import Literal
from repro.sparql import parse_query

from tests.conftest import QA, assert_same_bag, build_paper_federation, oracle_rows

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


class TestQaExample:
    def test_returns_the_three_paper_rows(self, lusail):
        outcome = lusail.execute(QA)
        assert outcome.ok
        students = sorted(row[0].local_name for row in outcome.result)
        assert students == ["Kim", "Kim", "Lee"]
        addresses = sorted(row[3].value for row in outcome.result)
        assert addresses == ["CCCC", "XXX", "XXX"]

    def test_matches_union_oracle(self, lusail, paper_federation):
        outcome = lusail.execute(QA)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, QA))

    def test_gjvs_are_p_and_u(self, lusail):
        assert lusail.execute(QA).plan.gjv_names == ["P", "U"]

    def test_decomposes_into_three_subqueries(self, lusail):
        assert lusail.execute(QA).plan.subquery_count == 3

    def test_tims_interlink_row_present(self, lusail):
        outcome = lusail.execute(QA)
        rows = {(r[0].local_name, r[1].local_name, r[2].local_name, r[3].value) for r in outcome.result}
        assert ("Kim", "Tim", "MIT", "XXX") in rows

    def test_phases_recorded(self, lusail):
        outcome = lusail.execute(QA)
        assert set(outcome.metrics.phase_ms) == {"source_selection", "analysis", "execution"}
        assert outcome.metrics.virtual_ms > 0

    def test_caching_reduces_requests_on_second_run(self, lusail):
        first = lusail.execute(QA)
        second = lusail.execute(QA)
        assert second.metrics.request_count("ask", "check", "count") == 0
        assert second.metrics.request_count() < first.metrics.request_count()
        assert second.metrics.virtual_ms < first.metrics.virtual_ms

    def test_disabled_caches_keep_probing(self, paper_federation):
        engine = LusailEngine(paper_federation, caches=EngineCaches.disabled())
        first = engine.execute(QA)
        second = engine.execute(QA)
        assert second.metrics.request_count("ask") == first.metrics.request_count("ask")


class TestQueryFeatures:
    def test_disjoint_query_single_subquery(self, lusail):
        text = UB_PREFIX + "SELECT ?s ?p WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }"
        outcome = lusail.execute(text)
        assert outcome.ok
        assert outcome.plan.subquery_count == 1
        assert outcome.plan.branch_plans[0].decomposition.disjoint

    def test_filter_pushed_to_endpoint(self, lusail, paper_federation):
        text = UB_PREFIX + 'SELECT ?u ?a WHERE { ?u ub:address ?a FILTER (?a = "XXX") }'
        outcome = lusail.execute(text)
        assert [row[1] for row in outcome.result] == [Literal("XXX")]

    def test_cross_subquery_filter_at_mediator(self, lusail, paper_federation):
        text = UB_PREFIX + (
            "SELECT ?s ?u WHERE { ?s ub:advisor ?p . ?p ub:PhDDegreeFrom ?u . "
            "?u ub:address ?a FILTER (?a != \"XXX\") }"
        )
        outcome = lusail.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_optional(self, lusail, paper_federation):
        text = UB_PREFIX + (
            "SELECT ?p ?u ?a WHERE { ?s ub:advisor ?p . ?p ub:PhDDegreeFrom ?u "
            "OPTIONAL { ?u ub:address ?a } }"
        )
        outcome = lusail.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_union(self, lusail, paper_federation):
        text = UB_PREFIX + (
            "SELECT ?x WHERE { { ?x ub:teacherOf ?c } UNION { ?x ub:PhDDegreeFrom ?u } }"
        )
        outcome = lusail.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_distinct(self, lusail, paper_federation):
        text = UB_PREFIX + "SELECT DISTINCT ?p WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }"
        outcome = lusail.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_limit_applied_after_full_evaluation(self, lusail):
        text = UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor ?p } LIMIT 2"
        outcome = lusail.execute(text)
        assert len(outcome.result) == 2

    def test_order_by(self, lusail):
        text = UB_PREFIX + "SELECT ?a WHERE { ?u ub:address ?a } ORDER BY ?a"
        outcome = lusail.execute(text)
        assert [row[0].value for row in outcome.result] == ["CCCC", "XXX"]

    def test_empty_answer_when_pattern_unmatched(self, lusail):
        text = UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor ?p . ?s ub:nonexistent ?x }"
        outcome = lusail.execute(text)
        assert outcome.ok and len(outcome.result) == 0

    def test_query_with_concrete_subject(self, lusail, paper_federation):
        text = UB_PREFIX + (
            "SELECT ?u ?a WHERE { <http://cmu.example.org/Tim> ub:PhDDegreeFrom ?u . "
            "?u ub:address ?a }"
        )
        outcome = lusail.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))
        assert outcome.result.rows[0][1] == Literal("XXX")


class TestFailureModes:
    def test_timeout_reported(self, paper_federation):
        engine = LusailEngine(paper_federation, timeout_ms=0.1)
        outcome = engine.execute(QA)
        assert outcome.status == "timeout"
        assert len(outcome.result) == 0

    def test_raise_on_failure(self, paper_federation):
        engine = LusailEngine(paper_federation, timeout_ms=0.1)
        with pytest.raises(FederationError):
            engine.execute(QA, raise_on_failure=True)

    def test_oom_reported(self, paper_federation):
        engine = LusailEngine(
            paper_federation, config=LusailConfig(max_mediator_rows=1)
        )
        outcome = engine.execute(QA)
        assert outcome.status == "oom"

    def test_unsupported_query_reported(self, paper_federation):
        engine = LusailEngine(paper_federation)
        text = UB_PREFIX + (
            "SELECT ?s WHERE { ?s ub:advisor ?p OPTIONAL { ?p ub:teacherOf ?c "
            "OPTIONAL { ?c ub:name ?n } } }"
        )
        outcome = engine.execute(text)
        assert outcome.status == "unsupported"

    def test_execute_leaves_the_engine_untouched_and_the_plan_on_the_outcome(
        self, paper_federation
    ):
        # What a query decided leaves on its outcome; the engine is the
        # same value afterwards, whatever the status (its ``stats`` object
        # counts the execution).
        done = LusailEngine(paper_federation).execute(QA)
        analysed_ms = done.plan.branch_plans[0].end_ms
        assert analysed_ms < done.metrics.virtual_ms
        nested = UB_PREFIX + (
            "SELECT ?s WHERE { ?s ub:advisor ?p OPTIONAL { ?p ub:teacherOf ?c "
            "OPTIONAL { ?c ub:name ?n } } }"
        )
        cases = {
            "ok": (LusailEngine(paper_federation), QA),
            "oom": (LusailEngine(paper_federation, config=LusailConfig(max_mediator_rows=1)), QA),
            # Past analysis, before the answer.
            "timeout": (
                LusailEngine(
                    paper_federation,
                    timeout_ms=(analysed_ms + done.metrics.virtual_ms) / 2,
                ),
                QA,
            ),
            "unsupported": (LusailEngine(paper_federation), nested),
        }
        for status, (engine, text) in cases.items():
            before = {name: id(value) for name, value in vars(engine).items()}
            outcome = engine.execute(text)
            assert outcome.status == status
            assert {name: id(value) for name, value in vars(engine).items()} == before
            assert engine.stats.queries_executed == 1
            assert outcome.audit is not None
            if status == "unsupported":  # refused before any branch was analysed
                assert outcome.plan.branch_plans == []
                continue
            (branch_plan,) = outcome.plan.branch_plans
            assert branch_plan.strategy.strategy == "bound-join"
            assert outcome.plan.subquery_count == 3
            assert outcome.plan.gjv_names == ["P", "U"]

    def test_ask_query_string_rejected(self, paper_federation):
        from repro.exceptions import UnsupportedQueryError

        engine = LusailEngine(paper_federation)
        text = UB_PREFIX + "ASK { ?s ub:advisor ?p }"
        # Text or parsed, executed or explained: a typed refusal.
        for query in (text, parse_query(text)):
            with pytest.raises(UnsupportedQueryError):
                engine.execute(query)
            with pytest.raises(UnsupportedQueryError):
                engine.explain(query)


class TestConfigurations:
    @pytest.mark.parametrize("decomposition", ["lade", "exclusive", "triple"])
    def test_all_decompositions_correct(self, paper_federation, decomposition):
        engine = LusailEngine(
            paper_federation, config=LusailConfig(decomposition=decomposition)
        )
        outcome = engine.execute(QA)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, QA))

    def test_lade_fewer_subqueries_than_per_triple(self, paper_federation):
        lade = LusailEngine(paper_federation).execute(QA)
        triple = LusailEngine(
            paper_federation, config=LusailConfig(decomposition="triple")
        ).execute(QA)
        assert lade.plan.subquery_count < triple.plan.subquery_count

    @pytest.mark.parametrize("policy", list(DelayPolicy))
    def test_all_delay_policies_correct(self, paper_federation, policy):
        engine = LusailEngine(paper_federation, config=LusailConfig(delay_policy=policy))
        outcome = engine.execute(QA)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, QA))

    def test_no_delay_config(self, paper_federation):
        engine = LusailEngine(paper_federation, config=LusailConfig(enable_delay=False))
        outcome = engine.execute(QA)
        assert outcome.ok
        assert outcome.plan.delayed_count == 0

    def test_greedy_join_order_correct(self, paper_federation):
        engine = LusailEngine(
            paper_federation, config=LusailConfig(greedy_join_order=True)
        )
        outcome = engine.execute(QA)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, QA))

    def test_with_config_builds_variant(self, lusail):
        variant = lusail.with_config(enable_delay=False)
        assert variant.config.enable_delay is False
        assert variant.config.decomposition == lusail.config.decomposition

    def test_geo_config_slower(self, paper_federation):
        local = LusailEngine(paper_federation).execute(QA)
        geo_fed = build_paper_federation()
        from repro.net import regions

        for index, endpoint in enumerate(geo_fed):
            endpoint.region = regions.assign_regions(2)[index]
        geo = LusailEngine(geo_fed, network_config=geo_distributed_config()).execute(QA)
        assert geo.metrics.virtual_ms > local.metrics.virtual_ms * 5
        assert_same_bag(geo.result.rows, local.result.rows)
