"""Tests for SAPE's scheduler: delayed bound joins, source refinement,
optional groups, and the disjoint fast path."""

import math

import pytest

from repro.core.engine import LusailConfig, LusailEngine
from repro.core.execution import cost_model, scheduler
from repro.core.execution.cost_model import DelayPolicy
from repro.datasets import lubm, queries_lubm
from repro.net import metrics as metrics_module
from repro.obs.trace import Tracer

from tests.conftest import assert_same_bag, oracle_rows

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


@pytest.fixture(scope="module")
def federation():
    return lubm.build_federation(universities=3, seed=11)


@pytest.fixture(scope="module")
def lubm_scale1():
    return lubm.build_federation(2, lubm.scaled_profile(1), seed=1)


def _routed_requests(root) -> int:
    """Σ over bound subqueries and their sources of
    ⌈routed bindings / MAX_BLOCK⌉: the bound requests phase two sends."""
    return sum(
        math.ceil(routed / scheduler.MAX_BLOCK)
        for span in root.find("bound_subquery")
        for routed in span.attrs["routed_bindings"].values()
    )


class TestDisjointFastPath:
    def test_q2_executes_one_select_per_endpoint(self, federation):
        engine = LusailEngine(federation)
        outcome = engine.execute(lubm.query_q2())
        assert outcome.plan.branch_plans[0].decomposition.disjoint
        assert outcome.metrics.request_count(metrics_module.SELECT) == 3
        assert outcome.metrics.request_count(metrics_module.BOUND) == 0

    def test_disjoint_results_match_oracle(self, federation):
        outcome = LusailEngine(federation).execute(lubm.query_q2())
        assert_same_bag(outcome.result.rows, oracle_rows(federation, lubm.query_q2()))


class TestDelayedSubqueries:
    def test_q4_delays_the_name_subquery(self, federation):
        engine = LusailEngine(federation)
        outcome = engine.execute(lubm.query_q4())
        plan = outcome.plan.branch_plans[0].decomposition
        delayed = [sq for sq in plan.subqueries if sq.delayed]
        assert delayed, "the generic ?u ub:name ?n subquery should be delayed"
        name_subquery = max(plan.subqueries, key=lambda sq: sq.estimated_cardinality)
        assert name_subquery.delayed
        assert outcome.metrics.request_count(metrics_module.BOUND) > 0

    def test_q4_matches_oracle(self, federation):
        outcome = LusailEngine(federation).execute(lubm.query_q4())
        assert_same_bag(outcome.result.rows, oracle_rows(federation, lubm.query_q4()))

    def test_delayed_ships_fewer_rows_than_eager(self, federation):
        delayed_engine = LusailEngine(federation)
        eager_engine = LusailEngine(federation, config=LusailConfig(enable_delay=False))
        delayed_outcome = delayed_engine.execute(lubm.query_q4())
        eager_outcome = eager_engine.execute(lubm.query_q4())
        assert_same_bag(delayed_outcome.result.rows, eager_outcome.result.rows)
        assert delayed_outcome.metrics.rows_shipped() < eager_outcome.metrics.rows_shipped()

    def test_block_size_one_more_requests(self, lubm_scale1, monkeypatch):
        # Only the scheduler's block changes, so the delay verdicts stay
        # and the two runs differ only in how the routed bindings ship.
        text = queries_lubm.queries()["L10"]
        requests = {}
        for block in (scheduler.MAX_BLOCK, 1):
            monkeypatch.setattr(scheduler, "MAX_BLOCK", block)
            engine = LusailEngine(lubm_scale1)
            engine.tracer = Tracer(enabled=True)
            outcome = engine.execute(text)
            assert_same_bag(outcome.result.rows, oracle_rows(lubm_scale1, text))
            requests[block] = outcome.metrics.request_count(metrics_module.BOUND)
            assert requests[block] == _routed_requests(engine.tracer.roots[0])
        assert requests[1] > requests[500]

    def test_bound_blocks_hold_max_block_bindings_however_unselective(self, lubm_scale1):
        # L10's delayed subquery is estimated at ~15 rows per binding
        # (2182 for 140 bindings): its bindings still ship in blocks of
        # MAX_BLOCK, one request per block per source they are routed to.
        engine = LusailEngine(lubm_scale1)
        engine.tracer = Tracer(enabled=True)
        outcome = engine.execute(queries_lubm.queries()["L10"])
        (bound,) = engine.tracer.roots[0].find("bound_subquery")
        bindings = bound.attrs["bindings"]
        assert bound.attrs["estimated_cardinality"] > 10 * bindings > 10 * 50
        routed = bound.attrs["routed_bindings"]
        assert sorted(routed) == sorted(bound.attrs["endpoints"])
        assert bound.attrs["skipped_sources"] == [name for name, n in routed.items() if not n]
        blocks = bound.find("bound_block")
        assert len(blocks) == math.ceil(max(routed.values()) / scheduler.MAX_BLOCK)
        assert outcome.metrics.request_count(metrics_module.BOUND) == sum(
            math.ceil(n / scheduler.MAX_BLOCK) for n in routed.values()
        )

    def test_explain_prints_the_blocks_phase_two_ships(self, federation):
        text = LusailEngine(federation).explain(lubm.query_q4())
        assert "bound-join blocks: ≤500 bindings per source, routed by IRI authority" in text
        assert "adaptive" not in text

    def test_cost_rule_prices_the_block_size(self, federation, monkeypatch):
        # One binding per request makes binding the name subquery cost a
        # round trip per binding: the cost rule ships it whole instead.
        monkeypatch.setattr(cost_model, "MAX_BLOCK", 1)
        outcome = LusailEngine(federation).execute(lubm.query_q4())
        delays = outcome.plan.branch_plans[0].delays
        assert not delays.delayed_ids
        assert "ship-cheaper" in delays.reasons.values()
        assert outcome.metrics.request_count(metrics_module.BOUND) == 0
        assert_same_bag(outcome.result.rows, oracle_rows(federation, lubm.query_q4()))

    def test_empty_bindings_skip_remote_work(self, federation):
        # A selective pattern with no matches empties the eager phase;
        # the delayed subquery must not be evaluated remotely at all.
        text = UB_PREFIX + (
            "SELECT ?x ?n WHERE { ?x a ub:GraduateStudent . "
            '?x ub:name "no-such-student" . ?x ub:advisor ?y . ?y ub:name ?n }'
        )
        engine = LusailEngine(federation)
        outcome = engine.execute(text)
        assert outcome.ok and len(outcome.result) == 0


class TestSourceRefinement:
    def test_generic_pattern_refined(self, federation):
        # ?u ?p ?n with a variable predicate is relevant everywhere; with
        # refinement it should only hit endpoints that hold the bindings.
        text = UB_PREFIX + (
            "SELECT ?y ?u ?n WHERE { ?y ub:doctoralDegreeFrom ?u . ?u ?p ?n . }"
        )
        refined = LusailEngine(federation, config=LusailConfig(refine_sources=True))
        unrefined = LusailEngine(federation, config=LusailConfig(refine_sources=False))
        refined_outcome = refined.execute(text)
        unrefined_outcome = unrefined.execute(text)
        assert_same_bag(refined_outcome.result.rows, unrefined_outcome.result.rows)
        assert refined_outcome.metrics.request_count(metrics_module.BOUND) <= (
            unrefined_outcome.metrics.request_count(metrics_module.BOUND)
        )


class TestOptionalGroups:
    def test_optional_left_join(self, federation):
        text = UB_PREFIX + (
            "SELECT ?y ?u ?n WHERE { ?x ub:advisor ?y . ?y ub:doctoralDegreeFrom ?u "
            "OPTIONAL { ?u ub:name ?n } }"
        )
        outcome = LusailEngine(federation).execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(federation, text))
        # Remote alma maters resolve through OPTIONAL; local ones too.
        assert any(row[2] is not None for row in outcome.result.rows)

    def test_optional_subqueries_marked_delayed(self, federation):
        text = UB_PREFIX + (
            "SELECT ?y ?u ?n WHERE { ?x ub:advisor ?y . ?y ub:doctoralDegreeFrom ?u "
            "OPTIONAL { ?u ub:name ?n } }"
        )
        plan = LusailEngine(federation).execute(text).plan.branch_plans[0].decomposition
        optional_subqueries = [sq for sq in plan.subqueries if sq.optional_group is not None]
        assert optional_subqueries and all(sq.delayed for sq in optional_subqueries)

    def test_optional_with_filter(self, federation):
        text = UB_PREFIX + (
            "SELECT ?x ?u ?n WHERE { ?x ub:undergraduateDegreeFrom ?u "
            'OPTIONAL { ?u ub:name ?n FILTER (?n != "University0") } }'
        )
        outcome = LusailEngine(federation).execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(federation, text))


class TestMediatorAccounting:
    def test_join_cost_reflected_in_execution_phase(self, federation):
        engine = LusailEngine(federation)
        outcome = engine.execute(lubm.query_q4())
        assert outcome.metrics.phase_ms["execution"] > 0

    def test_mediator_rows_tracked(self, federation):
        engine = LusailEngine(federation)
        outcome = engine.execute(lubm.query_q1())
        assert outcome.metrics.mediator_rows >= len(outcome.result)
