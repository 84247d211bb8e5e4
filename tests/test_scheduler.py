"""Tests for SAPE's scheduler: delayed bound joins, source refinement,
optional groups, and the disjoint fast path."""

import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from repro.core.engine import LusailConfig, LusailEngine
from repro.core.execution.cost_model import (
    MAX_BLOCK,
    DelayPolicy,
    RequestCosts,
    decide_delays,
)
from repro.core.execution.scheduler import BranchScheduler
from repro.datasets import lubm, queries_lubm
from repro.net import metrics as metrics_module
from repro.obs.trace import Tracer
from repro.planning.stats import CharsetStatisticsProvider, route

from tests.conftest import assert_same_bag, oracle_rows
from tests.plan_forcing import ForcedPlanEngine, block_size

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


@pytest.fixture(scope="module")
def federation():
    return lubm.build_federation(universities=3, seed=11)


@pytest.fixture(scope="module")
def lubm_scale1():
    return lubm.build_federation(2, lubm.scaled_profile(1), seed=1)


def _routed_requests(root, block: int) -> int:
    """Σ over bound subqueries and their sources of
    ⌈routed bindings / block⌉: the bound requests phase two sends."""
    return sum(
        math.ceil(routed / block)
        for span in root.find("bound_subquery")
        for routed in span.attrs["routed_bindings"].values()
    )


class PricedAtBlockOne(LusailEngine):
    """Plans as the planner would at one binding per request: the cost
    rule re-decides with that block, and the plan ships it."""

    def plan_branch(self, client, branch, normalized):
        plan = super().plan_branch(client, branch, normalized)
        decomposition = plan.decomposition
        costs = RequestCosts.of(
            client.config,
            client.federation,
            {ep for sq in decomposition.subqueries for ep in sq.sources},
        )
        delays = decide_delays(
            decomposition.subqueries,
            plan.estimates,
            projected=plan.needed_vars,
            policy=DelayPolicy.COST,
            costs=replace(costs, block=1),
        )
        return replace(plan, delays=delays, block_size=1)


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
        delays = outcome.plan.branch_plans[0].delays
        assert delays.delayed_ids, "the generic ?u ub:name ?n subquery should be delayed"
        name_subquery = max(delays.cardinalities, key=delays.cardinalities.get)
        assert name_subquery in delays.delayed_ids
        assert outcome.metrics.request_count(metrics_module.BOUND) > 0

    def test_q4_matches_oracle(self, federation):
        outcome = LusailEngine(federation).execute(lubm.query_q4())
        assert_same_bag(outcome.result.rows, oracle_rows(federation, lubm.query_q4()))

    def test_delayed_ships_fewer_rows_than_eager(self, federation):
        delayed_engine = LusailEngine(federation)
        eager_engine = LusailEngine(federation, config=LusailConfig(delay_policy=None))
        delayed_outcome = delayed_engine.execute(lubm.query_q4())
        eager_outcome = eager_engine.execute(lubm.query_q4())
        assert_same_bag(delayed_outcome.result.rows, eager_outcome.result.rows)
        assert delayed_outcome.metrics.rows_shipped() < eager_outcome.metrics.rows_shipped()

    def test_block_size_one_more_requests(self, lubm_scale1):
        # Only the plan's block changes, so the delay verdicts stay and
        # the two runs differ only in how the routed bindings ship.
        text = queries_lubm.queries()["L10"]
        requests = {}
        for block in (MAX_BLOCK, 1):
            engine = ForcedPlanEngine(lubm_scale1, force=block_size(block))
            engine.tracer = Tracer(enabled=True)
            outcome = engine.execute(text)
            assert_same_bag(outcome.result.rows, oracle_rows(lubm_scale1, text))
            requests[block] = outcome.metrics.request_count(metrics_module.BOUND)
            assert requests[block] == _routed_requests(engine.tracer.roots[0], block)
        assert requests[1] > requests[MAX_BLOCK]

    def test_bound_blocks_hold_max_block_bindings_however_unselective(self, lubm_scale1):
        # L10's delayed subquery is estimated at ~15 rows per binding
        # (2182 for 140 bindings): its bindings still ship in blocks of
        # the planned size, one request per block per source they are
        # routed to.
        engine = LusailEngine(lubm_scale1)
        engine.tracer = Tracer(enabled=True)
        outcome = engine.execute(queries_lubm.queries()["L10"])
        block = outcome.plan.branch_plans[0].block_size
        assert block == MAX_BLOCK
        (bound,) = engine.tracer.roots[0].find("bound_subquery")
        bindings = bound.attrs["bindings"]
        assert bound.attrs["estimated_cardinality"] > 10 * bindings > 10 * 50
        routed = bound.attrs["routed_bindings"]
        assert sorted(routed) == sorted(bound.attrs["endpoints"])
        assert bound.attrs["skipped_sources"] == [name for name, n in routed.items() if not n]
        blocks = bound.find("bound_block")
        assert len(blocks) == math.ceil(max(routed.values()) / block)
        assert outcome.metrics.request_count(metrics_module.BOUND) == sum(
            math.ceil(n / block) for n in routed.values()
        )

    def test_explain_prints_the_blocks_phase_two_ships(self, federation):
        text = LusailEngine(federation).explain(lubm.query_q4())
        assert "bound-join blocks: ≤500 bindings per source, routed by IRI authority" in text
        assert "adaptive" not in text
        forced = ForcedPlanEngine(federation, force=block_size(7)).explain(lubm.query_q4())
        assert "bound-join blocks: ≤7 bindings per source" in forced

    def test_cost_rule_prices_the_block_size(self, federation):
        # One binding per request makes binding the name subquery cost a
        # round trip per binding: the cost rule ships it whole instead.
        outcome = PricedAtBlockOne(federation).execute(lubm.query_q4())
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


#: The performance ledger's ``lubm_crossing`` queries.
CROSSING = ("Q4", "Q5", "Q6", "L1", "L3", "L4", "L7", "L8", "L10", "L11", "L12")


def _eager(plan):
    """The plan with no required subquery delayed."""
    required = {sq.id for sq in plan.decomposition.required_subqueries()}
    return replace(plan, delays=replace(plan.delays, delayed_ids=plan.delays.delayed_ids - required))


def _recording(force, ranked: list, joined: list):
    """``force``, then the plan's rank and join rules wrapped to append
    what each call chose: the subquery ranked first, the join order."""

    def record(plan):
        plan = plan if force is None else force(plan)
        rank, joins = plan.rank, plan.joins

        def ranking(candidates):
            order = rank(candidates)
            ranked.append(order[0][0].id)
            return order

        def ordering(relations, subqueries=()):
            tree = joins(relations, subqueries)
            joined.append(tree.order())
            return tree

        return replace(plan, rank=ranking, joins=ordering)

    return record


class TestThePlanIsWhatRan:
    """Phase two, read off the trace, does what the branch plan says and
    nothing else: it binds exactly the plan's delayed required subqueries
    (at this scale each has bindings), in the order the plan's rank rule
    chose, sends each source the bindings the plan's routes let through,
    in ``ceil(routed / block_size)`` blocks of the plan's block; every
    mediator join runs in the order the plan's join rule chose; and a
    plan forced by replacing a field changes the requests, never the
    answer."""

    @staticmethod
    def _run(federation, text, force=None):
        ranked, joined = [], []
        engine = ForcedPlanEngine(federation, force=_recording(force, ranked, joined))
        engine.tracer = Tracer(enabled=True)
        bound_calls = []
        run_bound = BranchScheduler._execute_bound_subquery

        def recorded(scheduler, subquery, bind_vars, rows, at_ms):
            bound_calls.append((subquery, bind_vars, rows))
            return run_bound(scheduler, subquery, bind_vars, rows, at_ms)

        with mock.patch.object(BranchScheduler, "_execute_bound_subquery", recorded):
            outcome = engine.execute(text)
        assert outcome.ok, outcome.error
        (plan,) = outcome.plan.branch_plans
        root = engine.tracer.roots[0]
        required = {sq.id for sq in plan.decomposition.required_subqueries()}
        spans = root.find("bound_subquery")
        assert {span.attrs["subquery"] for span in spans} == plan.delays.delayed_ids & required
        assert len(bound_calls) == len(spans)
        assert [span.attrs["subquery"] for span in spans] == ranked
        ran = [span.attrs["join_order"] for span in root.walk() if "join_order" in span.attrs]
        assert ran == joined
        for span, (subquery, bind_vars, rows) in zip(spans, bound_calls):
            assert span.attrs["subquery"] == subquery.id
            planned = route(plan.routes[subquery.id], subquery.sources, bind_vars, rows)
            assert span.attrs["routed_bindings"] == {ep: len(r) for ep, r in planned.items()}
            routed = max(span.attrs["routed_bindings"].values(), default=0)
            assert len(span.find("bound_block")) == math.ceil(routed / plan.block_size)
        bound = outcome.metrics.request_count(metrics_module.BOUND)
        assert bound == _routed_requests(root, plan.block_size)
        return Counter(outcome.result.rows), bound

    @pytest.mark.parametrize("name", CROSSING)
    def test_the_plan_is_what_ran(self, lubm_scale1, name):
        text = {**queries_lubm.queries(), **lubm.crossing_queries()}[name]
        answer, bound = self._run(lubm_scale1, text)
        assert bound > 0
        assert self._run(lubm_scale1, text, block_size(1))[0] == answer
        assert self._run(lubm_scale1, text, _eager) == (answer, 0)

    def test_a_smaller_block_sends_more_requests(self, lubm_scale1):
        text = queries_lubm.queries()["L10"]
        __, planned = self._run(lubm_scale1, text)
        __, forced = self._run(lubm_scale1, text, block_size(1))
        assert forced > planned


class _WatchedProvider(CharsetStatisticsProvider):
    """Logs each public method called on it, with the engine's phase."""

    def __init__(self, client, engine):
        super().__init__(client)
        self._engine = engine

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if not name.startswith("_") and callable(value):
            engine = object.__getattribute__(self, "_engine")
            engine.calls.append((engine.phase, name))
        return value

    def distinct_values(self, subquery, variable):
        self._engine.distinct.append((self._engine.branch, subquery.id, variable))
        return super().distinct_values(subquery, variable)


class _WatchingEngine(LusailEngine):
    """Records every statistics question and whether a branch was being
    planned or run when it was asked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls, self.distinct = [], []
        self.phase, self.branch = "run", -1

    def build_client(self, *args, **kwargs):
        client = super().build_client(*args, **kwargs)
        client.stats = _WatchedProvider(client, self)
        return client

    def plan_branch(self, client, branch, normalized):
        self.phase, self.branch = "plan", self.branch + 1
        try:
            return super().plan_branch(client, branch, normalized)
        finally:
            self.phase = "run"


class TestExecutionAsksNoStatistics:
    """The scheduler reads routes and distinct bounds off the plan: every
    statistics question is asked while a branch is planned, and the
    distinct bound of a (subquery, variable) at most once."""

    @pytest.mark.parametrize("strategy", ["bound-join", "partial"])
    def test_statistics_answer_planning_only(self, lubm_scale1, strategy):
        queries = {**queries_lubm.queries(), **lubm.crossing_queries()}
        for name in CROSSING:
            engine = _WatchingEngine(lubm_scale1, config=LusailConfig(strategy=strategy))
            outcome = engine.execute(queries[name])
            assert outcome.ok, (name, outcome.error)
            assert_same_bag(outcome.result.rows, oracle_rows(lubm_scale1, queries[name]))
            assert {phase for phase, __ in engine.calls} == {"plan"}, name
            assert engine.distinct, name
            assert len(engine.distinct) == len(set(engine.distinct)), name


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
        branch = LusailEngine(federation).execute(text).plan.branch_plans[0]
        optional_ids = {
            sq.id for sq in branch.decomposition.subqueries if sq.optional_group is not None
        }
        assert optional_ids and optional_ids <= branch.delays.delayed_ids

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
