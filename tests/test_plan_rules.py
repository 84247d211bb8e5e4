"""The execution rules on the plan, forced one at a time.

The join order and phase two's next subquery are chosen at run time,
from measured relation sizes and bindings, by rules the planner records
on the frozen ``BranchPlan`` (``joins``, ``rank``, ``binding_source``).
Each test forces a rule with :func:`dataclasses.replace` through
:class:`tests.plan_forcing.ForcedPlanEngine` — every left-deep order of
a three-input mediator join, every order of phase two's delayed
subqueries, the widest binding source — and checks that every forced run returns the union-store
oracle's rows, that the trace shows the forced order ran, and that some
order moves the join cost or the virtual time, so the field is obeyed.

LargeRDF at scale 1 (seed 1): B7 joins three eager components, and
phase two's measured rank reverses the planned C(sq) order on S4, C2,
B1 (both branches) and B8; S1, C1, C2 and C3 bind a subquery that two
components connect to.  QFed: each C2P2 query joins three.
"""

from itertools import permutations

import pytest

from repro.datasets import largerdf, qfed, queries_largerdf
from repro.obs.trace import Tracer
from tests.conftest import assert_same_bag, oracle_rows
from tests.plan_forcing import ForcedPlanEngine, join_order, most_bindings, phase_two_order


@pytest.fixture(scope="module")
def largerdf_scale1():
    return largerdf.build_federation(scale=1.0, seed=1, hub_scale=1.0)


def _traced(federation, text, force=None):
    engine = ForcedPlanEngine(federation, force=force)
    engine.tracer = Tracer(enabled=True)
    outcome = engine.execute(text)
    assert outcome.ok, outcome.error
    return outcome, engine.tracer.roots[0]


def _join_orders(root) -> list[list[int]]:
    """The order of every multi-way mediator join, as it ran."""
    return [span.attrs["join_order"] for span in root.walk() if "join_order" in span.attrs]


def _join_cost(root) -> float:
    return sum(span.attrs["join_cost_units"] for span in root.find("execution"))


def _every_join_order(federation, text):
    oracle = oracle_rows(federation, text)
    planned, root = _traced(federation, text)
    assert [len(order) for order in _join_orders(root)] == [3]
    seen = {(_join_cost(root), planned.metrics.virtual_ms)}
    for order in permutations(range(3)):
        outcome, root = _traced(federation, text, join_order(order))
        assert _join_orders(root) == [list(order)]
        assert_same_bag(outcome.result.rows, oracle)
        seen.add((_join_cost(root), outcome.metrics.virtual_ms))
    # The forced trees cost differently: the rule is obeyed.
    assert len(seen) > 1


def test_every_join_order_on_largerdf_b7(largerdf_scale1):
    _every_join_order(largerdf_scale1, queries_largerdf.all_queries()["B7"])


@pytest.mark.parametrize("name", sorted(qfed.queries()))
def test_every_join_order_on_qfed_c2p2(qfed_federation, name):
    _every_join_order(qfed_federation, qfed.queries()[name])


def _phase_two_runs(root) -> list[list[int]]:
    """Per branch, the subqueries phase two ran, in order."""
    return [
        [child.attrs["subquery"] for child in span.children if "subquery" in child.attrs]
        for span in root.find("phase2")
    ]


@pytest.mark.parametrize("name", ["S4", "C2", "B1", "B8"])
def test_every_phase_two_order_on_largerdf(largerdf_scale1, name):
    text = queries_largerdf.all_queries()[name]
    oracle = oracle_rows(largerdf_scale1, text)
    planned, root = _traced(largerdf_scale1, text)
    runs = _phase_two_runs(root)
    delayed = sorted({subquery for run in runs for subquery in run})
    assert len(delayed) == 2 and all(len(run) == 2 for run in runs)
    # The measured rank is not the planned C(sq) order.
    for run, plan in zip(runs, planned.plan.branch_plans):
        assert run != sorted(run, key=plan.delays.cardinalities.get)
    seen = {planned.metrics.virtual_ms}
    for order in permutations(delayed):
        outcome, root = _traced(largerdf_scale1, text, phase_two_order(order))
        assert _phase_two_runs(root) == [list(order)] * len(runs)
        assert_same_bag(outcome.result.rows, oracle)
        seen.add(outcome.metrics.virtual_ms)
    assert len(seen) > 1


def _bound_bindings(root) -> list[int]:
    return [span.attrs["bindings"] for span in root.find("bound_subquery")]


@pytest.mark.parametrize("name", ["S1", "C1", "C2", "C3"])
def test_the_widest_binding_source_on_largerdf(largerdf_scale1, name):
    text = queries_largerdf.all_queries()[name]
    planned, planned_root = _traced(largerdf_scale1, text)
    outcome, root = _traced(largerdf_scale1, text, most_bindings)
    assert_same_bag(outcome.result.rows, oracle_rows(largerdf_scale1, text))
    # The bound joins took more bindings from the other component.
    assert sum(_bound_bindings(root)) > sum(_bound_bindings(planned_root))


def test_explain_names_each_rule_and_its_planned_inputs(qfed_federation):
    text = qfed.queries()["C2P2"]
    engine = ForcedPlanEngine(qfed_federation)
    rules = {
        line.split(": ")[0].strip(): line.split(": ", 1)[1]
        for line in engine.explain(text).splitlines()
        if line.startswith(("  join order: ", "  phase-two rank: ", "  binding source: "))
    }
    assert rules["join order"].startswith("plan_joins, distinct {0:?")
    assert rules["phase-two rank"].startswith("most_selective_first, cardinalities {0=")
    assert rules["binding source"] == "fewest_bindings, no planned input"
    # A replaced rule is what explain names.
    engine.force = join_order((2, 1, 0))
    assert "  join order: left_deep, no planned input" in engine.explain(text)
    engine.force = phase_two_order((1, 0))
    assert "  phase-two rank: fixed, cardinalities {0=" in engine.explain(text)
