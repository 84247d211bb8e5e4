"""Forcing a planning decision in a test by replacing a plan field.

Every decision the scheduler obeys is a field of the frozen
``BranchPlan``:

- ``delays``: which subqueries phase two binds (``delayed_ids``) and
  each one's C(sq) (``cardinalities``);
- ``block_size``: the bindings per bound-join ``VALUES`` block;
- ``strategy``: which scheduler runs the branch;
- ``routes``: where each binding may go;
- ``joins``: the mediator's join order and the distinct-value bounds its
  estimator reads (:func:`join_order` forces a tree);
- ``rank``: phase two's next subquery, and the OPTIONAL subqueries'
  order (:func:`phase_two_order` forces one);
- ``binding_source``: the component a bound subquery takes its bindings
  from (:func:`most_bindings` forces the widest).

A test forces one with :func:`dataclasses.replace` on the plan the
engine made, through :class:`ForcedPlanEngine`, and never by patching
module state: ``src/`` has no hook for it and needs none.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable

from repro.core.engine import BranchPlan, LusailEngine
from repro.core.execution.join_order import JoinPlanNode

#: ``BranchPlan -> BranchPlan``: what a test does to each planned branch.
Force = Callable[[BranchPlan], BranchPlan]


class ForcedPlanEngine(LusailEngine):
    """A :class:`LusailEngine` whose branch plans pass through ``force``
    before they run (and before ``explain`` renders them)."""

    def __init__(self, *args, force: Force | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``None`` runs the engine's own plans; assignable between runs.
        self.force = force

    def plan_branch(self, client, branch, normalized) -> BranchPlan:
        plan = super().plan_branch(client, branch, normalized)
        return plan if self.force is None else self.force(plan)


def block_size(size: int) -> Force:
    """Ship every bound join in blocks of ``size`` bindings; the delay
    verdicts, priced at the planner's block, stay as planned."""
    return lambda plan: replace(plan, block_size=size)


def join_order(order: tuple[int, ...]) -> Force:
    """Join every multi-way mediator join of as many inputs as ``order``
    left-deep, its inputs taken in ``order`` (positions among the join's
    inputs); other joins keep the planned rule."""

    def force(plan: BranchPlan) -> BranchPlan:
        if plan.joins is None:  # the branch has no sources
            return plan
        planned = plan.joins

        def left_deep(relations, subqueries=()) -> JoinPlanNode:
            if len(relations) != len(order):
                return planned(relations, subqueries)
            root = None
            for index in order:
                leaf = JoinPlanNode(frozenset((index,)), 0.0, 1, 0.0, base_index=index)
                root = leaf if root is None else JoinPlanNode(
                    root.relations | leaf.relations, 0.0, 1, 0.0, left=root, right=leaf
                )
            return root

        return replace(plan, joins=left_deep)

    return force


def phase_two_order(order: tuple[int, ...]) -> Force:
    """Run phase two's delayed subqueries in ``order`` (subquery ids),
    whatever bindings are measured; subqueries ``order`` does not name
    follow, by C(sq)."""
    position = {subquery_id: index for index, subquery_id in enumerate(order)}

    def fixed(candidates, cardinalities):
        return sorted(
            candidates,
            key=lambda item: (position.get(item[0].id, len(position)), cardinalities[item[0].id]),
        )

    return lambda plan: plan if plan.rank is None else replace(
        plan, rank=partial(fixed, **plan.rank.keywords)
    )


def most_bindings(plan: BranchPlan) -> BranchPlan:
    """Take each bound subquery's bindings from the connected component
    with the most of them, not the fewest."""
    if plan.binding_source is None:
        return plan
    planned = plan.binding_source

    def widest(components, variables):
        found = [planned([component], variables) for component in components]
        return max((b for b in found if b is not None), key=lambda b: len(b[1]), default=None)

    return replace(plan, binding_source=widest)


def serving_engines(server, force: Force):
    """An ``engine_factory`` for ``server`` that builds its default engine
    as a :class:`ForcedPlanEngine`."""

    def factory() -> ForcedPlanEngine:
        return ForcedPlanEngine(
            server.federation,
            network_config=server.network_config,
            caches=server.caches,
            timeout_ms=None,
            force=force,
        )

    return factory
