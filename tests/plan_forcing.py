"""Forcing a planning decision in a test by replacing a plan field.

Every decision the scheduler obeys — which subqueries phase two binds
(``BranchPlan.delays``), the bound-join block (``BranchPlan.block_size``),
the strategy, where each binding may go (``BranchPlan.routes``) and the
join hints' distinct bounds (``BranchPlan.estimates``) — is a field of
the frozen ``BranchPlan``.  A test forces one
with :func:`dataclasses.replace` on the plan the engine made, through
:class:`ForcedPlanEngine`, and never by patching module state: ``src/``
has no hook for it and needs none.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.core.engine import BranchPlan, LusailEngine

#: ``BranchPlan -> BranchPlan``: what a test does to each planned branch.
Force = Callable[[BranchPlan], BranchPlan]


class ForcedPlanEngine(LusailEngine):
    """A :class:`LusailEngine` whose branch plans pass through ``force``
    before they run (and before ``explain`` renders them)."""

    def __init__(self, *args, force: Force | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``None`` runs the engine's own plans; assignable between runs.
        self.force = force

    def _analyze_branch(self, client, branch, normalized) -> BranchPlan:
        plan = super()._analyze_branch(client, branch, normalized)
        return plan if self.force is None else self.force(plan)


def block_size(size: int) -> Force:
    """Ship every bound join in blocks of ``size`` bindings; the delay
    verdicts, priced at the planner's block, stay as planned."""
    return lambda plan: replace(plan, block_size=size)


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
