"""Exhaustive delay-regret oracle for SAPE's delay decision.

For one query, run the engine's own delay decision, then every delay
set of the branch's required subqueries, each forced onto the plan by
wrapping ``repro.core.engine.decide_delays`` for the duration of one
execution (``src/`` has no switch for it).  The set that delays every
required subquery is left out: phase one needs an eager subquery, and
the engine never plans that.  OPTIONAL subqueries keep the engine's
decision.

The measure is the deterministic virtual time of one execution, on a
warm engine (the query runs once first, so the ASK / COUNT / check
caches hold what every later run reads — the ledger's ``lubm_*``
workloads) or on a fresh engine per run (``largerdf_cold``).  Either
way the runs differ only in what the delay set ships.  Regret is the
heuristic's virtual time over the best set's.

Used by ``tests/test_delay_regret.py`` (the tier-1 bound) and
``benchmarks/bench_delay_regret.py`` (the committed table).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from unittest import mock

import repro.core.engine as engine_module
from repro.core.engine import LusailEngine
from repro.endpoint.federation import Federation
from repro.planning.base_engine import parse_select


@dataclass(frozen=True)
class DelayRun:
    """One execution under one delay set of the required subqueries."""

    delayed: frozenset[int]
    virtual_ms: float
    requests: int
    rows_shipped: int
    #: (rows, order-independent hash sum): every delay set must return
    #: the heuristic's answer.  Under LIMIT / OFFSET without ORDER BY
    #: any window is an answer, so only the row count is kept.
    answer: tuple[int, int]


@dataclass(frozen=True)
class DelayRegret:
    """The heuristic's run beside every other delay set's, for one query."""

    query: str
    heuristic: DelayRun
    #: Why the query was not enumerated (a UNION of several branches, or
    #: a branch without sources), else ``None``.
    skipped: str | None = None
    runs: tuple[DelayRun, ...] = ()

    @property
    def best(self) -> DelayRun:
        # Ties go to the heuristic's own set, then to the smaller set.
        return min(
            self.runs,
            key=lambda run: (
                run.virtual_ms,
                run.delayed != self.heuristic.delayed,
                len(run.delayed),
                sorted(run.delayed),
            ),
        )

    @property
    def ratio(self) -> float:
        return self.heuristic.virtual_ms / self.best.virtual_ms


def forced_delays(delayed: frozenset[int]):
    """A patch that makes the engine's delay decision delay exactly
    ``delayed`` among the required subqueries."""
    decide = engine_module.decide_delays

    def forcing(subqueries, *args, **kwargs):
        decision = decide(subqueries, *args, **kwargs)
        for subquery in subqueries:
            if subquery.optional_group is None:
                subquery.delayed = subquery.id in delayed
        decision.delayed_ids = {sq.id for sq in subqueries if sq.delayed}
        return decision

    return mock.patch.object(engine_module, "decide_delays", forcing)


def _run(engine: LusailEngine, text: str) -> tuple[DelayRun, list]:
    outcome = engine.execute(text)
    assert outcome.ok, outcome.error
    plan = outcome.plan.branch_plans
    delayed = frozenset(
        sq.id
        for branch in plan
        if branch.decomposition is not None
        for sq in branch.decomposition.subqueries
        if sq.delayed and sq.optional_group is None
    )
    query = parse_select(text)
    sliced = query.limit is not None or bool(query.offset)
    answer = 0 if sliced else sum(map(hash, outcome.result.rows)) & (2**64 - 1)
    metrics = outcome.metrics
    run = DelayRun(
        delayed,
        metrics.virtual_ms,
        metrics.request_count(),
        metrics.rows_shipped(),
        (len(outcome.result), answer),
    )
    return run, plan


def delay_regret(
    federation: Federation, name: str, text: str, warm: bool = True
) -> DelayRegret:
    """Run the heuristic and every proper subset of the required
    subqueries as the delay set, on one warmed engine or (``warm=False``)
    on a fresh engine per run."""
    engine = LusailEngine(federation)

    def run() -> tuple[DelayRun, list]:
        return _run(engine if warm else LusailEngine(federation), text)

    if warm:
        run()
    heuristic, plan = run()
    if len(plan) != 1:
        return DelayRegret(name, heuristic, f"{len(plan)} branches")
    if plan[0].decomposition is None:
        return DelayRegret(name, heuristic, "no source for a required pattern")
    required = [sq.id for sq in plan[0].decomposition.required_subqueries()]
    runs = []
    for size in range(len(required)):
        for delayed in combinations(required, size):
            with forced_delays(frozenset(delayed)):
                forced, __ = run()
            assert forced.delayed == frozenset(delayed), (name, delayed, forced.delayed)
            assert forced.answer == heuristic.answer, (name, delayed)
            runs.append(forced)
    return DelayRegret(name, heuristic, runs=tuple(runs))
