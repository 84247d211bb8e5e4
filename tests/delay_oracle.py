"""Exhaustive delay-regret oracle for SAPE's delay decision.

For one query, run the engine's own delay decision, then every delay
set of each branch's required subqueries, each forced onto the plan by
wrapping ``repro.core.engine.decide_delays`` for the duration of one
execution (``src/`` has no switch for it).  The set that delays every
required subquery is left out: phase one needs an eager subquery, and
the engine never plans that.  OPTIONAL subqueries keep the engine's
decision.

A UNION is enumerated one branch at a time: the wrapper counts the
``decide_delays`` calls of the execution (one per branch that has
sources, in branch order), forces the chosen branch's set and leaves
every other branch at the engine's verdict.

The measure is the deterministic virtual time of one execution, on a
warm engine (the query runs once first, so the ASK / COUNT / check
caches hold what every later run reads — the ledger's ``lubm_*``
workloads) or on a fresh engine per run (``largerdf_cold``).  Either
way the runs differ only in what the delay set ships.  Regret is the
heuristic's virtual time over the best run's.

Used by ``tests/test_delay_regret.py`` (the tier-1 bounds) and
``benchmarks/bench_delay_regret.py`` (the committed table).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from unittest import mock

import repro.core.engine as engine_module
from repro.core.engine import LusailEngine
from repro.endpoint.federation import Federation
from repro.planning.base_engine import parse_select


@dataclass(frozen=True)
class DelayRun:
    """One execution under one delay set per branch."""

    #: The delayed required subquery ids of each branch that has sources.
    delayed: tuple[frozenset[int], ...]
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
    #: Why the query was not enumerated (no branch has sources), else
    #: ``None``.
    skipped: str | None = None
    runs: tuple[DelayRun, ...] = ()

    @property
    def best(self) -> DelayRun:
        # Ties go to the heuristic's own sets, then to fewer delays.
        return min(
            self.runs,
            key=lambda run: (
                run.virtual_ms,
                run.delayed != self.heuristic.delayed,
                sum(map(len, run.delayed)),
                [sorted(ids) for ids in run.delayed],
            ),
        )

    @property
    def ratio(self) -> float:
        return self.heuristic.virtual_ms / self.best.virtual_ms


def forced_delays(delayed: frozenset[int], branch: int = 0):
    """A patch that makes the engine's delay decision delay exactly
    ``delayed`` among the required subqueries of the ``branch``-th
    planned branch of one execution."""
    decide = engine_module.decide_delays
    calls = count()

    def forcing(subqueries, *args, **kwargs):
        decision = decide(subqueries, *args, **kwargs)
        if next(calls) != branch:
            return decision
        for subquery in subqueries:
            if subquery.optional_group is None:
                subquery.delayed = subquery.id in delayed
        decision.delayed_ids = {sq.id for sq in subqueries if sq.delayed}
        return decision

    return mock.patch.object(engine_module, "decide_delays", forcing)


def _run(engine: LusailEngine, text: str) -> tuple[DelayRun, list]:
    outcome = engine.execute(text)
    assert outcome.ok, outcome.error
    planned = [
        branch.decomposition
        for branch in outcome.plan.branch_plans
        if branch.decomposition is not None
    ]
    delayed = tuple(
        frozenset(sq.id for sq in plan.required_subqueries() if sq.delayed)
        for plan in planned
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
    return run, planned


def delay_regret(
    federation: Federation, name: str, text: str, warm: bool = True
) -> DelayRegret:
    """Run the heuristic and, branch by branch, every proper subset of
    the branch's required subqueries as its delay set, on one warmed
    engine or (``warm=False``) on a fresh engine per run."""
    engine = LusailEngine(federation)

    def run() -> tuple[DelayRun, list]:
        return _run(engine if warm else LusailEngine(federation), text)

    if warm:
        run()
    heuristic, planned = run()
    if not planned:
        return DelayRegret(name, heuristic, "no source for a required pattern")
    runs = []
    for branch, plan in enumerate(planned):
        required = [sq.id for sq in plan.required_subqueries()]
        for size in range(len(required)):
            for delayed in combinations(required, size):
                with forced_delays(frozenset(delayed), branch):
                    forced, __ = run()
                expected = list(heuristic.delayed)
                expected[branch] = frozenset(delayed)
                assert forced.delayed == tuple(expected), (name, branch, delayed)
                assert forced.answer == heuristic.answer, (name, branch, delayed)
                runs.append(forced)
    return DelayRegret(name, heuristic, runs=tuple(runs))
