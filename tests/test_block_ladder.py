"""Bound-join block size against a ladder of smaller blocks.

Phase two ships a delayed subquery's bindings in ``VALUES`` blocks of
``scheduler.MAX_BLOCK`` (500) bindings.  A request costs its endpoint a
fixed round trip, overhead and base evaluation, and rows cost the same
however the bindings are split, so no smaller block may be cheaper.
Each query runs with the block patched to 50, 100, 250 and 500 —
``scheduler.MAX_BLOCK`` only, so the cost rule's delay verdicts, which
read ``cost_model.MAX_BLOCK``, stay fixed.  Along the ladder the answer
must stay the union-store oracle's, the delay sets and rows shipped the
same, and virtual time and requests must not increase.

Covers the 17 LUBM queries (L1–L14, Q4–Q6) at ``scaled_profile(1)`` on
a warm engine and the LargeRDFBench paper selection at scale 1 on a
fresh engine per run (``largerdf_cold``); about 3 s in all.
"""

from collections import Counter
from dataclasses import dataclass
from unittest import mock

import pytest

from repro.core.engine import LusailEngine
from repro.core.execution import scheduler
from repro.datasets import largerdf, lubm, queries_largerdf, queries_lubm
from repro.planning.base_engine import parse_select
from repro.sparql import evaluate_select

LADDER = (50, 100, 250, 500)
#: Dataset -> (queries, warm engine).
DATASETS = {
    "LUBM": ({**queries_lubm.queries(), **lubm.crossing_queries()}, True),
    "LargeRDF": (queries_largerdf.paper_selection(), False),
}


@dataclass(frozen=True)
class Rung:
    block: int
    delayed: tuple[frozenset[int], ...]
    virtual_ms: float
    requests: int
    rows_shipped: int


def _federation(dataset: str):
    """The federation and its union store (the oracle's data)."""
    if dataset == "LUBM":
        federation = lubm.build_federation(2, lubm.scaled_profile(1), seed=1)
    else:
        federation = largerdf.build_federation(scale=1.0, seed=1, hub_scale=1.0)
    return federation, federation.union_store()


def _climb(federation, union, queries, warm: bool, name: str) -> tuple[Rung, ...]:
    """One run per block size, each checked against the oracle's answer."""
    query = parse_select(queries[name])
    expected = Counter(evaluate_select(union, query).rows)
    sliced = query.limit is not None or bool(query.offset)
    engine = LusailEngine(federation)
    if warm:
        engine.execute(query)
    rungs = []
    for block in LADDER:
        with mock.patch.object(scheduler, "MAX_BLOCK", block):
            outcome = (engine if warm else LusailEngine(federation)).execute(query)
        assert outcome.ok, (name, block, outcome.error)
        if sliced:  # any window is an answer: compare its size
            assert len(outcome.result) == sum(expected.values()), (name, block)
        else:
            assert Counter(outcome.result.rows) == expected, (name, block)
        delayed = tuple(
            frozenset(sq.id for sq in branch.decomposition.required_subqueries() if sq.delayed)
            for branch in outcome.plan.branch_plans
            if branch.decomposition is not None
        )
        metrics = outcome.metrics
        rungs.append(
            Rung(block, delayed, metrics.virtual_ms, metrics.request_count(), metrics.rows_shipped())
        )
    return tuple(rungs)


@pytest.fixture(scope="module")
def ladder():
    """``(dataset, query name) -> rungs``, each query climbed once."""
    federations: dict[str, tuple] = {}
    climbed: dict[tuple[str, str], tuple[Rung, ...]] = {}

    def rungs(dataset: str, name: str) -> tuple[Rung, ...]:
        if (dataset, name) not in climbed:
            if dataset not in federations:
                federations[dataset] = _federation(dataset)
            queries, warm = DATASETS[dataset]
            climbed[dataset, name] = _climb(*federations[dataset], queries, warm, name)
        return climbed[dataset, name]

    return rungs


@pytest.mark.parametrize(
    "dataset, name", [(dataset, name) for dataset, (queries, __) in DATASETS.items()
                      for name in sorted(queries)],
)
def test_no_smaller_block_is_cheaper(ladder, dataset, name):
    rungs = ladder(dataset, name)
    for smaller, larger in zip(rungs, rungs[1:]):
        assert larger.delayed == smaller.delayed, (smaller, larger)
        assert larger.rows_shipped == smaller.rows_shipped, (smaller, larger)
        assert larger.requests <= smaller.requests, (smaller, larger)
        assert larger.virtual_ms <= smaller.virtual_ms, (smaller, larger)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_the_ladder_reaches_a_split(ladder, dataset):
    """Somewhere a smaller block sends more requests: otherwise the
    ladder would test nothing."""
    queries, __ = DATASETS[dataset]
    assert any(
        ladder(dataset, name)[0].requests > ladder(dataset, name)[-1].requests
        for name in queries
    )
