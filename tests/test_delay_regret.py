"""SAPE's delay decision against every delay set it could have made.

For each of the 17 LUBM queries (L1–L14 and the crossing Q4–Q6) on a
two-endpoint federation, the heuristic's virtual time must be within 1%
of the best delay set of the required subqueries
(:mod:`tests.delay_oracle`, warm engine).  This is the check that
catches a rule which keeps large subqueries eager: LUBM Q6 shipped both
of its name subqueries whole, ≈6x the best set at this scale, because
Chauvenet's rejection of the small subquery left the survivors' mean
equal to the large ones.
"""

import re

import pytest

from repro.core.engine import LusailEngine
from repro.core.execution.cost_model import DELAY_REASONS
from repro.datasets import lubm, queries_lubm

from tests.delay_oracle import delay_regret

QUERIES = {**queries_lubm.queries(), **lubm.crossing_queries()}


@pytest.fixture(scope="module")
def federation():
    return lubm.build_federation(2, lubm.scaled_profile(1), seed=1)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_heuristic_within_one_percent_of_best_delay_set(federation, name):
    regret = delay_regret(federation, name, QUERIES[name])
    assert regret.skipped is None, regret.skipped
    best = regret.best
    assert regret.heuristic.virtual_ms <= 1.01 * best.virtual_ms, (
        name,
        sorted(regret.heuristic.delayed),
        regret.heuristic.virtual_ms,
        sorted(best.delayed),
        best.virtual_ms,
    )


def test_explain_names_each_verdicts_reason(federation):
    # Q6: Chauvenet rejects the professors' subquery on cardinality, and
    # the two name subqueries are delayed on cardinality.
    lines = [line.strip() for line in LusailEngine(federation).explain(QUERIES["Q6"]).splitlines()]
    verdicts = {line.split(" [")[0]: line for line in lines if line.startswith("subquery ")}
    assert "[eager: below," in verdicts["subquery 0"]
    assert "chauvenet-rejected on cardinality" in verdicts["subquery 0"]
    for index in (1, 2):
        assert "[delayed: cardinality," in verdicts[f"subquery {index}"]
    # Every subquery line of every query says why.
    verdict = re.compile(r"subquery \d+ \[(eager|delayed): (" + "|".join(DELAY_REASONS) + "),")
    for text in QUERIES.values():
        for line in LusailEngine(federation).explain(text).splitlines():
            if line.lstrip().startswith(("subquery ", "OPTIONAL subquery ")):
                assert verdict.search(line), line
