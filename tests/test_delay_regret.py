"""SAPE's delay decision against every delay set it could have made.

For each of the 17 LUBM queries (L1–L14 and the crossing Q4–Q6) on a
two-endpoint federation, the heuristic's virtual time must be within 1%
of the best delay set of the required subqueries
(:mod:`tests.delay_oracle`, warm engine).  This is the check that
catches a rule which keeps large subqueries eager: LUBM Q6 shipped both
of its name subqueries whole, ≈6x the best set at this scale, because
Chauvenet's rejection of the small subquery left the survivors' mean
equal to the large ones.  On the LargeRDFBench paper selection, cold,
the rule must be within 5% of the best sets in total: the threshold
alone keeps the far ends of chains eager and is ~1.3x off.  On QFed's
C2P2 family, cold, the total is ratcheted at today's reading.
"""

import re

import pytest

from repro.core.engine import LusailConfig, LusailEngine
from repro.core.execution.cost_model import DELAY_REASONS, DelayPolicy
from repro.datasets import largerdf, lubm, qfed, queries_largerdf, queries_lubm
from repro.harness import experiments

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
        regret.heuristic.delayed,
        regret.heuristic.virtual_ms,
        best.delayed,
        best.virtual_ms,
    )


def _verdicts(engine, text):
    lines = [line.strip() for line in engine.explain(text).splitlines()]
    return {line.split(" [")[0]: line for line in lines if line.startswith("subquery ")}


def test_explain_names_each_verdicts_reason(federation):
    # Q6: Chauvenet rejects the professors' subquery on cardinality, and
    # the paper's rule delays the two name subqueries on cardinality...
    paper = LusailEngine(federation, LusailConfig(delay_policy=DelayPolicy.MU_SIGMA))
    verdicts = _verdicts(paper, QUERIES["Q6"])
    assert "[eager: below," in verdicts["subquery 0"]
    assert "chauvenet-rejected on cardinality" in verdicts["subquery 0"]
    for index in (1, 2):
        assert "[delayed: cardinality," in verdicts[f"subquery {index}"]
    # ...and the cost rule agrees, because binding them is clearly the
    # cheaper option: it names that reason and prints both estimates.
    verdicts = _verdicts(LusailEngine(federation), QUERIES["Q6"])
    assert "[eager: below," in verdicts["subquery 0"]
    assert "cost seed" in verdicts["subquery 0"]
    for index in (1, 2):
        line = verdicts[f"subquery {index}"]
        assert "[delayed: bound-cheaper," in line
        assert re.search(r"est\. bindings=\d+, bound≈[\d.]+ ms, ship≈[\d.]+ ms", line), line
    # Every subquery line of every query says why.
    verdict = re.compile(r"subquery \d+ \[(eager|delayed): (" + "|".join(DELAY_REASONS) + "),")
    for text in QUERIES.values():
        for line in LusailEngine(federation).explain(text).splitlines():
            if line.lstrip().startswith(("subquery ", "OPTIONAL subquery ")):
                assert verdict.search(line), line


def test_largerdf_regret_within_five_percent_of_best():
    """The paper's LargeRDFBench selection, cold (fresh engine per run):
    the ``mu + sigma`` rule alone was 1.29x the best delay sets in total
    and 3.04x on C10, keeping the far ends of chains eager; the cost rule
    is within 5% in total and 1.35x on every query."""
    federation = largerdf.build_federation(scale=1.0, seed=1, hub_scale=1.0)
    rule_ms = best_ms = 0.0
    ratios = {}
    for name, text in queries_largerdf.paper_selection().items():
        regret = delay_regret(federation, name, text, warm=False)
        assert regret.skipped is None, (name, regret.skipped)
        rule_ms += regret.heuristic.virtual_ms
        best_ms += regret.best.virtual_ms
        ratios[name] = regret.ratio
    assert rule_ms <= 1.05 * best_ms, (rule_ms, best_ms)
    worst = max(ratios, key=ratios.get)
    assert ratios[worst] <= 1.35, (worst, ratios[worst])


def test_qfed_regret_ratchet():
    """QFed's C2P2 family at Fig 11's scale, cold: 1.167x the best delay
    sets in total.  The filtered queries (C2P2*F) are where it loses —
    their filtered star is estimated at thousands of rows where a few
    dozen ship, so the rule keeps eager what binding would cut.  Pricing
    a bound join at exactly the blocks it ships (no premium on
    unselective bindings) reads 1.244 here."""
    federation = experiments.qfed_federation()
    rule_ms = best_ms = 0.0
    for name, text in qfed.queries().items():
        regret = delay_regret(federation, name, text, warm=False)
        assert regret.skipped is None, (name, regret.skipped)
        rule_ms += regret.heuristic.virtual_ms
        best_ms += regret.best.virtual_ms
    assert rule_ms <= 1.17 * best_ms, (rule_ms, best_ms)
