"""Detecting global join variables (paper Algorithm 1).

A variable shared by two triple patterns is a **global join variable
(GJV)** when the patterns cannot be answered together by single
endpoints.  Two ways to become one:

1. the patterns' relevant source lists differ (no set of endpoints could
   answer both completely), or
2. a locality check query (Fig 6) returns a non-empty result at some
   relevant endpoint — an actual data instance matches one pattern but
   not the other locally.

The detector returns, for each GJV, the set of pattern pairs that caused
it; the decomposer must keep those pairs in different subqueries.

Conservative extensions beyond the paper's pseudo-code:

* a join variable appearing in *predicate* position is treated as global
  outright (its extension cannot be probed with Fig 6 checks);
* patterns with variable predicates make any shared variable global for
  the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.endpoint.client import FederationClient
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.core.decomposition.check_queries import CheckQuery, checks_for_pair
from repro.planning.source_selection import SourceSelection


@dataclass
class GJVResult:
    """GJVs plus the evidence pairs behind each of them."""

    variables: dict[Variable, set[frozenset]] = field(default_factory=dict)
    check_queries_run: int = 0
    #: Checks answered from characteristic-set summaries (provably empty
    #: or provably non-empty) without issuing the remote check query.
    check_queries_skipped: int = 0

    def add(self, variable: Variable, pair: frozenset) -> None:
        self.variables.setdefault(variable, set()).add(pair)

    def conflicting_pairs(self) -> set[frozenset]:
        pairs: set[frozenset] = set()
        for evidence in self.variables.values():
            pairs |= evidence
        return pairs


def join_entities(patterns: list[TriplePattern]) -> dict[Variable, list[TriplePattern]]:
    """Variables appearing in two or more triple patterns, with their patterns."""
    by_variable: dict[Variable, list[TriplePattern]] = {}
    for pattern in patterns:
        for variable in pattern.variables():
            by_variable.setdefault(variable, []).append(pattern)
    return {variable: pats for variable, pats in by_variable.items() if len(pats) >= 2}


def _appears_as_predicate(variable: Variable, patterns: list[TriplePattern]) -> bool:
    return any(pattern.predicate == variable for pattern in patterns)


def detect_gjvs(
    client: FederationClient,
    patterns: list[TriplePattern],
    selection: SourceSelection,
    at_ms: float,
) -> tuple[GJVResult, float]:
    """Run Algorithm 1; returns the GJV set and the virtual end time.

    Assumes source selection has already run (its results are in
    ``selection``).  Check queries for different variables are issued
    concurrently; per endpoint they serialize on the virtual lane.
    """
    result = GJVResult()
    variables = join_entities(patterns)
    pending_checks: list[CheckQuery] = []

    for variable, var_patterns in variables.items():
        if _appears_as_predicate(variable, var_patterns):
            # Cannot probe a predicate's locality; conservatively global.
            for pair in combinations(var_patterns, 2):
                result.add(variable, frozenset(pair))
            continue

        is_global = False
        for pattern_a, pattern_b in combinations(var_patterns, 2):
            if selection.relevant(pattern_a) != selection.relevant(pattern_b):
                result.add(variable, frozenset((pattern_a, pattern_b)))
                is_global = True
        if is_global:
            # Paper line 12: once the source lists differ the variable is
            # global; no check queries needed.
            continue

        for pattern_a, pattern_b in combinations(var_patterns, 2):
            sources = selection.relevant(pattern_a)
            if not sources:
                continue
            if pattern_a.predicate == pattern_b.predicate and pattern_a == pattern_b:
                continue
            has_variable_predicate = isinstance(pattern_a.predicate, Variable) or isinstance(
                pattern_b.predicate, Variable
            )
            if has_variable_predicate:
                result.add(variable, frozenset((pattern_a, pattern_b)))
                continue
            pending_checks.extend(
                checks_for_pair(variable, pattern_a, pattern_b, patterns, sources)
            )

    finish = at_ms
    with client.tracer.span(
        "gjv_detection", t0=at_ms, join_variables=sorted(v.name for v in variables)
    ) as detection_span:
        for check in pending_checks:
            # Skip pairs already proven global by an earlier check.
            if check.pair in result.variables.get(check.variable, set()):
                continue
            for endpoint_name in check.sources:
                # Characteristic-set coverage decides many checks
                # outright: provably empty skips the probe, provably
                # non-empty marks the variable global without one.
                verdict, end = client.stats.check_empty(endpoint_name, check, at_ms)
                if verdict is not None:
                    non_empty = not verdict
                    result.check_queries_skipped += 1
                else:
                    with client.tracer.span(
                        "check_query",
                        t0=at_ms,
                        variable=check.variable.name,
                        endpoint=endpoint_name,
                    ) as span:
                        non_empty, end = client.check(endpoint_name, check.query, at_ms)
                        span.set(non_empty=non_empty, requests=1).end(end)
                    result.check_queries_run += 1
                finish = max(finish, end)
                if non_empty:
                    result.add(check.variable, check.pair)
                    break
        detection_span.set(
            gjvs=[v.name for v in result.variables],
            check_queries=result.check_queries_run,
            check_queries_skipped=result.check_queries_skipped,
        ).end(finish)
    return result, finish
