"""ASK-based source selection.

Both Lusail and FedX are index-free: before planning, they send one
SPARQL ASK per triple pattern to every federation member to learn which
endpoints can contribute answers (paper Sec III).  Results are cached in
the engine's hash table, so repeated queries skip the probes — the
setting under which all the paper's measurements are reported.

The probes for one pattern go to all endpoints in parallel; probes for
different patterns are pipelined behind them on each endpoint's lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.endpoint.client import FederationClient
from repro.rdf.triple import TriplePattern


@dataclass
class SourceSelection:
    """Which endpoints are relevant to each triple pattern."""

    # TriplePattern hashes are cached at construction, so the per-pattern
    # lookups engines issue during planning are cheap dict probes.
    sources: dict[TriplePattern, tuple[str, ...]] = field(default_factory=dict)

    def relevant(self, pattern: TriplePattern) -> tuple[str, ...]:
        return self.sources.get(pattern, ())

    def all_sources(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for endpoints in self.sources.values():
            for name in endpoints:
                seen.setdefault(name, None)
        return tuple(seen)

    def exclusive_groups(self, patterns: list[TriplePattern]) -> list[list[TriplePattern]]:
        """FedX's schema-only grouping.

        Patterns answerable by exactly one and the same endpoint form an
        exclusive group, evaluable there as a unit; every other pattern
        is a group of its own.  Exclusive groups come first, each list
        in pattern order.
        """
        groups: dict[tuple[str, ...], list[TriplePattern]] = {}
        singletons: list[list[TriplePattern]] = []
        for pattern in patterns:
            sources = self.relevant(pattern)
            if len(sources) == 1:
                groups.setdefault(sources, []).append(pattern)
            else:
                singletons.append([pattern])
        return list(groups.values()) + singletons

    def restrict(self, pattern: TriplePattern, endpoints: tuple[str, ...]) -> None:
        """Narrow a pattern's sources (HiBISCuS-style pruning)."""
        current = set(self.sources.get(pattern, ()))
        self.sources[pattern] = tuple(name for name in endpoints if name in current)


def select_sources(
    client: FederationClient,
    patterns: list[TriplePattern],
    at_ms: float,
) -> tuple[SourceSelection, float]:
    """Run ASK source selection; returns the selection and the end time.

    Each (pattern, endpoint) question is answered from the endpoint's
    characteristic-set summary first; the ASK probe is issued only when
    the summary cannot prove the answer (the summary's verdicts are
    exact, so the resulting :class:`SourceSelection` is the one the ASKs
    alone would give).
    """
    names = client.federation.names()
    provider = client.stats
    selection = SourceSelection()
    finish = at_ms
    for pattern in patterns:
        if pattern in selection.sources:
            continue
        relevant: list[str] = []
        for name in names:
            answer, end = provider.can_match(name, pattern, at_ms)
            if answer is None:
                answer, end = client.ask(name, pattern, at_ms)
            finish = max(finish, end)
            if answer:
                relevant.append(name)
        selection.sources[pattern] = tuple(relevant)
    return selection, finish


def refine_sources_with_bindings(
    client: FederationClient,
    bound_patterns: list[TriplePattern],
    candidates: tuple[str, ...],
    at_ms: float,
) -> tuple[tuple[str, ...], float]:
    """Re-run source selection for a generic pattern with found bindings.

    Paper Alg 3, line 13: for patterns like ``(?s, ?p, ?o)`` that are
    nominally relevant everywhere, probing with actual bindings of the
    join variable removes endpoints that cannot contribute, which "costs
    significantly less than evaluating the delayed subquery" there.
    ``bound_patterns`` are the generic pattern with sample bindings
    substituted; a candidate stays when any of them can match there.
    """
    finish = at_ms
    provider = client.stats
    relevant: list[str] = []
    for name in candidates:
        keep = False
        for bound in bound_patterns:
            # Summaries prove most misses (absent predicate, object
            # outside the histogram) without shipping an ASK.
            answer, end = provider.can_match(name, bound, at_ms)
            if answer is None:
                answer, end = client.ask(name, bound, at_ms)
            finish = max(finish, end)
            if answer:
                keep = True
                break
        if keep:
            relevant.append(name)
    return tuple(relevant), finish
