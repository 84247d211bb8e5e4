"""HiBISCuS re-implementation (Saleem & Ngonga Ngomo, ESWC 2014).

HiBISCuS is a *source-selection add-on*: it builds, per endpoint and per
predicate, summaries of the URI **authorities** occurring in subject and
object position.  At query time it prunes, for every join variable, the
endpoints whose authorities cannot intersect those of the join partners
— two IRIs can only be equal if their authorities match.  Planning and
execution then proceed exactly as FedX (the configuration the paper
evaluates: "we use it on top of FedX").

Preprocessing cost is proportional to the data size, mirroring the
paper's index-construction measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.fedx import FedXEngine
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.planning.source_selection import SourceSelection
from repro.rdf.terms import Term, Variable
from repro.rdf.triple import TriplePattern


@dataclass
class AuthoritySummary:
    """Per-endpoint authority sets, keyed by predicate."""

    subject_authorities: dict[Term, frozenset[str]] = field(default_factory=dict)
    object_authorities: dict[Term, frozenset[str]] = field(default_factory=dict)
    triples_scanned: int = 0

    def subjects(self, predicate: Term) -> frozenset[str]:
        return self.subject_authorities.get(predicate, frozenset())

    def objects(self, predicate: Term) -> frozenset[str]:
        return self.object_authorities.get(predicate, frozenset())


def build_authority_index(federation: Federation) -> dict[str, AuthoritySummary]:
    """Scan every endpoint and summarize authorities (preprocessing)."""
    index: dict[str, AuthoritySummary] = {}
    for endpoint in federation:
        summary = AuthoritySummary(triples_scanned=len(endpoint.store))
        for predicate in endpoint.store.predicates():
            summary.subject_authorities[predicate] = frozenset(
                endpoint.store.subject_authorities(predicate)
            )
            summary.object_authorities[predicate] = frozenset(
                endpoint.store.object_authorities(predicate)
            )
        index[endpoint.name] = summary
    return index


class HibiscusEngine(FedXEngine):
    """FedX planner with HiBISCuS authority-based source pruning."""

    name = "HiBISCuS"
    requires_preprocessing = True
    index: dict[str, AuthoritySummary]

    def _build_index(self) -> dict[str, AuthoritySummary]:
        return build_authority_index(self.federation)

    def _select_sources(
        self, client: FederationClient, patterns: list[TriplePattern], at_ms: float
    ) -> tuple[SourceSelection, float]:
        selection, end = super()._select_sources(client, patterns, at_ms)
        self._prune_sources(patterns, selection)
        return selection, end

    # -------------------------------------------------------------- prune

    def _authorities_for(
        self, endpoint: str, pattern: TriplePattern, position: str
    ) -> frozenset[str] | None:
        """Authority set of a pattern position at one endpoint.

        ``None`` means "cannot prune" (variable predicate, literal-heavy
        position, or no summary).
        """
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            return None
        summary = self.index.get(endpoint)
        if summary is None:
            return None
        if position == "subject":
            return summary.subjects(predicate)
        return summary.objects(predicate)

    def _prune_sources(self, patterns: list[TriplePattern], selection: SourceSelection) -> None:
        """Drop endpoints whose authorities cannot join (index-only, free)."""
        # Variables are visited in order of first occurrence: a variable
        # reads the source lists earlier variables already pruned, so the
        # visiting order must not depend on set iteration.
        by_variable: dict[Variable, list[tuple[TriplePattern, str]]] = {}
        for pattern in patterns:
            for position, term in (("subject", pattern.subject), ("object", pattern.object)):
                if isinstance(term, Variable):
                    by_variable.setdefault(term, []).append((pattern, position))

        for variable, occurrences in by_variable.items():
            if len(occurrences) < 2:
                continue
            # Union of authorities each occurrence can contribute.
            union_per_occurrence: list[frozenset[str] | None] = []
            for pattern, position in occurrences:
                merged: set[str] = set()
                prunable = True
                for endpoint in selection.relevant(pattern):
                    authorities = self._authorities_for(endpoint, pattern, position)
                    if authorities is None:
                        prunable = False
                        break
                    merged |= authorities
                union_per_occurrence.append(frozenset(merged) if prunable else None)

            for index, (pattern, position) in enumerate(occurrences):
                other_unions = [
                    union for j, union in enumerate(union_per_occurrence) if j != index
                ]
                if any(union is None for union in other_unions):
                    continue
                allowed: set[str] = set()
                first = True
                for union in other_unions:
                    assert union is not None
                    allowed = set(union) if first else allowed & set(union)
                    first = False
                kept = []
                for endpoint in selection.relevant(pattern):
                    authorities = self._authorities_for(endpoint, pattern, position)
                    # An empty authority set means the position holds
                    # literals/blank nodes there — the summary cannot
                    # decide, so the endpoint must be kept.
                    if authorities is None or not authorities or not allowed or authorities & allowed:
                        kept.append(endpoint)
                if kept and len(kept) < len(selection.relevant(pattern)):
                    selection.sources[pattern] = tuple(kept)
