"""SPLENDID re-implementation (Görlitz & Staab, COLD 2011).

Index-based baseline:

* **Source selection** reads the VoID index (free — no remote probes)
  for predicate-bound patterns and falls back to ASK probes when a
  pattern has a concrete subject or object (SPLENDID refines candidate
  sources for constants with ASKs).
* **Planning** orders operands by estimated cardinality and, at every
  join step, chooses between a **hash join** (fetch the operand fully,
  in parallel, and join at the mediator) and a **bind join** (ship each
  left binding individually — SPLENDID's bind join predates FedX's
  block trick, hence one request per binding).  The choice compares
  estimated shipped rows against estimated request overhead.
* Exclusive single-source groups are kept together, as SPLENDID's
  access plans do.

The per-binding bind join and index-driven estimates give SPLENDID its
paper-visible profile: competitive on selective queries, frequent
timeouts on large intermediate results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.bound_join import bound_join, evaluate_operand
from repro.baselines.operands import greedy_order
from repro.baselines.pipeline import OperandEngine
from repro.baselines.void_index import VoidIndex, build_void_index
from repro.core.decomposition.subquery import Subquery
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.planning.source_selection import SourceSelection
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.relational.relation import Relation


#: SPLENDID ships bindings one at a time (no block trick).
BIND_JOIN_BLOCK_SIZE = 1
#: Estimated virtual cost units of one remote request, used by the
#: hash-vs-bind decision.
REQUEST_COST_UNITS = 40.0


@dataclass
class SplendidConfig:
    max_mediator_rows: int | None = 2_000_000


class SplendidEngine(OperandEngine):
    """Index-based federation with hash-join / bind-join planning."""

    name = "SPLENDID"
    requires_preprocessing = True
    config_class = SplendidConfig
    source_index = "void"
    index: VoidIndex

    def _build_index(self, federation: Federation) -> VoidIndex:
        return build_void_index(federation)

    def _select_sources(
        self, client: FederationClient, patterns: list[TriplePattern], at_ms: float
    ) -> tuple[SourceSelection, float]:
        selection = SourceSelection()
        names = client.federation.names()
        finish = at_ms
        for pattern in patterns:
            if pattern in selection.sources:
                continue
            candidates = self.index.candidate_sources(pattern, names)
            has_constant = not isinstance(pattern.subject, Variable) or not isinstance(
                pattern.object, Variable
            )
            if has_constant and len(candidates) > 1:
                refined = []
                for name in candidates:
                    answer, end = client.ask(name, pattern, at_ms)
                    finish = max(finish, end)
                    if answer:
                        refined.append(name)
                candidates = refined
            selection.sources[pattern] = tuple(candidates)
        return selection, finish

    def _order(self, operands: list[Subquery]) -> list[Subquery]:
        """Cardinality-ordered, connectivity-aware greedy order."""
        return greedy_order(operands, lambda operand, bound: self._estimate_operand(operand))

    @property
    def _block_size(self) -> int:
        return BIND_JOIN_BLOCK_SIZE

    def _join_operand(
        self,
        client: FederationClient,
        relation: Relation | None,
        operand: Subquery,
        projection: tuple[Variable, ...],
        now: float,
    ) -> tuple[Relation, float]:
        estimate = self._estimate_operand(operand)
        if relation is not None and self._prefer_bind_join(relation, operand, estimate):
            return bound_join(
                client, relation, operand, projection, now,
                block_size=self._block_size, estimated_rows=estimate,
            )
        fetched, now = evaluate_operand(
            client, operand, projection, now, estimated_rows=estimate
        )
        return (fetched if relation is None else relation.join(fetched)), now

    def _estimate_operand(self, operand: Subquery) -> float:
        return min(
            self.index.estimate(pattern, operand.sources) for pattern in operand.patterns
        )

    def _prefer_bind_join(
        self, relation: Relation, operand: Subquery, estimate: float
    ) -> bool:
        """Hash-vs-bind decision from estimated shipped work."""
        bind_cost = (
            len(relation)
            / BIND_JOIN_BLOCK_SIZE
            * REQUEST_COST_UNITS
            * max(1, len(operand.sources))
        )
        hash_cost = estimate + REQUEST_COST_UNITS * max(1, len(operand.sources))
        return bind_cost < hash_cost
