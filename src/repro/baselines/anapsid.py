"""ANAPSID-style adaptive engine (Acosta et al., ISWC 2011).

The paper's related work contrasts Lusail with ANAPSID, an *adaptive*
index-based federation engine: it keeps a catalog of endpoint
capabilities (predicate lists), dispatches subqueries to all relevant
endpoints at once, and routes tuples through non-blocking join
operators as they arrive, adapting the join order to endpoint delivery
rates rather than fixing it at compile time.

This reproduction keeps the defining traits in the virtual-time model:

* **catalog-based source selection** — predicate lookups from the same
  VoID-style index SPLENDID builds (preprocessing cost applies);
* **fully parallel dispatch** — every operand is evaluated unbound at
  all its endpoints simultaneously (no bound joins at all);
* **adaptive join routing** — operand results are joined in the order
  their (virtual) transfers complete, so fast endpoints are consumed
  first; connected operands join as soon as both sides have arrived.

The trade-off this reproduces: excellent parallelism and few requests,
but *every* operand's full extent crosses the network — on unselective
patterns ANAPSID ships far more data than Lusail's delayed bound joins,
which is why the survey the paper cites ranks FedX/Lusail-style systems
ahead on most workloads.

ANAPSID is not part of the paper's evaluation figures; it is included
here as an extra baseline (see ``benchmarks/bench_extra_baseline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.bound_join import evaluate_operand
from repro.baselines.pipeline import OperandEngine
from repro.baselines.void_index import VoidIndex, build_void_index
from repro.core.decomposition.subquery import Subquery
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.planning.normalize import Branch, NormalizedQuery
from repro.planning.source_selection import SourceSelection
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.relational.relation import Relation


@dataclass
class AnapsidConfig:
    max_mediator_rows: int | None = 2_000_000


class AnapsidEngine(OperandEngine):
    """Adaptive, catalog-based federation with fully parallel dispatch."""

    name = "ANAPSID"
    requires_preprocessing = True
    config_class = AnapsidConfig
    source_index = "catalog"
    index: VoidIndex

    def _build_index(self, federation: Federation) -> VoidIndex:
        return build_void_index(federation)

    def _select_sources(
        self, client: FederationClient, patterns: list[TriplePattern], at_ms: float
    ) -> tuple[SourceSelection, float]:
        """Catalog lookups only — ANAPSID keeps the capability list local."""
        selection = SourceSelection()
        names = client.federation.names()
        for pattern in patterns:
            if pattern not in selection.sources:
                selection.sources[pattern] = tuple(
                    self.index.candidate_sources(pattern, names)
                )
        return selection, at_ms

    def _join_required(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        operands: list[Subquery],
        carried: set[Variable],
        now: float,
    ) -> tuple[Relation, float]:
        # Fully parallel dispatch: every operand to every endpoint, now.
        arrivals: list[tuple[float, Relation]] = []
        mark = client.metrics.mark()
        with client.tracer.span(
            "parallel_dispatch", t0=now, operands=len(operands)
        ) as dispatch_span:
            for operand in operands:
                relation, completed = evaluate_operand(
                    client, operand, operand.projection(carried), now
                )
                self._guard_rows(client, relation)
                arrivals.append((completed, relation))
            dispatch_span.set(
                rows=sum(len(relation) for __, relation in arrivals),
                requests=client.metrics.requests_since(mark),
            ).end(max(completed for completed, __ in arrivals))

        # Adaptive routing: join in arrival order, preferring connected
        # inputs; a relation only joins once both sides have arrived, so
        # virtual time advances to the later arrival.
        arrivals.sort(key=lambda item: item[0])
        current: Relation | None = None
        while arrivals:
            index = next(
                (
                    i
                    for i, (__, relation) in enumerate(arrivals)
                    if current is None or set(relation.vars) & set(current.vars)
                ),
                0,
            )
            arrived_at, relation = arrivals.pop(index)
            now = max(now, arrived_at)
            if current is None:
                current = relation
            else:
                current = current.join(relation)
                self._guard_rows(client, current)
            if not current.rows:
                break
        assert current is not None  # normalize() guarantees >= 1 pattern
        return current, now

    def _fetch_optional_block(
        self,
        client: FederationClient,
        base: Relation,
        operands: list[Subquery],
        carried: set[Variable],
        now: float,
    ) -> tuple[Relation | None, float]:
        """Unbound fetch of every block operand, joined in operand order.

        Dispatched whether or not the base has rows; the fetches of one
        operand serialise across its endpoints.
        """
        relation: Relation | None = None
        for operand in operands:
            projection = operand.projection(carried | set(base.vars))
            query = operand.to_select(projection)
            fetched = Relation(projection, partitions=max(1, len(operand.sources)))
            for endpoint in operand.sources:
                result, end = client.select(endpoint, query, now)
                now = max(now, end)
                fetched.rows.extend(result)
            relation = fetched if relation is None else relation.join(fetched)
            self._guard_rows(client, relation)
        return relation, now
