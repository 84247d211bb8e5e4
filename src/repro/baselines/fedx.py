"""FedX re-implementation (Schwarte et al., ISWC 2011).

The index-free baseline the paper compares against most.  Its decisions
over the shared operand pipeline (:mod:`repro.baselines.pipeline`, which
owns exclusive groups, OPTIONAL blocks and mediator-side filters):

1. cached ASK source selection, one probe per triple pattern per endpoint;
2. variable-counting join order;
3. left-deep execution: first operand evaluated unbound, every further
   operand via serial block bound joins (block size 15);
4. plain-LIMIT queries pipeline chunks of the first operand through the
   bound joins and stop at the first ``LIMIT`` results.

FedX cannot group patterns whose (identical) schema answers live at
several endpoints — the situation of the paper's Sec II experiment —
so such queries degrade to one-pattern-at-a-time bound joins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.bound_join import DEFAULT_BLOCK_SIZE, bound_join, evaluate_operand
from repro.baselines.pipeline import OperandEngine
from repro.core.decomposition.subquery import Subquery
from repro.endpoint.client import FederationClient
from repro.planning.normalize import Branch, NormalizedQuery
from repro.rdf.terms import Variable
from repro.relational.relation import Relation


@dataclass
class FedXConfig:
    block_size: int = DEFAULT_BLOCK_SIZE
    max_mediator_rows: int | None = 2_000_000


class FedXEngine(OperandEngine):
    """Index-free federation with exclusive groups and bound joins."""

    name = "FedX"
    config_class = FedXConfig

    @property
    def _block_size(self) -> int:
        return self.config.block_size

    def _join_operand(
        self,
        client: FederationClient,
        relation: Relation | None,
        operand: Subquery,
        projection: tuple[Variable, ...],
        now: float,
    ) -> tuple[Relation, float]:
        if relation is None:
            return evaluate_operand(client, operand, projection, now)
        return bound_join(
            client, relation, operand, projection, now, block_size=self._block_size
        )

    def _join_required(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        operands: list[Subquery],
        carried: set[Variable],
        now: float,
    ) -> tuple[Relation, float]:
        # FedX cuts query execution short once the first LIMIT results
        # are obtained (the paper credits exactly this for FedX winning
        # C4).  Safe only for plain LIMIT: no ORDER BY, no DISTINCT, no
        # COUNT (its LIMIT is on the one counted row), no OPTIONAL
        # blocks, and a single branch.
        if (
            len(operands) > 1
            and normalized.limit is not None
            and normalized.aggregate is None
            and not normalized.order_by
            and not normalized.distinct
            and not branch.optionals
            and len(normalized.branches) == 1
        ):
            return self._pipelined_limit(
                client, self._order(operands), carried, now,
                normalized.limit + normalized.offset,
            )
        return super()._join_required(client, branch, normalized, operands, carried, now)

    def _pipelined_limit(
        self,
        client: FederationClient,
        ordered: list[Subquery],
        carried: set[Variable],
        now: float,
        stop_after: int,
    ) -> tuple[Relation, float]:
        """FedX's first-results cut-off: push chunks of the first
        operand's result through the whole bound-join pipeline and stop
        as soon as ``stop_after`` final rows exist."""
        first = ordered[0]
        seed, now = evaluate_operand(client, first, first.projection(carried), now)
        self._guard_rows(client, seed)

        final: Relation | None = None
        chunk_size = max(self._block_size, 1)
        for start in range(0, len(seed.rows), chunk_size):
            # Columnar slice: no decode/re-encode of the chunk's rows.
            piped = seed.limit(chunk_size, offset=start)
            for operand in ordered[1:]:
                piped, now = bound_join(
                    client, piped, operand, operand.projection(carried), now,
                    block_size=self._block_size,
                )
                if not piped.rows:
                    break
            if piped.rows:
                final = piped if final is None else final.union(piped)
                self._guard_rows(client, final)
                if len(final) >= stop_after:
                    break
        if final is None:
            final = Relation(tuple(sorted(carried, key=lambda v: v.name)))
        return final, now
