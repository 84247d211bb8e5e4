"""The operand pipeline shared by FedX, HiBISCuS, SPLENDID and ANAPSID.

Every baseline evaluates a conjunctive branch the same way: select
sources, stop if a required pattern has none, group the patterns into
operands (exclusive groups + single patterns, filters pushed), join the
required operands, attach each OPTIONAL block with one left join, apply
the filters nothing could push, and report the phase durations.  The
engines differ only in their *decisions*, which subclasses express by
overriding methods of :class:`OperandEngine`:

* where source lists come from (:meth:`~OperandEngine._select_sources`,
  :meth:`~OperandEngine._build_index`);
* the operand order (:meth:`~OperandEngine._order`);
* how the next operand joins (:meth:`~OperandEngine._join_operand`), or
  the whole required join (:meth:`~OperandEngine._join_required`);
* how an OPTIONAL block's own relation is fetched
  (:meth:`~OperandEngine._fetch_optional_block`).
"""

from __future__ import annotations

import time

from repro.baselines.bound_join import bound_join, evaluate_operand
from repro.baselines.operands import build_operands, order_operands
from repro.core.decomposition.subquery import Subquery
from repro.endpoint.client import FederationClient
from repro.planning.base_engine import DEFAULT_TIMEOUT_MS, FederatedEngine
from repro.planning.normalize import Branch, NormalizedQuery
from repro.rdf.terms import Variable
from repro.relational.relation import Relation
from repro.sparql.ast import Expression


class OperandEngine(FederatedEngine):
    """A baseline engine: the shared pipeline plus overridable decisions."""

    #: Config dataclass instantiated when the caller passes none.
    config_class: type

    def __init__(self, federation, network_config=None, caches=None,
                 timeout_ms=None, config=None):
        super().__init__(
            federation,
            network_config,
            caches,
            timeout_ms if timeout_ms is not None else DEFAULT_TIMEOUT_MS,
        )
        self.config = config or self.config_class()
        if self.requires_preprocessing:
            start = time.perf_counter()
            self.index = self._build_index()
            self.stats.preprocessing_ms = (time.perf_counter() - start) * 1000.0

    # -------------------------------------------------------- decisions

    def _build_index(self):
        """The precomputed index of a ``requires_preprocessing`` engine."""
        raise NotImplementedError

    def _order(self, operands: list[Subquery]) -> list[Subquery]:
        return order_operands(operands)

    @property
    def _block_size(self) -> int:
        """Bindings shipped per bound-join request."""
        raise NotImplementedError

    def _join_operand(
        self,
        client: FederationClient,
        relation: Relation | None,
        operand: Subquery,
        projection: tuple[Variable, ...],
        now: float,
    ) -> tuple[Relation, float]:
        """Fetch the first operand (``relation`` is None) or join the next."""
        raise NotImplementedError

    def _join_required(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        operands: list[Subquery],
        carried: set[Variable],
        now: float,
    ) -> tuple[Relation, float]:
        """Left-deep join of the required operands, in :meth:`_order`."""
        relation: Relation | None = None
        for operand in self._order(operands):
            relation, now = self._join_operand(
                client, relation, operand, operand.projection(carried), now
            )
            self._guard_rows(client, relation)
            if not relation.rows:
                break
        assert relation is not None  # normalize() guarantees >= 1 pattern
        return relation, now

    def _fetch_optional_block(
        self,
        client: FederationClient,
        base: Relation,
        operands: list[Subquery],
        carried: set[Variable],
        now: float,
    ) -> tuple[Relation | None, float]:
        """The relation of one OPTIONAL block, or None to skip the block.

        The first operand is bound by the base's distinct bindings of
        the variables they share (unbound when they share none); the
        rest chain off it with bound joins.
        """
        if not base.rows or not operands:
            return None, now
        ordered = self._order(operands)
        base_vars = set(base.vars)
        shared = ordered[0].projection(base_vars)
        relation = base.project(shared).distinct() if shared else None
        for operand in ordered:
            projection = operand.projection(carried | base_vars)
            if relation is None:
                relation, now = evaluate_operand(client, operand, projection, now)
            else:
                relation, now = bound_join(
                    client, relation, operand, projection, now, block_size=self._block_size
                )
            self._guard_rows(client, relation)
        return relation, now

    # --------------------------------------------------------- pipeline

    def _execute_branch(
        self, client: FederationClient, branch: Branch, normalized: NormalizedQuery, plan
    ) -> tuple[Relation, float, dict[str, float]]:
        selection, now = self._select_branch_sources(client, branch)
        phases = {"source_selection": now}
        if selection is None:
            return Relation(tuple(normalized.projected_variables())), now, phases

        operands, residue = build_operands(list(branch.patterns), selection, branch.filters)
        carried = _carried_variables(branch, normalized, residue)
        execution_start = now
        relation, now = self._join_required(client, branch, normalized, operands, carried, now)

        # OPTIONAL blocks: the whole block must match as a unit — build
        # its relation first, then a single left join.
        for index, block in enumerate(branch.optionals):
            if any(not selection.relevant(pattern) for pattern in block.patterns):
                continue
            block_operands, block_residue = build_operands(
                list(block.patterns), selection, block.filters, optional_group=index
            )
            optional_relation, now = self._fetch_optional_block(
                client, relation, block_operands, carried, now
            )
            if optional_relation is not None:
                for expression in block_residue:
                    optional_relation = optional_relation.filter(expression)
                relation = relation.left_join(optional_relation, block.condition)
                self._guard_rows(client, relation)

        for expression in residue:
            relation = relation.filter(expression)
        phases["execution"] = now - execution_start
        client.metrics.mediator_rows = max(client.metrics.mediator_rows, len(relation))
        return relation, now, phases


def _carried_variables(
    branch: Branch, normalized: NormalizedQuery, residue: list[Expression]
) -> set[Variable]:
    """Variables operands must ship: the final projection, mediator-side
    filter and ORDER BY variables, and every join variable."""
    needed = set(normalized.projected_variables())
    for expression in residue:
        needed |= expression.variables()
    needed |= normalized.order_variables()
    counts: dict[Variable, int] = {}
    for pattern in branch.all_patterns():
        for variable in pattern.variables():
            counts[variable] = counts.get(variable, 0) + 1
    needed |= {variable for variable, count in counts.items() if count >= 2}
    for block in branch.optionals:
        for expression in block.filters:
            needed |= expression.variables()
        if block.condition is not None:
            needed |= block.condition.variables()
    return needed
