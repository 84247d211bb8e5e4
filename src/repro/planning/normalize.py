"""Normalize parsed queries into the form federated engines plan over.

Engines (Lusail and the baselines) process queries as a **union of
conjunctive branches**, where each branch has:

* required triple patterns,
* FILTER expressions,
* OPTIONAL blocks (each itself conjunctive with filters).

This mirrors the paper's supported query class: conjunctive SPARQL plus
``UNION``, ``FILTER``, ``LIMIT`` and ``OPTIONAL`` (Sec IV-C, "Generic
SPARQL Queries").  Queries whose structure falls outside this class (for
example OPTIONAL nested inside OPTIONAL) raise
:class:`UnsupportedQueryError`, matching how the paper excludes queries
that neither Lusail nor its competitors support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.exceptions import UnsupportedQueryError
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    BGP,
    BooleanOp,
    CountAggregate,
    Expression,
    Filter,
    GroupPattern,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    SubSelect,
    UnionPattern,
    ValuesPattern,
)


@dataclass(frozen=True)
class OptionalBlock:
    """One OPTIONAL group: conjunctive patterns, the filters they can
    answer alone, and the left-join condition.

    SPARQL makes a block's FILTER the condition of the left join.  One
    whose variables the block's own patterns all bind holds or fails on
    the block's rows alone: it stays in ``filters`` and is pushed into
    the shipped subqueries.  One that reads anything else (an outer
    variable, say) can only be decided on the joined row: those are
    ``condition``, a single expression (their conjunction).
    """

    patterns: tuple[TriplePattern, ...]
    filters: tuple[Expression, ...] = ()
    condition: Expression | None = None

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        return found


@dataclass(frozen=True)
class Branch:
    """A conjunctive query branch (one UNION arm, or the whole query)."""

    patterns: tuple[TriplePattern, ...]
    filters: tuple[Expression, ...] = ()
    optionals: tuple[OptionalBlock, ...] = ()

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        for optional in self.optionals:
            found |= optional.variables()
        return found

    def all_patterns(self) -> tuple[TriplePattern, ...]:
        collected = list(self.patterns)
        for optional in self.optionals:
            collected.extend(optional.patterns)
        return tuple(collected)


@dataclass
class NormalizedQuery:
    """The engine-facing form of a SELECT query."""

    branches: list[Branch]
    select_vars: tuple[Variable, ...] | None
    distinct: bool = False
    limit: int | None = None
    offset: int = 0
    order_by: tuple[OrderCondition, ...] = ()
    #: ``(COUNT(...) AS ?alias)``: the mediator counts the solution and
    #: answers one row; ``select_vars`` then names what it counts over.
    aggregate: CountAggregate | None = None
    source: SelectQuery | None = field(default=None, repr=False)

    def projected_variables(self) -> tuple[Variable, ...]:
        if self.select_vars is not None:
            return self.select_vars
        found: set[Variable] = set()
        for branch in self.branches:
            found |= branch.variables()
        return tuple(sorted(found, key=lambda v: v.name))

    def order_variables(self) -> set[Variable]:
        """Every variable of every ORDER BY condition — what the engines
        must carry to the mediator beside the projection, whether a key
        is a bare variable or an expression over several."""
        found: set[Variable] = set()
        for condition in self.order_by:
            found |= condition.expression.variables()
        return found

    def all_patterns(self) -> list[TriplePattern]:
        collected: list[TriplePattern] = []
        for branch in self.branches:
            collected.extend(branch.all_patterns())
        return collected


@dataclass
class _GroupParts:
    patterns: list[TriplePattern]
    filters: list[Expression]
    optionals: list[OptionalBlock]
    unions: list[list["_BranchParts"]]


@dataclass
class _BranchParts:
    patterns: list[TriplePattern]
    filters: list[Expression]
    optionals: list[OptionalBlock]


def _collect_group(group: GroupPattern, allow_union: bool, allow_optional: bool) -> _GroupParts:
    parts = _GroupParts(patterns=[], filters=[], optionals=[], unions=[])
    for element in group.elements:
        if isinstance(element, BGP):
            parts.patterns.extend(element.triples)
        elif isinstance(element, Filter):
            parts.filters.append(element.expression)
        elif isinstance(element, GroupPattern):
            inner = _collect_group(element, allow_union, allow_optional)
            parts.patterns.extend(inner.patterns)
            parts.filters.extend(inner.filters)
            parts.optionals.extend(inner.optionals)
            parts.unions.extend(inner.unions)
        elif isinstance(element, OptionalPattern):
            if not allow_optional:
                raise UnsupportedQueryError("nested OPTIONAL is not supported by federated engines")
            inner = _collect_group(element.pattern, allow_union=False, allow_optional=False)
            if inner.unions:
                raise UnsupportedQueryError("UNION inside OPTIONAL is not supported")
            parts.optionals.append(_optional_block(inner.patterns, inner.filters))
        elif isinstance(element, UnionPattern):
            if not allow_union:
                raise UnsupportedQueryError("nested UNION is not supported by federated engines")
            branch_parts: list[_BranchParts] = []
            for branch_group in element.branches:
                inner = _collect_group(branch_group, allow_union=False, allow_optional=True)
                if inner.unions:
                    raise UnsupportedQueryError("UNION nested inside UNION is not supported")
                branch_parts.append(
                    _BranchParts(
                        patterns=inner.patterns,
                        filters=inner.filters,
                        optionals=inner.optionals,
                    )
                )
            parts.unions.append(branch_parts)
        elif isinstance(element, (ValuesPattern, SubSelect)):
            raise UnsupportedQueryError(
                f"{type(element).__name__} in user queries is not supported by federated engines"
            )
        else:
            raise UnsupportedQueryError(f"unsupported pattern node {type(element).__name__}")
    return parts


def _optional_block(
    patterns: list[TriplePattern], filters: list[Expression]
) -> OptionalBlock:
    """Classify a block's filters: local ones stay filters, the rest
    become the left-join condition (see :class:`OptionalBlock`)."""
    bound = {variable for pattern in patterns for variable in pattern.variables()}
    local: list[Expression] = []
    outer: list[Expression] = []
    for expression in filters:
        (local if expression.variables() <= bound else outer).append(expression)
    condition = None
    if outer:
        condition = outer[0] if len(outer) == 1 else BooleanOp("&&", tuple(outer))
    return OptionalBlock(tuple(patterns), tuple(local), condition)


def normalize(query: SelectQuery) -> NormalizedQuery:
    """Normalize a parsed SELECT query for federated planning."""
    parts = _collect_group(query.where, allow_union=True, allow_optional=True)

    if not parts.unions:
        branches = [
            Branch(
                patterns=tuple(parts.patterns),
                filters=tuple(parts.filters),
                optionals=tuple(parts.optionals),
            )
        ]
    else:
        # Distribute shared context over every combination of UNION arms.
        branches = []
        for combination in product(*parts.unions):
            patterns = list(parts.patterns)
            filters = list(parts.filters)
            optionals = list(parts.optionals)
            for arm in combination:
                patterns.extend(arm.patterns)
                filters.extend(arm.filters)
                optionals.extend(arm.optionals)
            branches.append(
                Branch(
                    patterns=tuple(patterns),
                    filters=tuple(filters),
                    optionals=tuple(optionals),
                )
            )

    for branch in branches:
        if not branch.patterns:
            raise UnsupportedQueryError("a query branch has no required triple patterns")

    aggregate = query.aggregate
    if aggregate is not None:
        # As at an endpoint, a COUNT answers one row, to which only
        # OFFSET / LIMIT still apply; the engines carry the counted
        # variable only (row multiplicity survives projection, which
        # COUNT(*) needs).
        counted = () if aggregate.variable is None else (aggregate.variable,)
        return NormalizedQuery(
            branches,
            counted,
            aggregate=aggregate,
            limit=query.limit,
            offset=query.offset,
            source=query,
        )
    return NormalizedQuery(
        branches=branches,
        select_vars=query.select_vars,
        distinct=query.distinct,
        limit=query.limit,
        offset=query.offset,
        order_by=query.order_by,
        source=query,
    )


def partition_filters(
    filters: tuple[Expression, ...], pattern_groups: list[set[Variable]]
) -> tuple[list[list[Expression]], list[Expression]]:
    """Split filters into per-group pushable lists and a mediator residue.

    A filter is pushed to group *i* when all its variables occur in that
    group (paper Sec IV-C: single-variable filters go with the relevant
    subqueries; multi-variable filters go to an endpoint only if all
    their variables live in one subquery).
    """
    pushed: list[list[Expression]] = [[] for __ in pattern_groups]
    residue: list[Expression] = []
    for expression in filters:
        vars = expression.variables()
        placed = False
        for index, group_vars in enumerate(pattern_groups):
            if vars and vars <= group_vars:
                pushed[index].append(expression)
                placed = True
                break
        if not placed:
            residue.append(expression)
    return pushed, residue
