"""Subqueries: the unit LADE produces and SAPE executes.

A subquery is a group of triple patterns that every relevant endpoint can
answer *locally and completely* (that is what the locality checks
guarantee), plus the filters pushed into it.  Subqueries are sent to each
of their relevant endpoints as self-contained SPARQL SELECT queries; the
mediator joins their results on the global join variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.rdf.terms import Term, Variable
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    BGP,
    Expression,
    Filter,
    GroupPattern,
    PatternNode,
    SelectQuery,
    ValuesPattern,
)


@dataclass(frozen=True)
class Subquery:
    """One locality-safe group of triple patterns, as LADE produced it;
    what SAPE decides about it lives on the branch plan."""

    id: int
    patterns: tuple[TriplePattern, ...]
    sources: tuple[str, ...]
    filters: tuple[Expression, ...] = ()
    optional_group: int | None = None  # OPTIONAL block index, None = required

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        return found

    def projection(self, needed: set[Variable]) -> tuple[Variable, ...]:
        """Variables this subquery must ship: its vars ∩ needed."""
        own = self.variables()
        return tuple(sorted(own & needed, key=lambda v: v.name))

    def to_select(
        self,
        projection: Sequence[Variable],
        values: ValuesPattern | None = None,
    ) -> SelectQuery:
        """Build the SELECT query sent to each relevant endpoint.

        ``values`` carries a block of found bindings when the subquery is
        evaluated as a delayed bound join (SAPE, Alg 3 line 12).
        """
        elements: list[PatternNode] = []
        if values is not None:
            elements.append(values)
        elements.append(BGP(self.patterns))
        for expression in self.filters:
            elements.append(Filter(expression))
        return SelectQuery(
            where=GroupPattern(elements),
            select_vars=tuple(projection) if projection else None,
        )


@dataclass(frozen=True)
class DecompositionPlan:
    """The output of LADE for one conjunctive branch."""

    subqueries: list[Subquery]
    global_join_variables: dict[Variable, set[frozenset[TriplePattern]]]
    residue_filters: tuple[Expression, ...] = ()
    #: Filters of an OPTIONAL block spanning several of its subqueries;
    #: applied to the block's joined relation before the left join.
    optional_residue: dict[int, tuple[Expression, ...]] = field(default_factory=dict)
    #: The left-join condition of an OPTIONAL block: its filters that
    #: read a variable the block does not bind.
    optional_conditions: dict[int, Expression] = field(default_factory=dict)
    disjoint: bool = False
    check_query_count: int = 0

    def gjv_names(self) -> list[str]:
        return sorted(variable.name for variable in self.global_join_variables)

    def required_subqueries(self) -> list[Subquery]:
        return [sq for sq in self.subqueries if sq.optional_group is None]

    def optional_groups(self) -> dict[int, list[Subquery]]:
        groups: dict[int, list[Subquery]] = {}
        for sq in self.subqueries:
            if sq.optional_group is not None:
                groups.setdefault(sq.optional_group, []).append(sq)
        return groups


def values_block(
    variables: Sequence[Variable], rows: Sequence[tuple[Term | None, ...]]
) -> ValuesPattern:
    """A VALUES pattern carrying one block of found bindings."""
    return ValuesPattern(tuple(variables), rows)
