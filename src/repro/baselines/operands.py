"""Operands: the execution units of the baseline engines.

FedX (and HiBISCuS, which reuses its planner) evaluates a query as a
left-deep sequence of operands, where an operand is either an *exclusive
group* — triple patterns whose only relevant source is one and the same
endpoint, evaluable there as a unit — or a single triple pattern sent to
all its relevant sources.  An operand is a plain
:class:`~repro.core.decomposition.subquery.Subquery`; the exclusive
groups are the ones with several patterns.  Join order follows FedX's
variable-counting heuristic: prefer operands with the fewest free
variables given what is already bound.
"""

from __future__ import annotations

from repro.core.decomposition.subquery import Subquery
from repro.planning.normalize import partition_filters
from repro.planning.source_selection import SourceSelection
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import Expression


def build_operands(
    patterns: list[TriplePattern],
    selection: SourceSelection,
    filters: tuple[Expression, ...],
    optional_group: int | None = None,
) -> tuple[list[Subquery], list[Expression]]:
    """Form exclusive groups + singleton operands, pushing filters.

    Returns the operand list and the filters that could not be pushed
    (to be applied at the mediator).
    """
    groups = selection.exclusive_groups(patterns)
    pushed, residue = partition_filters(
        filters,
        [{variable for pattern in group for variable in pattern.variables()} for group in groups],
    )
    operands = [
        Subquery(
            id=index,
            patterns=tuple(group),
            sources=selection.relevant(group[0]),
            filters=tuple(group_filters),
            optional_group=optional_group,
        )
        for index, (group, group_filters) in enumerate(zip(groups, pushed))
    ]
    return operands, residue


def greedy_order(operands: list[Subquery], cost) -> list[Subquery]:
    """Connectivity-first greedy join order.

    Repeatedly picks, among the operands sharing a variable with what is
    already bound (any operand at the start, and when none connects),
    the one with the smallest ``cost(operand, bound)``.
    """
    remaining = list(operands)
    ordered: list[Subquery] = []
    bound: set[Variable] = set()
    while remaining:
        best = min(
            remaining,
            key=lambda operand: (
                0 if not bound or operand.variables() & bound else 1,
                cost(operand, bound),
            ),
        )
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def order_operands(operands: list[Subquery]) -> list[Subquery]:
    """FedX's variable-counting join order.

    Fewest free variables given the variables bound so far, then
    exclusive groups (the only multi-pattern operands), larger first.
    (Schwarte et al. 2011, Sec 5.)
    """
    return greedy_order(
        operands,
        lambda operand, bound: (len(operand.variables() - bound), -len(operand.patterns)),
    )
