"""Cost-based join ordering for subquery results (paper Sec V-B).

Once the subquery relations are on the mediator, their join order is
chosen with a dynamic-programming enumerator over connected subsets (in
the spirit of Moerkotte & Neumann's DP algorithms, which the paper
cites).  The cost of joining a subplan ``S`` with a relation ``R``
follows the paper's parallel hash-join model::

    JoinCost(S, R) = |S| / S.threads  (hashing the smaller side)
                   + C(R) / R.threads (probing with the larger side)

Cross products are avoided unless the join graph is disconnected.  When
the DP finds no full plan (a cross product is needed below the top, as
for three inputs that share no variable), the greedy fallback pairs the
cheapest join first.  This order, phase two's rank and its binding
source are rules a ``BranchPlan`` holds for the scheduler (see "rules").
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from repro.core.decomposition.subquery import Subquery
from repro.rdf.terms import Term, Variable
from repro.relational import kernels
from repro.relational.relation import Relation


@dataclass
class JoinHints:
    """Statistics-derived hints for the join-row estimator.

    Built by :func:`plan_joins` from the planned distinct-value bounds:
    ``var_counts[(i, v)]`` is an upper bound on relation ``i``'s
    distinct values of ``v`` (summed per-endpoint distinct subject /
    object tallies of the tightest pattern holding ``v``).
    """

    var_counts: dict[tuple[int, Variable], float] = field(default_factory=dict)

    def _distinct(self, node: "JoinPlanNode", variable: Variable) -> float | None:
        """Distinct-value bound for a subtree: min over its leaves."""
        best: float | None = None
        for index in node.relations:
            count = self.var_counts.get((index, variable))
            if count is not None:
                best = count if best is None else min(best, count)
        return best

    def join_rows(
        self, left: "JoinPlanNode", right: "JoinPlanNode", shared: set[Variable]
    ) -> float | None:
        best: float | None = None
        for variable in shared:
            left_distinct = self._distinct(left, variable)
            right_distinct = self._distinct(right, variable)
            if not left_distinct or not right_distinct:
                continue
            # Independence estimate over the join variable's domain.
            estimate = left.rows * right.rows / max(left_distinct, right_distinct)
            best = estimate if best is None else min(best, estimate)
        return best


@dataclass
class JoinPlanNode:
    """A node of the join tree: either a base relation or a join."""

    relations: frozenset[int]
    rows: float
    threads: int
    cost: float
    left: "JoinPlanNode | None" = None
    right: "JoinPlanNode | None" = None
    base_index: int | None = None

    def is_leaf(self) -> bool:
        return self.base_index is not None

    def order(self) -> list[int]:
        """Base relation indexes in execution order (left-deep first)."""
        if self.is_leaf():
            return [self.base_index]  # type: ignore[list-item]
        assert self.left is not None and self.right is not None
        return self.left.order() + self.right.order()


def _connected(vars_a: set[Variable], vars_b: set[Variable]) -> bool:
    return bool(vars_a & vars_b)


def _join_cost(left: JoinPlanNode, right: JoinPlanNode) -> float:
    build, probe = (left, right) if left.rows <= right.rows else (right, left)
    return build.rows / max(1, build.threads) + probe.rows / max(1, probe.threads)


def _estimate_join_rows(
    left: JoinPlanNode,
    right: JoinPlanNode,
    shared: set[Variable],
    hints: JoinHints | None = None,
) -> float:
    if not shared:
        return left.rows * right.rows
    if hints is not None:
        estimate = hints.join_rows(left, right, shared)
        if estimate is not None:
            return min(estimate, left.rows * right.rows)
    # The paper's min-rule: a join on v yields at most the smaller side's
    # bindings of v.
    return min(left.rows, right.rows)


def plan_joins(
    relations: Sequence[Relation],
    subqueries: Sequence[Subquery] = (),
    distinct: Mapping[tuple[int, Variable], int] | None = None,
) -> JoinPlanNode:
    """Choose a join order over the given relations.

    Where ``subqueries[i]`` produced ``relations[i]``, ``distinct`` —
    the summaries' bound per (subquery id, variable),
    ``CardinalityEstimates.distinct`` — refines the intermediate-row
    estimates; without a bound the estimator falls back to the paper's
    min-rule.  Returns the root plan node; ``root.order()`` gives the
    sequence in which :func:`execute_plan` combines the inputs.
    """
    if not relations:
        raise ValueError("plan_joins needs at least one relation")

    leaves = [
        JoinPlanNode(
            relations=frozenset((index,)),
            rows=float(len(relation)),
            threads=relation.partitions,
            cost=0.0,
            base_index=index,
        )
        for index, relation in enumerate(relations)
    ]
    if len(leaves) == 1:
        return leaves[0]

    distinct, hints = distinct or {}, JoinHints()
    for index, (subquery, relation) in enumerate(zip(subqueries, relations)):
        for variable in relation.vars:
            count = distinct.get((subquery.id, variable))
            if count is not None:
                hints.var_counts[(index, variable)] = float(count)
    var_sets = [set(relation.vars) for relation in relations]
    return _dp_plan(leaves, var_sets, hints if hints.var_counts else None)


def _subset_vars(subset: frozenset[int], var_sets: list[set[Variable]]) -> set[Variable]:
    merged: set[Variable] = set()
    for index in subset:
        merged |= var_sets[index]
    return merged


def _dp_plan(
    leaves: list[JoinPlanNode],
    var_sets: list[set[Variable]],
    hints: JoinHints | None = None,
) -> JoinPlanNode:
    """DP over subsets (DPsub), preferring connected splits."""
    n = len(leaves)
    best: dict[frozenset[int], JoinPlanNode] = {leaf.relations: leaf for leaf in leaves}

    indexes = list(range(n))
    for size in range(2, n + 1):
        for subset_tuple in combinations(indexes, size):
            subset = frozenset(subset_tuple)
            best_node: JoinPlanNode | None = None
            subset_list = sorted(subset)
            # Enumerate proper, non-empty splits once per unordered pair:
            # the last element is pinned to the right side.
            for mask in range(1, 2 ** (len(subset_list) - 1)):
                left_set = frozenset(
                    subset_list[i] for i in range(len(subset_list) - 1) if mask >> i & 1
                )
                if not left_set:
                    continue
                right_set = subset - left_set
                left_node = best.get(left_set)
                right_node = best.get(right_set)
                if left_node is None or right_node is None:
                    continue
                shared = _subset_vars(left_set, var_sets) & _subset_vars(
                    right_set, var_sets
                )
                if not shared and size < n:
                    # Defer cross products until forced at the top.
                    continue
                cost = left_node.cost + right_node.cost + _join_cost(left_node, right_node)
                rows = _estimate_join_rows(left_node, right_node, shared, hints)
                if best_node is None or cost < best_node.cost:
                    best_node = JoinPlanNode(
                        relations=subset,
                        rows=rows,
                        threads=max(left_node.threads, right_node.threads),
                        cost=cost,
                        left=left_node,
                        right=right_node,
                    )
            if best_node is not None:
                best[subset] = best_node

    full = frozenset(indexes)
    root = best.get(full)
    if root is None:
        # Disconnected join graph with no full plan (cross products were
        # skipped): fall back to greedy, which always completes.
        return _greedy_plan(leaves, var_sets, hints)
    return root


def _greedy_plan(
    leaves: list[JoinPlanNode],
    var_sets: list[set[Variable]],
    hints: JoinHints | None = None,
) -> JoinPlanNode:
    """Smallest-cardinality-first pairing, preferring connected pairs."""
    nodes = list(leaves)
    while len(nodes) > 1:
        best_pair: tuple[int, int] | None = None
        best_key: tuple | None = None
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                shared = _connected(
                    _subset_vars(nodes[i].relations, var_sets),
                    _subset_vars(nodes[j].relations, var_sets),
                )
                key = (0 if shared else 1, _join_cost(nodes[i], nodes[j]))
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (i, j)
        assert best_pair is not None
        i, j = best_pair
        left_node, right_node = nodes[i], nodes[j]
        shared_vars = _subset_vars(left_node.relations, var_sets) & _subset_vars(
            right_node.relations, var_sets
        )
        joined = JoinPlanNode(
            relations=left_node.relations | right_node.relations,
            rows=_estimate_join_rows(left_node, right_node, shared_vars, hints),
            threads=max(left_node.threads, right_node.threads),
            cost=left_node.cost + right_node.cost + _join_cost(left_node, right_node),
            left=left_node,
            right=right_node,
        )
        nodes = [node for k, node in enumerate(nodes) if k not in (i, j)]
        nodes.append(joined)
    return nodes[0]


def plan_summary(root: JoinPlanNode) -> dict:
    """Compact optimizer-side view of a join plan for EXPLAIN ANALYZE.

    The estimated rows/cost here are what the enumerator *believed*;
    the audit compares them against the measured outcome of
    :func:`execute_plan`.
    """
    return {
        "order": root.order(),
        "estimated_rows": root.rows,
        "estimated_cost": root.cost,
    }


def execute_plan(
    root: JoinPlanNode, relations: Sequence[Relation]
) -> tuple[Relation, float]:
    """Execute a join plan; returns the result and the measured cost.

    The returned cost is the paper's JoinCost accumulated over the tree
    from the kernels' *measured* build/probe row counts, which the
    engine converts to virtual milliseconds.
    """
    if root.is_leaf():
        return relations[root.base_index], 0.0  # type: ignore[index]
    assert root.left is not None and root.right is not None
    left_rel, left_cost = execute_plan(root.left, relations)
    right_rel, right_cost = execute_plan(root.right, relations)
    joined = left_rel.join(right_rel)
    return joined, left_cost + right_cost + kernels.last_join_cost()


# ------------------------------------------------------------------ rules


@dataclass
class Component:
    """A connected group of already-evaluated relations, joined eagerly."""

    relation: Relation
    variables: set[Variable] = field(default_factory=set)


#: A delayed subquery's bindings: the variables it shares with a
#: component, and that component's distinct fully bound rows of them.
Bindings = tuple[tuple[Variable, ...], list[tuple[Term | None, ...]]]


def most_selective_first(
    candidates: list[tuple[Subquery, Bindings | None]], cardinalities: Mapping[int, float]
) -> list[tuple[Subquery, Bindings | None]]:
    """Phase two's rank (Alg 3) of ``(subquery, its measured bindings or
    None)`` candidates: least first by C(sq) or, where fewer, the
    distinct bindings; ties keep their order."""
    return sorted(
        candidates,
        key=lambda item: min(
            cardinalities[item[0].id], math.inf if item[1] is None else float(len(item[1][1]))
        ),
    )


def fewest_bindings(components: Sequence[Component], variables: set[Variable]) -> Bindings | None:
    """Where a bound subquery's bindings come from: of the components
    sharing variables with it, (shared variables, distinct fully bound
    rows) of the one with the fewest; None when nothing evaluated so far
    connects to the subquery."""
    best = None
    for component in components:
        shared = tuple(sorted(component.variables & variables, key=lambda v: v.name))
        if not shared:
            continue
        projected = component.relation.project(shared).distinct()
        rows = [row for row in projected.rows if None not in row]
        if best is None or len(rows) < len(best[1]):
            best = (shared, rows)
    return best
