"""Locality-aware query decomposition (paper Algorithm 2).

Given the GJV evidence from Algorithm 1, split a conjunctive branch into
subqueries such that:

* all patterns in a subquery have identical relevant source lists, and
* no pattern pair that caused a GJV sits in the same subquery.

The algorithm walks the query graph (nodes = terms, edges = triple
patterns) starting from the GJVs, growing subqueries greedily, then runs
a merge phase that coalesces compatible subqueries.  Patterns in
components no GJV can reach are grouped afterwards under the same
constraints, so every triple pattern lands in exactly one subquery.
"""

from __future__ import annotations

from repro.core.decomposition.gjv import GJVResult
from repro.rdf.terms import PatternTerm, Variable
from repro.rdf.triple import TriplePattern
from repro.planning.source_selection import SourceSelection


def _pattern_nodes(pattern: TriplePattern) -> list[PatternTerm]:
    """Graph nodes a pattern is incident to: its variables.

    Constants are deliberately not join nodes.  Two patterns sharing
    only a concrete term (the ``owl:sameAs`` predicate, or a constant
    object that both reference) may still match at *different*
    endpoints; keeping them in separate subqueries and joining at the
    mediator preserves union-graph semantics, whereas grouping them
    would silently turn the combination into a per-endpoint product.
    """
    return [
        position
        for position in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(position, Variable)
    ]


def _is_connected(patterns: list[TriplePattern]) -> bool:
    """True if the patterns form one component under shared variables."""
    if len(patterns) <= 1:
        return True
    remaining = list(patterns)
    component_vars = set(remaining.pop(0).variables())
    changed = True
    while changed and remaining:
        changed = False
        for pattern in list(remaining):
            if pattern.variables() & component_vars or not pattern.variables():
                component_vars |= pattern.variables()
                remaining.remove(pattern)
                changed = True
    return not remaining


class _QueryGraph:
    def __init__(self, patterns: list[TriplePattern]):
        self.patterns = patterns
        self._incidence: dict[PatternTerm, list[TriplePattern]] = {}
        for pattern in patterns:
            for node in _pattern_nodes(pattern):
                self._incidence.setdefault(node, []).append(pattern)

    def edges_at(self, node: PatternTerm) -> list[TriplePattern]:
        return self._incidence.get(node, [])


def _compatible(
    group: list[TriplePattern],
    pattern: TriplePattern,
    conflicts: set[frozenset],
    selection: SourceSelection,
) -> bool:
    """Can ``pattern`` join ``group`` in one subquery?"""
    if not group:
        return True
    if selection.relevant(group[0]) != selection.relevant(pattern):
        return False
    return all(frozenset((member, pattern)) not in conflicts for member in group)


def _groups_shared_variables(a: list[TriplePattern], b: list[TriplePattern]) -> bool:
    vars_a: set[Variable] = set()
    for pattern in a:
        vars_a |= pattern.variables()
    return any(vars_a & pattern.variables() for pattern in b)


def _merge_groups(
    groups: list[list[TriplePattern]],
    conflicts: set[frozenset],
    selection: SourceSelection,
) -> list[list[TriplePattern]]:
    """Paper's mergeSubQ: coalesce compatible subqueries to a fixpoint."""
    merged = [list(group) for group in groups]
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            if not merged[i]:
                continue
            for j in range(i + 1, len(merged)):
                if not merged[j]:
                    continue
                if not _groups_shared_variables(merged[i], merged[j]):
                    continue
                if selection.relevant(merged[i][0]) != selection.relevant(merged[j][0]):
                    continue
                cross_conflict = any(
                    frozenset((a, b)) in conflicts for a in merged[i] for b in merged[j]
                )
                if cross_conflict:
                    continue
                merged[i].extend(merged[j])
                merged[j] = []
                changed = True
    return [group for group in merged if group]


def decompose(
    patterns: list[TriplePattern],
    gjvs: GJVResult,
    selection: SourceSelection,
) -> list[list[TriplePattern]]:
    """Split a conjunctive pattern list into locality-safe groups.

    Returns groups of triple patterns; every input pattern appears in
    exactly one group.  GJV-rooted traversals run in name order — the
    paper notes that "the generated set of subqueries may change
    depending on the order in which variables are selected" and leaves
    choosing among them to future work (Sec IV-C).
    """
    if not patterns:
        return []

    source_lists = {selection.relevant(pattern) for pattern in patterns}
    if not gjvs.variables and len(source_lists) == 1 and _is_connected(patterns):
        # Disjoint query (Alg 2 line 2): the whole branch is one subquery.
        # Connectivity matters: patterns sharing no variable must stay in
        # separate subqueries or their cross-endpoint product is lost.
        return [list(patterns)]

    conflicts = gjvs.conflicting_pairs()
    graph = _QueryGraph(patterns)
    visited: set[TriplePattern] = set()
    groups: list[list[TriplePattern]] = []

    def group_at(node: PatternTerm) -> list[TriplePattern] | None:
        """The existing group holding a pattern incident to ``node``."""
        for group in groups:
            for member in group:
                if node in _pattern_nodes(member):
                    return group
        return None

    def traverse(root: PatternTerm) -> None:
        stack: list[PatternTerm] = [root]
        seen_nodes: set[PatternTerm] = set()
        while stack:
            vertex = stack.pop()
            if vertex in seen_nodes:
                continue
            seen_nodes.add(vertex)
            edges = [edge for edge in graph.edges_at(vertex) if edge not in visited]
            if not edges:
                continue
            parent = group_at(vertex)
            for edge in edges:
                if edge in visited:
                    continue
                if parent is not None and _compatible(parent, edge, conflicts, selection):
                    parent.append(edge)
                else:
                    new_group = [edge]
                    groups.append(new_group)
                    # Subsequent edges at this vertex may join the new group.
                    if parent is None:
                        parent = new_group
                visited.add(edge)
                for destination in _pattern_nodes(edge):
                    if destination != vertex and destination not in seen_nodes:
                        stack.append(destination)

    # Branch phase: one traversal per GJV, in name order.
    for variable in sorted(gjvs.variables, key=lambda v: v.name):
        traverse(variable)
        if len(visited) == len(patterns):
            break

    # Components unreachable from any GJV (including the no-GJV,
    # heterogeneous-sources case): traverse from their own nodes.
    for pattern in patterns:
        if pattern not in visited:
            nodes = _pattern_nodes(pattern)
            if nodes:
                traverse(nodes[0])
            if pattern not in visited:
                # Degenerate: fully concrete pattern.
                groups.append([pattern])
                visited.add(pattern)

    groups = _merge_groups(groups, conflicts, selection)

    # Restore original pattern order inside each group for determinism.
    order = {pattern: index for index, pattern in enumerate(patterns)}
    for group in groups:
        group.sort(key=lambda pattern: order[pattern])
    groups.sort(key=lambda group: order[group[0]])
    return groups

