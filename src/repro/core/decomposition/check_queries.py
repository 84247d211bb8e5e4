"""Formulation of Lusail's locality check queries (paper Fig 6).

Given a join variable ``v`` shared by two triple patterns, a check query
asks one endpoint: *do you hold an instance of v matching one pattern
that does not locally match the other?*  A non-empty answer at any
relevant endpoint makes ``v`` a **global join variable**: its patterns
must go to different subqueries and be joined at the mediator.

Three cases (paper Sec IV-A):

* **object/subject** — ``v`` is object of TPi and subject of TPj: check
  ``v(TPi) - v(TPj)`` only (instances referenced by TPi that are not
  described locally — exactly the interlink case of Fig 1);
* **subject only** — check both directions of the set difference;
* **object only** — likewise both directions.

The check carries ``LIMIT 1`` (only emptiness matters), keeps an
``rdf:type`` constraint on ``v`` when the query has one, and replaces
constants inside the FILTER side with fresh variables (the check cares
about *any* local match of the predicate, not the specific constant).

Cost at the endpoint: the generalized inner side is one pattern keyed on
``v`` alone, which the plan compiler answers with one index range read
per distinct ``v`` the outer pattern yields (``not_exists_range[...]``
in :meth:`~repro.sparql.plan.CompiledPlan.explain`), so a check costs
its outer probe's first chunks, not a pass over the inner predicate's
extent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Variable, is_concrete
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    BGP,
    ExistsExpr,
    Filter,
    GroupPattern,
    SelectQuery,
    SubSelect,
)


@dataclass(frozen=True)
class CheckQuery:
    """One locality check, bound to the endpoints it must run at.

    Besides the executable ``query``, the check carries its structure
    (``outer`` pattern, generalized ``inner`` pattern, optional
    ``type_pattern`` constraint on the variable) so the characteristic-set
    statistics provider can answer provably-empty / provably-non-empty
    checks from local summaries without parsing the query back apart.
    """

    variable: Variable
    pair: frozenset  # frozenset[TriplePattern]
    query: SelectQuery
    sources: tuple[str, ...]
    outer: TriplePattern | None = None
    inner: TriplePattern | None = None
    type_pattern: TriplePattern | None = None


def _generalize(pattern: TriplePattern, keep: Variable) -> TriplePattern:
    """Replace constants in the FILTER-side pattern with variables.

    Only the checked variable is correlated with the outer query; every
    constant position becomes a variable so the inner probe matches any
    local use of the predicate.  The replacement names are deterministic
    — identical check queries must hash equal across executions so the
    check cache (paper Fig 10b/c) actually hits.
    """
    subject = pattern.subject if pattern.subject == keep else (
        pattern.subject if isinstance(pattern.subject, Variable) else Variable("__chk_s")
    )
    object_ = pattern.object if pattern.object == keep else (
        pattern.object if isinstance(pattern.object, Variable) else Variable("__chk_o")
    )
    # Predicates stay: the probe is about the predicate's local extension.
    return TriplePattern(subject, pattern.predicate, object_)


def type_constraint_for(
    variable: Variable, patterns: list[TriplePattern]
) -> TriplePattern | None:
    """The ``(v, rdf:type, T)`` pattern constraining ``v``, if the query has one."""
    for pattern in patterns:
        if (
            pattern.subject == variable
            and pattern.predicate == RDF_TYPE
            and is_concrete(pattern.object)
        ):
            return pattern
    return None


def formulate_check(
    variable: Variable,
    outer: TriplePattern,
    inner: TriplePattern,
    type_pattern: TriplePattern | None,
) -> SelectQuery:
    """Build ``SELECT ?v WHERE { [type] outer FILTER NOT EXISTS { SELECT ?v
    WHERE { inner' } } } LIMIT 1`` — Fig 6 of the paper."""
    inner_general = _generalize(inner, keep=variable)
    inner_select = SelectQuery(
        where=GroupPattern([BGP([inner_general])]),
        select_vars=(variable,),
    )
    outer_triples = []
    if type_pattern is not None and type_pattern != outer:
        outer_triples.append(type_pattern)
    outer_triples.append(outer)
    where = GroupPattern(
        [
            BGP(outer_triples),
            Filter(ExistsExpr(GroupPattern([SubSelect(inner_select)]), negated=True)),
        ]
    )
    return SelectQuery(where=where, select_vars=(variable,), limit=1)


def checks_for_pair(
    variable: Variable,
    pattern_a: TriplePattern,
    pattern_b: TriplePattern,
    all_patterns: list[TriplePattern],
    sources: tuple[str, ...],
) -> list[CheckQuery]:
    """All check queries needed to decide locality of one pattern pair.

    Returns an empty list when no check is needed (same pattern, or the
    variable appears in predicate position — handled conservatively by
    the caller).
    """
    pair = frozenset((pattern_a, pattern_b))
    if len(pair) < 2:
        return []
    type_pattern = type_constraint_for(variable, all_patterns)

    roles_a = pattern_a.variable_positions(variable)
    roles_b = pattern_b.variable_positions(variable)
    checks: list[CheckQuery] = []

    def add(outer: TriplePattern, inner: TriplePattern) -> None:
        query = formulate_check(variable, outer, inner, type_pattern)
        checks.append(
            CheckQuery(
                variable=variable,
                pair=pair,
                query=query,
                sources=sources,
                outer=outer,
                inner=_generalize(inner, keep=variable),
                type_pattern=type_pattern,
            )
        )

    a_subject = "subject" in roles_a
    a_object = "object" in roles_a
    b_subject = "subject" in roles_b
    b_object = "object" in roles_b

    if a_object and b_subject:
        # v referenced by A, described by B: check v(A) - v(B).
        add(pattern_a, pattern_b)
    elif a_subject and b_object:
        add(pattern_b, pattern_a)
    elif a_subject and b_subject:
        # Subject-only: both directions must be empty.
        add(pattern_a, pattern_b)
        add(pattern_b, pattern_a)
    elif a_object and b_object:
        # Object-only: both directions must be empty.
        add(pattern_a, pattern_b)
        add(pattern_b, pattern_a)
    return checks
