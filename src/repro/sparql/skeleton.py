"""Skeleton canonicalization for plan-cache sharing.

The endpoint plan cache keys on the query with top-level VALUES rows
stripped (:func:`repro.sparql.plan.split_parameters`), which makes every
bound-join block of one subquery hit a single compiled plan.  The other
endpoint-side probe families never hit, though: Lusail's locality check
queries and SAPE's COUNT statistics probes are *structurally* identical
across join variables and patterns but differ in variable names and in
embedded constants, so each one compiles its own plan.

This module canonicalizes a query before plan-cache lookup:

* every variable is renamed to a positional name (``?__q0``, ``?__q1``,
  ...) in deterministic first-occurrence order, so ``?x`` vs ``?y``
  probes share a skeleton;
* concrete subject/object terms of triple patterns in the top-level
  BGPs are lifted into one synthesized single-row VALUES block, which
  :func:`split_parameters` then turns into a parameter slot — the class
  IRI of an ``rdf:type`` probe or the constant of a bound pattern
  becomes plan *data* instead of plan *structure*.  Predicates stay
  concrete: probe ordering and the store's per-predicate statistics key
  on them.

Canonicalization is skipped for queries that already carry top-level
VALUES (the bound-join hot path is keyed well today, and a synthesized
block would shift its parameter slots).  Callers restore the original
projection names positionally via :meth:`Canonicalized.restore`.
"""

from __future__ import annotations

from repro.rdf.terms import Variable, is_concrete
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    Arithmetic,
    AskQuery,
    BGP,
    BooleanOp,
    Comparison,
    CountAggregate,
    ExistsExpr,
    Expression,
    Filter,
    FunctionCall,
    GroupPattern,
    Not,
    OptionalPattern,
    OrderCondition,
    PatternNode,
    Query,
    SelectQuery,
    SubSelect,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    VarExpr,
)

__all__ = ["Canonicalized", "canonicalize_query", "is_fragment_shape"]


def is_fragment_shape(query: Query) -> bool:
    """True for partial-evaluation fragment queries worth canonicalizing.

    Fragments are the full SELECTs partial evaluation ships per branch
    subquery: a flat conjunctive shape — top-level BGP(s) plus optional
    FILTERs, no modifiers and no nested scopes.  Two queries that differ
    only in embedded constants (``?x ub:degreeFrom <univ0>`` vs
    ``<univ3>``) share a canonical skeleton, so every endpoint compiles
    the fragment once and replays it with new parameter bindings.
    Bound-join requests carry top-level VALUES and stay on their own
    (already well-keyed) path, so they are excluded here.
    """
    if not isinstance(query, SelectQuery):
        return False
    if query.aggregate is not None or query.order_by:
        return False
    if query.limit is not None or query.offset:
        return False
    has_triples = False
    for element in query.where.elements:
        if isinstance(element, BGP):
            has_triples = has_triples or bool(element.triples)
        elif not isinstance(element, Filter):
            return False
    return has_triples


class Canonicalized:
    """A canonical query plus what is needed to undo the rename."""

    __slots__ = ("query", "rename", "inverse", "projected")

    def __init__(self, query: Query, rename: dict, inverse: dict, projected: tuple):
        #: The rewritten query (leading synthesized VALUES when constants
        #: were lifted).
        self.query = query
        #: original variable -> canonical variable (injective).
        self.rename = rename
        #: canonical variable -> original variable.
        self.inverse = inverse
        #: The *original* projected variables, positionally aligned with
        #: the canonical query's projection.
        self.projected = projected

    def restore(self, result):
        """Rewrite a :class:`SelectResult`'s names back to the original.

        Rows are positional, so only the header changes; row tuples are
        shared, not copied.
        """
        result.vars = self.projected
        return result


class _Renamer:
    """Injective first-occurrence variable rename (``?x`` -> ``?__q0``)."""

    __slots__ = ("rename",)

    def __init__(self):
        self.rename: dict[Variable, Variable] = {}

    def var(self, variable: Variable) -> Variable:
        renamed = self.rename.get(variable)
        if renamed is None:
            renamed = self.rename[variable] = Variable(f"__q{len(self.rename)}")
        return renamed

    def term(self, term):
        return self.var(term) if isinstance(term, Variable) else term

    # ------------------------------------------------------- expressions

    def expression(self, expr: Expression) -> Expression:
        if isinstance(expr, VarExpr):
            return VarExpr(self.var(expr.variable))
        if isinstance(expr, TermExpr):
            return expr
        if isinstance(expr, Comparison):
            return Comparison(
                expr.op, self.expression(expr.left), self.expression(expr.right)
            )
        if isinstance(expr, Arithmetic):
            return Arithmetic(
                expr.op, self.expression(expr.left), self.expression(expr.right)
            )
        if isinstance(expr, BooleanOp):
            return BooleanOp(expr.op, [self.expression(op) for op in expr.operands])
        if isinstance(expr, Not):
            return Not(self.expression(expr.operand))
        if isinstance(expr, FunctionCall):
            return FunctionCall(expr.name, [self.expression(a) for a in expr.args])
        if isinstance(expr, ExistsExpr):
            return ExistsExpr(self.group(expr.pattern), negated=expr.negated)
        raise TypeError(f"unrenamable expression {type(expr).__name__}")

    # ---------------------------------------------------------- patterns

    def triple(self, pattern: TriplePattern) -> TriplePattern:
        return TriplePattern(
            self.term(pattern.subject),
            self.term(pattern.predicate),
            self.term(pattern.object),
        )

    def node(self, node: PatternNode) -> PatternNode:
        if isinstance(node, BGP):
            return BGP([self.triple(t) for t in node.triples])
        if isinstance(node, Filter):
            return Filter(self.expression(node.expression))
        if isinstance(node, OptionalPattern):
            return OptionalPattern(self.group(node.pattern))
        if isinstance(node, UnionPattern):
            return UnionPattern([self.group(b) for b in node.branches])
        if isinstance(node, ValuesPattern):
            return ValuesPattern([self.var(v) for v in node.vars], node.rows)
        if isinstance(node, SubSelect):
            return SubSelect(self.select(node.query))
        if isinstance(node, GroupPattern):
            return self.group(node)
        raise TypeError(f"unrenamable pattern {type(node).__name__}")

    def group(self, group: GroupPattern) -> GroupPattern:
        return GroupPattern([self.node(el) for el in group.elements])

    # ----------------------------------------------------------- queries

    def select(self, query: SelectQuery) -> SelectQuery:
        # Pin SELECT * projections before rewriting: the synthesized
        # VALUES variables must never leak into the projection.
        select_vars = tuple(self.var(v) for v in query.projected_variables())
        aggregate = query.aggregate
        where = self.group(query.where)
        if aggregate is not None:
            aggregate = CountAggregate(
                alias=self.var(aggregate.alias),
                variable=(
                    self.var(aggregate.variable)
                    if aggregate.variable is not None
                    else None
                ),
                distinct=aggregate.distinct,
            )
            select_vars = None
        order_by = tuple(
            OrderCondition(self.expression(cond.expression), cond.ascending)
            for cond in query.order_by
        )
        return SelectQuery(
            where=where,
            select_vars=select_vars,
            distinct=query.distinct,
            aggregate=aggregate,
            order_by=order_by,
            limit=query.limit,
            offset=query.offset,
        )


def _lift_constants(
    where: GroupPattern, lift_predicates: bool = False
) -> tuple[GroupPattern, ValuesPattern | None]:
    """Replace concrete s/o terms of top-level BGP triples with fresh
    parameter variables, returning the one-row VALUES block binding them.

    Only BGPs directly under the WHERE group are rewritten: constants
    inside OPTIONAL / UNION / EXISTS / sub-SELECT would need the
    synthesized binding to be visible across a scope boundary, which is
    not worth the coupling for probe-shaped queries (whose constants all
    sit in the top-level BGP).  Predicates are lifted only when the
    caller says so: single-pattern COUNT probes ask the same shape about
    every predicate, so parameterizing the predicate collapses the whole
    probe family onto one plan, while multi-pattern shapes keep concrete
    predicates because the compiler's probe ordering depends on their
    per-predicate statistics.
    """
    params: list[Variable] = []
    row: list = []

    def lift(term):
        if is_concrete(term):
            variable = Variable(f"__c{len(params)}")
            params.append(variable)
            row.append(term)
            return variable
        return term

    elements: list[PatternNode] = []
    for element in where.elements:
        if isinstance(element, BGP):
            element = BGP(
                [
                    TriplePattern(
                        lift(t.subject),
                        lift(t.predicate) if lift_predicates else t.predicate,
                        lift(t.object),
                    )
                    for t in element.triples
                ]
            )
        elements.append(element)
    if not params:
        return where, None
    return GroupPattern(elements), ValuesPattern(params, (tuple(row),))


def canonicalize_query(query: Query, lift_predicates: bool = False) -> Canonicalized | None:
    """Canonical form of ``query`` for plan-cache keying, or None.

    Returns None (caller keeps the original path) when the query already
    carries top-level VALUES — bound-join requests are well keyed by
    :func:`split_parameters` alone, and injecting another block would
    renumber their parameter slots.

    ``lift_predicates`` additionally parameterizes concrete predicates
    (see :func:`_lift_constants`); pass it only for shapes whose plan is
    predicate-independent, i.e. single-pattern aggregate probes.
    """
    if not isinstance(query, (SelectQuery, AskQuery)):
        return None
    if any(isinstance(el, ValuesPattern) for el in query.where.elements):
        return None
    renamer = _Renamer()
    if isinstance(query, AskQuery):
        projected: tuple = ()
        canonical: Query = AskQuery(renamer.group(query.where))
    else:
        projected = query.projected_variables()
        canonical = renamer.select(query)
    where, values = _lift_constants(canonical.where, lift_predicates)
    if values is not None:
        where = GroupPattern((values, *where.elements))
    if where is not canonical.where:
        if isinstance(canonical, AskQuery):
            canonical = AskQuery(where)
        else:
            canonical = SelectQuery(
                where=where,
                select_vars=canonical.select_vars,
                distinct=canonical.distinct,
                aggregate=canonical.aggregate,
                order_by=canonical.order_by,
                limit=canonical.limit,
                offset=canonical.offset,
            )
    inverse = {new: old for old, new in renamer.rename.items()}
    return Canonicalized(canonical, renamer.rename, inverse, projected)
