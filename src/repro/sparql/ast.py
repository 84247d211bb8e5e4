"""Abstract syntax tree for the supported SPARQL subset.

The subset covers everything Lusail and its baselines emit or consume:

* ``SELECT`` (with ``DISTINCT``, projection lists, ``COUNT`` aggregates),
  ``ASK``;
* basic graph patterns, ``FILTER`` (boolean expressions, built-ins,
  ``EXISTS`` / ``NOT EXISTS``), ``OPTIONAL``, ``UNION``, ``VALUES``,
  nested sub-``SELECT``;
* solution modifiers ``ORDER BY``, ``LIMIT``, ``OFFSET``.

AST nodes are immutable value objects with structural equality so that
queries can be compared after serialization round-trips and used as cache
keys by the federation layer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.rdf.terms import Term, Variable
from repro.rdf.triple import TriplePattern

# --------------------------------------------------------------------------
# Expressions


class Expression:
    """Base class for FILTER / ORDER BY expressions."""

    __slots__ = ()

    def variables(self) -> set[Variable]:
        raise NotImplementedError


class VarExpr(Expression):
    """A variable reference inside an expression."""

    __slots__ = ("variable",)

    def __init__(self, variable: Variable):
        self.variable = variable

    def __eq__(self, other):
        return isinstance(other, VarExpr) and self.variable == other.variable

    def __hash__(self):
        return hash((VarExpr, self.variable))

    def __repr__(self):
        return f"VarExpr({self.variable!r})"

    def variables(self) -> set[Variable]:
        return {self.variable}


class TermExpr(Expression):
    """A constant term (IRI or literal) inside an expression."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    def __eq__(self, other):
        return isinstance(other, TermExpr) and self.term == other.term

    def __hash__(self):
        return hash((TermExpr, self.term))

    def __repr__(self):
        return f"TermExpr({self.term!r})"

    def variables(self) -> set[Variable]:
        return set()


class Comparison(Expression):
    """Binary comparison: ``=`` ``!=`` ``<`` ``<=`` ``>`` ``>=``."""

    __slots__ = ("op", "left", "right")

    OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (self.op, self.left, self.right) == (other.op, other.left, other.right)
        )

    def __hash__(self):
        return hash((Comparison, self.op, self.left, self.right))

    def __repr__(self):
        return f"Comparison({self.op!r}, {self.left!r}, {self.right!r})"

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()


class Arithmetic(Expression):
    """Binary arithmetic: ``+`` ``-`` ``*`` ``/``."""

    __slots__ = ("op", "left", "right")

    OPS = ("+", "-", "*", "/")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (
            isinstance(other, Arithmetic)
            and (self.op, self.left, self.right) == (other.op, other.left, other.right)
        )

    def __hash__(self):
        return hash((Arithmetic, self.op, self.left, self.right))

    def __repr__(self):
        return f"Arithmetic({self.op!r}, {self.left!r}, {self.right!r})"

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()


class BooleanOp(Expression):
    """N-ary ``&&`` / ``||`` over sub-expressions."""

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: Sequence[Expression]):
        if op not in ("&&", "||"):
            raise ValueError(f"unknown boolean operator {op!r}")
        if len(operands) < 2:
            raise ValueError("BooleanOp needs at least two operands")
        self.op = op
        self.operands = tuple(operands)

    def __eq__(self, other):
        return isinstance(other, BooleanOp) and (self.op, self.operands) == (other.op, other.operands)

    def __hash__(self):
        return hash((BooleanOp, self.op, self.operands))

    def __repr__(self):
        return f"BooleanOp({self.op!r}, {self.operands!r})"

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for operand in self.operands:
            found |= operand.variables()
        return found


class Not(Expression):
    """Logical negation ``!expr``."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand

    def __eq__(self, other):
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self):
        return hash((Not, self.operand))

    def __repr__(self):
        return f"Not({self.operand!r})"

    def variables(self) -> set[Variable]:
        return self.operand.variables()


class FunctionCall(Expression):
    """A SPARQL built-in call: REGEX, STR, LANG, BOUND, CONTAINS, ..."""

    __slots__ = ("name", "args")

    SUPPORTED = frozenset(
        {
            "REGEX",
            "STR",
            "LANG",
            "LANGMATCHES",
            "DATATYPE",
            "BOUND",
            "CONTAINS",
            "STRSTARTS",
            "STRENDS",
            "STRLEN",
            "UCASE",
            "LCASE",
            "ISIRI",
            "ISURI",
            "ISLITERAL",
            "ISBLANK",
            "ISNUMERIC",
            "SAMETERM",
            "ABS",
        }
    )

    def __init__(self, name: str, args: Sequence[Expression]):
        upper = name.upper()
        if upper not in self.SUPPORTED:
            raise ValueError(f"unsupported function {name!r}")
        self.name = upper
        self.args = tuple(args)

    def __eq__(self, other):
        return isinstance(other, FunctionCall) and (self.name, self.args) == (other.name, other.args)

    def __hash__(self):
        return hash((FunctionCall, self.name, self.args))

    def __repr__(self):
        return f"FunctionCall({self.name!r}, {self.args!r})"

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for arg in self.args:
            found |= arg.variables()
        return found


class ExistsExpr(Expression):
    """``EXISTS { ... }`` / ``NOT EXISTS { ... }`` inside a FILTER.

    This is the construct Lusail's locality check queries (Fig 6 of the
    paper) are built on.
    """

    __slots__ = ("pattern", "negated")

    def __init__(self, pattern: "GroupPattern", negated: bool = False):
        self.pattern = pattern
        self.negated = negated

    def __eq__(self, other):
        return (
            isinstance(other, ExistsExpr)
            and self.pattern == other.pattern
            and self.negated == other.negated
        )

    def __hash__(self):
        return hash((ExistsExpr, self.pattern, self.negated))

    def __repr__(self):
        return f"ExistsExpr(negated={self.negated}, pattern={self.pattern!r})"

    def variables(self) -> set[Variable]:
        # EXISTS correlates on the outer bindings; its inner variables are
        # not projected outward.
        return self.pattern.variables()


# --------------------------------------------------------------------------
# Graph patterns


class PatternNode:
    """Base class for elements of a group graph pattern."""

    __slots__ = ()

    def variables(self) -> set[Variable]:
        raise NotImplementedError


class BGP(PatternNode):
    """A basic graph pattern: an ordered conjunction of triple patterns."""

    __slots__ = ("triples",)

    def __init__(self, triples: Sequence[TriplePattern]):
        self.triples = tuple(triples)

    def __eq__(self, other):
        return isinstance(other, BGP) and self.triples == other.triples

    def __hash__(self):
        return hash((BGP, self.triples))

    def __repr__(self):
        return f"BGP({self.triples!r})"

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for triple in self.triples:
            found |= triple.variables()
        return found


class Filter(PatternNode):
    """A FILTER constraint; applies to the enclosing group."""

    __slots__ = ("expression",)

    def __init__(self, expression: Expression):
        self.expression = expression

    def __eq__(self, other):
        return isinstance(other, Filter) and self.expression == other.expression

    def __hash__(self):
        return hash((Filter, self.expression))

    def __repr__(self):
        return f"Filter({self.expression!r})"

    def variables(self) -> set[Variable]:
        return self.expression.variables()


class OptionalPattern(PatternNode):
    """``OPTIONAL { ... }`` — a left join with the preceding pattern."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: "GroupPattern"):
        self.pattern = pattern

    def __eq__(self, other):
        return isinstance(other, OptionalPattern) and self.pattern == other.pattern

    def __hash__(self):
        return hash((OptionalPattern, self.pattern))

    def __repr__(self):
        return f"OptionalPattern({self.pattern!r})"

    def variables(self) -> set[Variable]:
        return self.pattern.variables()


class UnionPattern(PatternNode):
    """``{ A } UNION { B } UNION ...``."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence["GroupPattern"]):
        if len(branches) < 2:
            raise ValueError("UNION needs at least two branches")
        self.branches = tuple(branches)

    def __eq__(self, other):
        return isinstance(other, UnionPattern) and self.branches == other.branches

    def __hash__(self):
        return hash((UnionPattern, self.branches))

    def __repr__(self):
        return f"UnionPattern({self.branches!r})"

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for branch in self.branches:
            found |= branch.variables()
        return found


class ValuesPattern(PatternNode):
    """``VALUES (?a ?b) { (..) (..) }`` inline data.

    This is how SAPE ships blocks of found bindings with delayed
    subqueries.  ``None`` inside a row stands for UNDEF.
    """

    __slots__ = ("vars", "rows")

    def __init__(self, vars: Sequence[Variable], rows: Sequence[Sequence[Optional[Term]]]):
        self.vars = tuple(vars)
        self.rows = tuple(tuple(row) for row in rows)
        for row in self.rows:
            if len(row) != len(self.vars):
                raise ValueError("VALUES row arity does not match variable list")

    def __eq__(self, other):
        return isinstance(other, ValuesPattern) and (self.vars, self.rows) == (other.vars, other.rows)

    def __hash__(self):
        return hash((ValuesPattern, self.vars, self.rows))

    def __repr__(self):
        return f"ValuesPattern(vars={self.vars!r}, rows={len(self.rows)})"

    def variables(self) -> set[Variable]:
        return set(self.vars)


class SubSelect(PatternNode):
    """A nested SELECT inside a group graph pattern."""

    __slots__ = ("query",)

    def __init__(self, query: "SelectQuery"):
        self.query = query

    def __eq__(self, other):
        return isinstance(other, SubSelect) and self.query == other.query

    def __hash__(self):
        return hash((SubSelect, self.query))

    def __repr__(self):
        return f"SubSelect({self.query!r})"

    def variables(self) -> set[Variable]:
        return set(self.query.projected_variables())


class GroupPattern(PatternNode):
    """An ordered group ``{ elem elem ... }`` of pattern nodes."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[PatternNode]):
        self.elements = tuple(elements)

    def __eq__(self, other):
        return isinstance(other, GroupPattern) and self.elements == other.elements

    def __hash__(self):
        return hash((GroupPattern, self.elements))

    def __repr__(self):
        return f"GroupPattern({self.elements!r})"

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for element in self.elements:
            found |= element.variables()
        return found

    def triple_patterns(self) -> list[TriplePattern] | None:
        """All triple patterns anywhere under this group — OPTIONAL,
        UNION, sub-SELECT and FILTER (NOT) EXISTS included — or None
        when the group holds a node this walk does not know.

        An answer to the group reads only triples that match one of
        them, which is what store-side cache validation keys on
        (:meth:`repro.store.TripleStore.last_write`).
        """
        collected: list[TriplePattern] = []
        for element in self.elements:
            if isinstance(element, BGP):
                collected.extend(element.triples)
                continue
            if isinstance(element, ValuesPattern):
                continue
            if isinstance(element, GroupPattern):
                found = element.triple_patterns()
            elif isinstance(element, OptionalPattern):
                found = element.pattern.triple_patterns()
            elif isinstance(element, UnionPattern):
                found = _all_patterns(branch.triple_patterns() for branch in element.branches)
            elif isinstance(element, SubSelect):
                found = element.query.triple_patterns()
            elif isinstance(element, Filter):
                found = _expression_patterns(element.expression)
            else:
                return None
            if found is None:
                return None
            collected.extend(found)
        return collected


def _all_patterns(parts) -> list[TriplePattern] | None:
    """The concatenated pattern lists of ``parts``, or None if one is."""
    collected: list[TriplePattern] = []
    for found in parts:
        if found is None:
            return None
        collected.extend(found)
    return collected


def _expression_patterns(expression: Expression) -> list[TriplePattern] | None:
    """The triple patterns of the EXISTS groups inside an expression, or
    None for an expression node the walk does not know."""
    if isinstance(expression, ExistsExpr):
        return expression.pattern.triple_patterns()
    if isinstance(expression, (VarExpr, TermExpr)):
        return []
    if isinstance(expression, (Comparison, Arithmetic)):
        children: Sequence[Expression] = (expression.left, expression.right)
    elif isinstance(expression, BooleanOp):
        children = expression.operands
    elif isinstance(expression, Not):
        children = (expression.operand,)
    elif isinstance(expression, FunctionCall):
        children = expression.args
    else:
        return None
    return _all_patterns(_expression_patterns(child) for child in children)


# --------------------------------------------------------------------------
# Queries


class OrderCondition:
    """One ORDER BY key: an expression plus direction."""

    __slots__ = ("expression", "ascending")

    def __init__(self, expression: Expression, ascending: bool = True):
        self.expression = expression
        self.ascending = ascending

    def __eq__(self, other):
        return (
            isinstance(other, OrderCondition)
            and self.expression == other.expression
            and self.ascending == other.ascending
        )

    def __hash__(self):
        return hash((OrderCondition, self.expression, self.ascending))

    def __repr__(self):
        return f"OrderCondition({self.expression!r}, ascending={self.ascending})"


class CountAggregate:
    """``(COUNT(*) AS ?alias)`` or ``(COUNT(DISTINCT ?v) AS ?alias)``."""

    __slots__ = ("alias", "variable", "distinct")

    def __init__(self, alias: Variable, variable: Variable | None = None, distinct: bool = False):
        self.alias = alias
        self.variable = variable
        self.distinct = distinct

    def __eq__(self, other):
        return (
            isinstance(other, CountAggregate)
            and (self.alias, self.variable, self.distinct)
            == (other.alias, other.variable, other.distinct)
        )

    def __hash__(self):
        return hash((CountAggregate, self.alias, self.variable, self.distinct))

    def __repr__(self):
        return f"CountAggregate(alias={self.alias!r}, variable={self.variable!r}, distinct={self.distinct})"


class SelectQuery:
    """A SELECT query."""

    __slots__ = (
        "select_vars",
        "distinct",
        "aggregate",
        "where",
        "order_by",
        "limit",
        "offset",
    )

    def __init__(
        self,
        where: GroupPattern,
        select_vars: Sequence[Variable] | None = None,
        distinct: bool = False,
        aggregate: CountAggregate | None = None,
        order_by: Sequence[OrderCondition] = (),
        limit: int | None = None,
        offset: int = 0,
    ):
        self.where = where
        self.select_vars = tuple(select_vars) if select_vars is not None else None
        self.distinct = distinct
        self.aggregate = aggregate
        self.order_by = tuple(order_by)
        self.limit = limit
        self.offset = offset

    def __eq__(self, other):
        return isinstance(other, SelectQuery) and all(
            getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
        )

    def __hash__(self):
        return hash(
            (
                SelectQuery,
                self.select_vars,
                self.distinct,
                self.aggregate,
                self.where,
                self.order_by,
                self.limit,
                self.offset,
            )
        )

    def __repr__(self):
        return (
            f"SelectQuery(select={self.select_vars!r}, distinct={self.distinct}, "
            f"aggregate={self.aggregate!r}, limit={self.limit}, where={self.where!r})"
        )

    def projected_variables(self) -> tuple[Variable, ...]:
        """The variables appearing in result rows."""
        if self.aggregate is not None:
            return (self.aggregate.alias,)
        if self.select_vars is not None:
            return self.select_vars
        return tuple(sorted(self.where.variables(), key=lambda v: v.name))

    def triple_patterns(self) -> list[TriplePattern] | None:
        """Every triple pattern the answer can read: the WHERE group's
        (:meth:`GroupPattern.triple_patterns`) and those of EXISTS in
        ORDER BY; None for a node the walk does not know."""
        return _all_patterns(
            [
                self.where.triple_patterns(),
                *(_expression_patterns(condition.expression) for condition in self.order_by),
            ]
        )


class AskQuery:
    """An ASK query — true iff the pattern has at least one solution."""

    __slots__ = ("where",)

    def __init__(self, where: GroupPattern):
        self.where = where

    def __eq__(self, other):
        return isinstance(other, AskQuery) and self.where == other.where

    def __hash__(self):
        return hash((AskQuery, self.where))

    def __repr__(self):
        return f"AskQuery({self.where!r})"


Query = Union[SelectQuery, AskQuery]


def bgp_query(
    triples: Sequence[TriplePattern],
    select_vars: Sequence[Variable] | None = None,
    distinct: bool = False,
    limit: int | None = None,
) -> SelectQuery:
    """Convenience constructor for a plain conjunctive SELECT."""
    return SelectQuery(
        where=GroupPattern([BGP(triples)]),
        select_vars=select_vars,
        distinct=distinct,
        limit=limit,
    )
