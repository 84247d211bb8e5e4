"""Expression semantics, compiled once: FILTER tests and ORDER BY keys.

The only implementation of SPARQL expression semantics in the package.
An :class:`~repro.sparql.ast.Expression` (or an ``order_by`` tuple) is
compiled **once** against a ``{Variable: slot}`` schema and a
:class:`~repro.store.dictionary.TermDictionary` into a closure over an
*id row* — a tuple of that dictionary's ids, ``None`` = unbound:

* :func:`compile_filter` — ``row -> bool``, the effective boolean value,
  an *error* counting as ``False`` (the row is dropped);
* :func:`compile_order_key` — ``row -> key``, error / unbound lowest,
  DESC through the one :class:`_Reversed` wrapper.

The same closures run inside endpoint plans (:mod:`repro.sparql.plan`),
over mediator relations (``Relation.filter`` / ``Relation.order_by``)
and under the interpretive oracle, so the three cannot drift apart.  A
variable is a tuple index fixed at compile time — no per-row
``{variable: term}`` mapping exists — and an id is decoded only where an
operator inspects the term's value.

Decided at compile time in id space (the dictionary is a bijection, so
id equality *is* term identity): ``BOUND``, and ``sameTerm`` / ``=`` /
``!=`` between a variable and a constant — for ``=`` / ``!=`` only a
constant that cannot take part in numeric coercion (an IRI, a blank
node, a literal with no numeric value).  ``<`` … ``>=`` between a
variable and a numeric constant read the dictionary's per-id number
column (:meth:`~repro.store.dictionary.TermDictionary.numeric_values`)
and decode only an id that has no number.  Constant ``REGEX`` patterns
compile once.

Errors follow SPARQL 1.1 §17.2: an unbound variable, a type mismatch, a
division by zero, an overflow or an invalid regular expression is an
*error*; ``!`` of an error is an error and ``&&`` / ``||`` are
three-valued.  Malformed *calls* — wrong argument count, ``BOUND`` of a
non-variable, ``EXISTS`` without a pattern evaluator — are not row-level
errors: the compile step raises :class:`~repro.exceptions.EvaluationError`.

Departures from the §17 tables, inherited from the seed and relied on by
the data generators: a plain literal whose text parses as a number *is*
numeric (``"1" = "01"``); ``<`` … ``>=`` order two non-numeric literals
by lexical form and two IRIs by text; ``=`` on terms neither identical
nor both numeric is false, not an error; the EBV of an IRI or blank node
is true; ``DATATYPE`` of a language-tagged literal is ``xsd:string``;
``STR`` / ``UCASE`` / ``LCASE`` return plain literals.

``EXISTS`` needs graph data, which this module never sees: the caller
passes an ``exists`` hook that compiles the pattern its own way (a lazy
sub-plan at an endpoint, group interpretation in the oracle) into a
``row -> bool``; without one — at the mediator — ``EXISTS`` raises.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.exceptions import EvaluationError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Variable,
    XSD_STRING,
    effective_boolean_value,
    typed_literal,
)
from repro.sparql.ast import (
    Arithmetic,
    BooleanOp,
    Comparison,
    ExistsExpr,
    Expression,
    FunctionCall,
    Not,
    OrderCondition,
    TermExpr,
    VarExpr,
)

#: An id row: dictionary ids by slot, ``None`` = unbound.
IdRow = tuple
#: A compiled boolean expression; raises :class:`ExpressionError`.
Test = Callable[[IdRow], bool]
#: Compiles one ``EXISTS`` node (honouring ``negated``) for its site.
ExistsHook = Callable[[ExistsExpr], Test]


class ExpressionError(Exception):
    """An expression evaluated to SPARQL's *error* value.  Control flow
    between the closures of one compiled tree: :func:`compile_filter`
    and :func:`compile_order_key` absorb it."""


class CompiledFilter(NamedTuple):
    #: ``row -> bool``; never raises — an error is ``False``.
    passes: Callable[[IdRow], bool]
    #: EXPLAIN label: ``id_eq(=)`` / ``id_eq(!=)`` when the whole test is
    #: one id comparison, ``num_cmp(<)`` … ``num_cmp(>=)`` when it is one
    #: numeric comparison, else ``filter``.
    kind: str
    #: The tree holds ``BOUND`` or an ``EXISTS``: its verdict depends on
    #: *when* in a group it runs, so it belongs at the group's end.
    anchored: bool


# --------------------------------------------------------------------------
# Term-space operator semantics (SPARQL 1.1 §17.3 / §17.4)

_TRUE, _FALSE = typed_literal(True), typed_literal(False)
#: Sort key of an unbound / erroring ORDER BY operand: below every term.
_LOWEST = (0,)


def _number(term: Term) -> int | float:
    if isinstance(term, Literal):
        value = term.numeric_value()
        if value is not None:
            return value
    raise ExpressionError


def _literal(term: Term) -> Literal:
    if isinstance(term, Literal):
        return term
    raise ExpressionError


def _lexical(term: Term) -> str:
    """The string an operator reads off a literal or (as ``STR``) an IRI."""
    if isinstance(term, (Literal, IRI)):
        return term.value
    raise ExpressionError


def _is_numeric(term: Term) -> bool:
    return isinstance(term, Literal) and term.numeric_value() is not None


def _equal(left: Term, right: Term) -> bool:
    if left == right:
        return True
    if isinstance(left, Literal) and isinstance(right, Literal):
        left_number, right_number = left.numeric_value(), right.numeric_value()
        if left_number is not None and right_number is not None:
            return left_number == right_number
    return False


def _ordering(compare: Callable) -> Callable[[Term, Term], bool]:
    """``<`` … ``>=``: numeric when both sides are, else lexical on two
    literals or two IRIs; any other pairing is a type error."""

    def ordered(left: Term, right: Term) -> bool:
        if isinstance(left, Literal) and isinstance(right, Literal):
            left_number, right_number = left.numeric_value(), right.numeric_value()
            if left_number is not None and right_number is not None:
                return compare(left_number, right_number)
        elif not (isinstance(left, IRI) and isinstance(right, IRI)):
            raise ExpressionError
        return compare(left.value, right.value)

    return ordered


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: ``c op ?v`` is ``?v flipped-op c``, for numbers and lexical forms alike.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_COMPARISONS: dict[str, Callable[[Term, Term], bool]] = {
    "=": _equal,
    "!=": lambda left, right: not _equal(left, right),
    **{op: _ordering(compare) for op, compare in _ORDERINGS.items()},
}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _lang_matches(tag: Term, pattern: Term) -> bool:
    lang, range_ = _lexical(tag).lower(), _lexical(pattern).lower()
    if range_ == "*":
        return bool(lang)
    return lang == range_ or lang.startswith(range_ + "-")


#: Built-ins that are a function of their evaluated argument terms:
#: name -> (arity, function), term-valued and boolean.  ``BOUND`` and
#: ``REGEX`` are compiled by hand in :class:`_Scope`.
_TERM_FUNCTIONS: dict[str, tuple[int, Callable[..., Term]]] = {
    "STR": (1, lambda term: Literal(_lexical(term))),
    "LANG": (1, lambda term: Literal(_literal(term).language or "")),
    "DATATYPE": (1, lambda term: IRI(_literal(term).datatype or XSD_STRING)),
    "STRLEN": (1, lambda term: typed_literal(len(_lexical(term)))),
    "UCASE": (1, lambda term: Literal(_lexical(term).upper())),
    "LCASE": (1, lambda term: Literal(_lexical(term).lower())),
    "ABS": (1, lambda term: typed_literal(abs(_number(term)))),
}
_TEST_FUNCTIONS: dict[str, tuple[int, Callable[..., bool]]] = {
    "SAMETERM": (2, operator.eq),
    "LANGMATCHES": (2, _lang_matches),
    "CONTAINS": (2, lambda text, part: _lexical(part) in _lexical(text)),
    "STRSTARTS": (2, lambda text, part: _lexical(text).startswith(_lexical(part))),
    "STRENDS": (2, lambda text, part: _lexical(text).endswith(_lexical(part))),
    "ISIRI": (1, lambda term: isinstance(term, IRI)),
    "ISURI": (1, lambda term: isinstance(term, IRI)),
    "ISLITERAL": (1, lambda term: isinstance(term, Literal)),
    "ISBLANK": (1, lambda term: isinstance(term, BNode)),
    "ISNUMERIC": (1, _is_numeric),
}

_REGEX_FLAGS = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}


def _regex_search(pattern: str, flags: str = "") -> Callable[[str], object]:
    """``re``'s search for one pattern; an invalid pattern or an unknown
    flag letter is an expression error, not a ``re.error``."""
    try:
        bits = 0
        for letter in flags:
            bits |= _REGEX_FLAGS[letter]
        return re.compile(pattern, bits).search
    except (KeyError, re.error, OverflowError, RecursionError):
        raise ExpressionError from None


def _error(row: IdRow):
    raise ExpressionError


# --------------------------------------------------------------------------
# The compiler


class _Scope:
    """One compilation: the schema, the dictionary and the EXISTS hook.

    :meth:`test` compiles a node to a ``row -> bool`` (its effective
    boolean value), :meth:`value` to a ``row -> Term``; each delegates to
    the other for nodes of the other kind, so a boolean used as an
    operand becomes an ``xsd:boolean`` literal and a term used as a test
    goes through the EBV rules — decided once, at compile time.
    """

    def __init__(
        self, slots: Mapping[Variable, int], dictionary, exists: ExistsHook | None
    ):
        self.slots = slots
        self.dictionary = dictionary
        self.exists = exists
        self.anchored = False

    def id_equality(self, node: Expression) -> tuple[int | None, int, bool] | None:
        """``(slot, constant id, negated)`` when ``node`` compares a
        variable with a constant by term identity — ``sameTerm``, or
        ``=`` / ``!=`` with a constant that has no numeric value (numeric
        literals compare by value: ``"1" = "01"``).  ``slot`` is ``None``
        for a variable outside the schema."""
        if isinstance(node, Comparison) and node.op in ("=", "!="):
            left, right = node.left, node.right
        elif isinstance(node, FunctionCall) and node.name == "SAMETERM" and len(node.args) == 2:
            left, right = node.args
        else:
            return None
        if isinstance(left, TermExpr):
            left, right = right, left
        if not (isinstance(left, VarExpr) and isinstance(right, TermExpr)):
            return None
        if isinstance(node, Comparison) and _is_numeric(right.term):
            return None
        negated = isinstance(node, Comparison) and node.op == "!="
        return self.slots.get(left.variable), self.dictionary.encode(right.term), negated

    def numeric_comparison(self, node: Expression) -> tuple[int | None, str, Term] | None:
        """``(slot, op, constant)`` when ``node`` orders a variable against
        a numeric literal with ``<`` … ``>=``, normalised so the variable
        is on the left (``5 < ?v`` becomes ``?v > 5``).  ``slot`` is
        ``None`` for a variable outside the schema."""
        if not (isinstance(node, Comparison) and node.op in _ORDERINGS):
            return None
        left, op, right = node.left, node.op, node.right
        if isinstance(left, TermExpr):
            left, op, right = right, _FLIPPED[op], left
        if not (isinstance(left, VarExpr) and isinstance(right, TermExpr)):
            return None
        if not _is_numeric(right.term):
            return None
        return self.slots.get(left.variable), op, right.term

    def test(self, node: Expression) -> Test:
        id_equality = self.id_equality(node)
        if id_equality is not None:
            slot, const, negated = id_equality
            if slot is None:
                return _error

            def id_test(row: IdRow) -> bool:
                term_id = row[slot]
                if term_id is None:
                    raise ExpressionError
                return (term_id == const) != negated

            return id_test
        numeric = self.numeric_comparison(node)
        if numeric is not None:
            slot, op, const = numeric
            return _error if slot is None else self._numeric_test(slot, op, const)
        if isinstance(node, Comparison):
            return self._apply(_COMPARISONS[node.op], node.left, node.right)
        if isinstance(node, BooleanOp):
            tests = [self.test(operand) for operand in node.operands]
            return _three_valued(tests, decides=node.op == "||")
        if isinstance(node, Not):
            inner = self.test(node.operand)
            return lambda row: not inner(row)
        if isinstance(node, ExistsExpr):
            self.anchored = True
            if self.exists is None:
                raise EvaluationError("EXISTS filters cannot be evaluated at the mediator")
            return self.exists(node)
        if isinstance(node, FunctionCall) and node.name not in _TERM_FUNCTIONS:
            return self._call(node)
        value = self.value(node)
        return lambda row: effective_boolean_value(value(row))

    def _numeric_test(self, slot: int, op: str, const: Literal) -> Test:
        """``?v op const`` over the number column: an id with a number
        compares it with the constant's; any other id — a non-numeric
        literal (ordered by lexical form), an IRI or a blank node (an
        error) — takes the general ordering on its decoded term, so the
        verdict is the general comparison's by construction."""
        compare, ordered = _ORDERINGS[op], _COMPARISONS[op]
        bound = const.numeric_value()
        dictionary = self.dictionary
        numbers = dictionary.numeric_values()
        decode = dictionary.decode

        def num_cmp(row: IdRow) -> bool:
            term_id = row[slot]
            if term_id is None:
                raise ExpressionError
            try:
                number = numbers[term_id]
            except IndexError:
                # Interned after the compile step (a VALUES parameter).
                number = dictionary.numeric_values()[term_id]
            if number is None:
                return ordered(decode(term_id), const)
            return compare(number, bound)

        return num_cmp

    def _call(self, call: FunctionCall) -> Test:
        name, args = call.name, call.args
        if name == "BOUND":
            _check_arity(call, 1)
            if not isinstance(args[0], VarExpr):
                raise EvaluationError("BOUND expects a variable")
            self.anchored = True
            slot = self.slots.get(args[0].variable)
            if slot is None:
                return lambda row: False
            return lambda row: row[slot] is not None
        if name == "REGEX":
            _check_arity(call, 2, 3)
            text = self._apply(_lexical, args[0])
            if all(isinstance(arg, TermExpr) for arg in args[1:]):
                # The usual shape — REGEX(?x, "pattern") — compiles once.
                try:
                    search = _regex_search(*[_lexical(arg.term) for arg in args[1:]])
                except ExpressionError:
                    return _error
                return lambda row: search(text(row)) is not None
            parts = [self._apply(_lexical, arg) for arg in args[1:]]
            return lambda row: (
                _regex_search(*[part(row) for part in parts])(text(row)) is not None
            )
        arity, function = _TEST_FUNCTIONS[name]
        _check_arity(call, arity)
        return self._apply(function, *args)

    def _apply(self, function: Callable, *nodes: Expression) -> Callable:
        """``function`` over the values of one or two operand nodes."""
        if len(nodes) == 1:
            only = self.value(nodes[0])
            return lambda row: function(only(row))
        first, second = map(self.value, nodes)
        return lambda row: function(first(row), second(row))

    def value(self, node: Expression) -> Callable[[IdRow], Term]:
        if isinstance(node, VarExpr):
            slot = self.slots.get(node.variable)
            if slot is None:
                return _error
            decode = self.dictionary.decode

            def read(row: IdRow) -> Term:
                term_id = row[slot]
                if term_id is None:
                    raise ExpressionError
                return decode(term_id)

            return read
        if isinstance(node, TermExpr):
            term = node.term
            return lambda row: term
        if isinstance(node, Arithmetic):
            left = self._apply(_number, node.left)
            right = self._apply(_number, node.right)
            apply = _ARITHMETIC[node.op]

            def arithmetic(row: IdRow) -> Term:
                try:
                    return typed_literal(apply(left(row), right(row)))
                except (ZeroDivisionError, OverflowError):
                    raise ExpressionError from None

            return arithmetic
        if isinstance(node, FunctionCall) and node.name in _TERM_FUNCTIONS:
            arity, function = _TERM_FUNCTIONS[node.name]
            _check_arity(node, arity)
            return self._apply(function, *node.args)
        if isinstance(node, (Comparison, BooleanOp, Not, ExistsExpr, FunctionCall)):
            test = self.test(node)
            return lambda row: _TRUE if test(row) else _FALSE
        raise EvaluationError(f"cannot evaluate expression {node!r}")


def _check_arity(call: FunctionCall, least: int, most: int | None = None) -> None:
    if not least <= len(call.args) <= (most or least):
        expected = least if most is None else f"{least} to {most}"
        raise EvaluationError(
            f"{call.name} takes {expected} argument(s), got {len(call.args)}"
        )


def _three_valued(tests: list[Test], decides: bool) -> Test:
    """``||`` (``decides=True``) / ``&&`` (``decides=False``) per §17.2:
    an operand equal to ``decides`` settles the result whatever the
    others are; otherwise any error makes the result an error."""

    def combined(row: IdRow) -> bool:
        failed = False
        for test in tests:
            try:
                if test(row) == decides:
                    return decides
            except ExpressionError:
                failed = True
        if failed:
            raise ExpressionError
        return not decides

    return combined


# --------------------------------------------------------------------------
# Public API


def compile_filter(
    expression: Expression,
    slots: Mapping[Variable, int],
    dictionary,
    exists: ExistsHook | None = None,
) -> CompiledFilter:
    """Compile a FILTER expression over id rows laid out by ``slots``.

    ``dictionary`` decodes the rows' ids (constants compared in id space
    are interned into it).  Variables missing from ``slots`` are unbound
    in every row.  ``exists`` compiles ``EXISTS`` nodes; without it they
    raise :class:`~repro.exceptions.EvaluationError`.
    """
    scope = _Scope(slots, dictionary, exists)
    test = scope.test(expression)
    kind = "filter"
    if isinstance(expression, Comparison) and scope.id_equality(expression):
        kind = f"id_eq({expression.op})"
    elif scope.numeric_comparison(expression):
        kind = f"num_cmp({expression.op})"

    def passes(row: IdRow) -> bool:
        try:
            return test(row)
        except ExpressionError:
            return False

    return CompiledFilter(passes, kind, scope.anchored)


class _Reversed:
    """Inverts the comparison order of one DESC sort key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return isinstance(other, _Reversed) and self.key == other.key


def compile_order_key(
    order_by: Sequence[OrderCondition],
    slots: Mapping[Variable, int],
    dictionary,
    exists: ExistsHook | None = None,
) -> Callable[[IdRow], tuple]:
    """Compile an ORDER BY clause into a ``list.sort`` key over id rows.

    Keys follow :meth:`~repro.rdf.terms.Term.sort_key` (blank nodes <
    IRIs < literals, numeric literals by value); a condition that is
    unbound or an error in a row sorts lowest, i.e. first under ASC and
    last under DESC.  Python's sort is stable, so rows equal under every
    condition keep their arrival order.
    """
    scope = _Scope(slots, dictionary, exists)
    conditions = [
        (scope.value(condition.expression), condition.ascending)
        for condition in order_by
    ]

    def order_key(row: IdRow) -> tuple:
        keys = []
        for value, ascending in conditions:
            try:
                key = value(row).sort_key()
            except ExpressionError:
                key = _LOWEST
            keys.append(key if ascending else _Reversed(key))
        return tuple(keys)

    return order_key
