"""Reference term-space data plane (pre-dictionary-encoding semantics).

The production path (:mod:`repro.store.triple_store`,
:mod:`repro.sparql.evaluator`) runs on dictionary-encoded integer ids.
This module preserves the original term-object implementation — nested
indexes keyed on terms, ``Triple`` materialization per match — as a
property-test oracle: the encoded evaluator must produce the same
solution multiset on randomized data.  It lives under ``tests/`` so no
engine can import it.

It intentionally mirrors the seed algorithms line for line (same
memoization keys, same compatibility rules); do not "optimize" it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple, TriplePattern

Solution = dict  # dict[Variable, Term]

_Index = dict  # nested: level1 -> level2 -> set(level3)


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


class ReferenceStore:
    """Term-keyed SPO/POS/OSP store, as before dictionary encoding."""

    def __init__(self):
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        objects = self._spo.get(triple.subject, {}).get(triple.predicate)
        return objects is not None and triple.object in objects

    def __iter__(self) -> Iterator[Triple]:
        for subject, by_predicate in self._spo.items():
            for predicate, objects in by_predicate.items():
                for obj in objects:
                    yield Triple(subject, predicate, obj)

    def add(self, triple: Triple) -> bool:
        if triple in self:
            return False
        s, p, o = triple.subject, triple.predicate, triple.object
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def match_pattern(self, pattern: TriplePattern) -> Iterator[Triple]:
        subject, predicate, object = pattern.subject, pattern.predicate, pattern.object
        s = subject if not isinstance(subject, Variable) else None
        p = predicate if not isinstance(predicate, Variable) else None
        o = object if not isinstance(object, Variable) else None
        iterator = self._match_bound(s, p, o)
        pattern_vars = [x for x in (subject, predicate, object) if isinstance(x, Variable)]
        if len(pattern_vars) != len(set(pattern_vars)):
            return (t for t in iterator if pattern.matches(t))
        return iterator

    def _match_bound(self, s: Term | None, p: Term | None, o: Term | None) -> Iterator[Triple]:
        if s is not None and p is not None and o is not None:
            triple = Triple(s, p, o)
            return iter((triple,)) if triple in self else iter(())
        if s is not None and p is not None:
            objects = self._spo.get(s, {}).get(p, ())
            return (Triple(s, p, obj) for obj in objects)
        if p is not None and o is not None:
            subjects = self._pos.get(p, {}).get(o, ())
            return (Triple(subj, p, o) for subj in subjects)
        if s is not None and o is not None:
            predicates = self._osp.get(o, {}).get(s, ())
            return (Triple(s, pred, o) for pred in predicates)
        if s is not None:
            return (
                Triple(s, pred, obj)
                for pred, objects in self._spo.get(s, {}).items()
                for obj in objects
            )
        if p is not None:
            return (
                Triple(subj, p, obj)
                for obj, subjects in self._pos.get(p, {}).items()
                for subj in subjects
            )
        if o is not None:
            return (
                Triple(subj, pred, o)
                for subj, predicates in self._osp.get(o, {}).items()
                for pred in predicates
            )
        return iter(self)


def reference_extend(
    store: ReferenceStore, pattern: TriplePattern, solutions: list[Solution]
) -> list[Solution]:
    """The seed evaluator's pattern-join step, term objects throughout."""
    pattern_vars = tuple(
        position for position in pattern.positions() if isinstance(position, Variable)
    )
    match_cache: dict[tuple, list[Triple]] = {}
    extended: list[Solution] = []
    for solution in solutions:
        key = tuple(solution.get(variable) for variable in pattern_vars)
        matches = match_cache.get(key)
        if matches is None:
            matches = list(store.match_pattern(pattern.bind(solution)))
            match_cache[key] = matches
        for triple in matches:
            new_solution = dict(solution)
            consistent = True
            for position, value in zip(pattern.positions(), triple):
                if isinstance(position, Variable):
                    existing = new_solution.get(position)
                    if existing is None:
                        new_solution[position] = value
                    elif existing != value:
                        consistent = False
                        break
            if consistent:
                extended.append(new_solution)
    return extended


def reference_bgp(
    store: ReferenceStore, patterns: Sequence[TriplePattern]
) -> list[Solution]:
    """Evaluate a basic graph pattern left to right in term space."""
    solutions: list[Solution] = [{}]
    for pattern in patterns:
        solutions = reference_extend(store, pattern, solutions)
        if not solutions:
            return []
    return solutions


# --------------------------------------------------------------------------
# Reference expression semantics (term space, SPARQL 1.1 §17)
#
# Written from the specification's tables, not from
# ``repro.sparql.expressions``: it walks the AST per solution over a
# ``{variable: term}`` mapping and models the *error* value as the
# sentinel :data:`ERROR` that every operator has to pass on explicitly,
# where the production code compiles closures over id rows and raises.
# The property tests run random expressions through every production
# site and require this module's verdicts.
#
# The repo's documented departures from §17 are encoded here on purpose
# (see ``repro/sparql/expressions.py``): plain literals that parse as
# numbers are numeric; ``<`` .. ``>=`` order two non-numeric literals by
# lexical form and two IRIs by text; EBV of an IRI / blank node is true;
# ``=`` on terms that are neither identical nor both numeric is false,
# not an error; DATATYPE of a language-tagged literal is xsd:string;
# integer division yields a double; STR / UCASE / LCASE yield plain
# literals.

import re as _re

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql import ast as _ast

#: The SPARQL *error* value.
ERROR = type("Error", (), {"__repr__": lambda self: "ERROR"})()

#: §17.2 truth tables, T / F / E for true / false / error.
_T, _F, _E = True, False, ERROR
_AND = {
    (_T, _T): _T, (_T, _F): _F, (_F, _T): _F, (_F, _F): _F,
    (_T, _E): _E, (_E, _T): _E, (_F, _E): _F, (_E, _F): _F, (_E, _E): _E,
}  # fmt: skip
_OR = {
    (_T, _T): _T, (_T, _F): _T, (_F, _T): _T, (_F, _F): _F,
    (_T, _E): _T, (_E, _T): _T, (_F, _E): _E, (_E, _F): _E, (_E, _E): _E,
}  # fmt: skip
_NOT = {_T: _F, _F: _T, _E: _E}


def _truth(value):
    """Effective boolean value (§17.2.2) of an evaluated operand."""
    if value is ERROR or isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        if value.datatype == XSD_BOOLEAN:
            return value.value == "true"
        number = value.numeric_value()
        if number is not None:
            return number != 0
        return len(value.value) > 0
    return True  # departure: IRIs and blank nodes are truthy


def _as_term(value):
    """A boolean result used as an operand is an xsd:boolean literal."""
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    return value


def _num(term):
    if isinstance(term, Literal):
        number = term.numeric_value()
        if number is not None:
            return number
    return ERROR


def _num_literal(number) -> Literal:
    if isinstance(number, int):
        return Literal(str(number), datatype=XSD_INTEGER)
    return Literal(repr(number), datatype=XSD_DOUBLE)


def _text(term):
    """Lexical form of a literal, or an IRI's text (STR)."""
    if isinstance(term, (Literal, IRI)):
        return term.value
    return ERROR


def _rdf_equal(left, right):
    if left == right:
        return True
    if _num(left) is not ERROR and _num(right) is not ERROR:
        return _num(left) == _num(right)
    return False


_ORDERINGS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compare(op, left, right):
    if op == "=":
        return _rdf_equal(left, right)
    if op == "!=":
        return not _rdf_equal(left, right)
    test = _ORDERINGS[op]
    if isinstance(left, Literal) and isinstance(right, Literal):
        if _num(left) is not ERROR and _num(right) is not ERROR:
            return test(_num(left), _num(right))
        return test(left.value, right.value)
    if isinstance(left, IRI) and isinstance(right, IRI):
        return test(left.value, right.value)
    return ERROR


_REGEX_FLAG_BITS = {"i": _re.I, "s": _re.S, "m": _re.M, "x": _re.X}


def _regex(text, pattern, flags=""):
    if ERROR in (text, pattern, flags) or any(f not in _REGEX_FLAG_BITS for f in flags):
        return ERROR
    bits = 0
    for flag in flags:
        bits |= _REGEX_FLAG_BITS[flag]
    try:
        return _re.search(pattern, text, bits) is not None
    except _re.error:
        return ERROR


def _lang_matches(tag, range_):
    if ERROR in (tag, range_):
        return ERROR
    tag, range_ = tag.lower(), range_.lower()
    if range_ == "*":
        return tag != ""
    return tag == range_ or tag.startswith(range_ + "-")


def reference_expression(expression, solution):
    """Value of ``expression`` under ``solution``: a term, a bool, or ERROR."""
    if isinstance(expression, _ast.VarExpr):
        return solution.get(expression.variable, ERROR)
    if isinstance(expression, _ast.TermExpr):
        return expression.term
    if isinstance(expression, _ast.Not):
        return _NOT[_truth(reference_expression(expression.operand, solution))]
    if isinstance(expression, _ast.BooleanOp):
        table = _AND if expression.op == "&&" else _OR
        verdicts = [_truth(reference_expression(op, solution)) for op in expression.operands]
        result = verdicts[0]
        for verdict in verdicts[1:]:
            result = table[(result, verdict)]
        return result
    if isinstance(expression, _ast.ExistsExpr):
        raise NotImplementedError("the reference has no graph: EXISTS is out of scope")

    def operand(node):
        return _as_term(reference_expression(node, solution))

    if isinstance(expression, _ast.Comparison):
        left, right = operand(expression.left), operand(expression.right)
        if ERROR in (left, right):
            return ERROR
        return _compare(expression.op, left, right)
    if isinstance(expression, _ast.Arithmetic):
        left, right = _num(operand(expression.left)), _num(operand(expression.right))
        if ERROR in (left, right):
            return ERROR
        if expression.op == "/":
            return ERROR if right == 0 else _num_literal(left / right)
        return _num_literal(
            {"+": left + right, "-": left - right, "*": left * right}[expression.op]
        )
    assert isinstance(expression, _ast.FunctionCall), expression
    name = expression.name
    if name == "BOUND":
        return expression.args[0].variable in solution
    args = [operand(arg) for arg in expression.args]
    if ERROR in args:
        return ERROR
    first = args[0]
    if name == "REGEX":
        return _regex(*map(_text, args))
    if name == "SAMETERM":
        return first == args[1]
    if name == "STR":
        return ERROR if _text(first) is ERROR else Literal(_text(first))
    if name == "LANG":
        return Literal(first.language or "") if isinstance(first, Literal) else ERROR
    if name == "DATATYPE":
        return IRI(first.datatype or XSD_STRING) if isinstance(first, Literal) else ERROR
    if name == "LANGMATCHES":
        return _lang_matches(_text(first), _text(args[1]))
    if name in ("CONTAINS", "STRSTARTS", "STRENDS"):
        text, part = _text(first), _text(args[1])
        if ERROR in (text, part):
            return ERROR
        if name == "CONTAINS":
            return part in text
        return text.startswith(part) if name == "STRSTARTS" else text.endswith(part)
    if name in ("STRLEN", "UCASE", "LCASE"):
        text = _text(first)
        if text is ERROR:
            return ERROR
        if name == "STRLEN":
            return _num_literal(len(text))
        return Literal(text.upper() if name == "UCASE" else text.lower())
    if name == "ABS":
        return ERROR if _num(first) is ERROR else _num_literal(abs(_num(first)))
    if name in ("ISIRI", "ISURI"):
        return isinstance(first, IRI)
    if name == "ISLITERAL":
        return isinstance(first, Literal)
    if name == "ISBLANK":
        return isinstance(first, BNode)
    if name == "ISNUMERIC":
        return _num(first) is not ERROR
    raise AssertionError(f"reference does not know {name}")


def reference_filter(expression, solution) -> bool:
    """FILTER verdict: the EBV is true (an error drops the solution)."""
    return _truth(reference_expression(expression, solution)) is True


def _order_rank(value) -> tuple:
    """§15.1: unbound / error < blank nodes < IRIs < literals; among
    literals, numeric ones by value first (a departure kept from
    ``Term.sort_key``), the rest by lexical form then language."""
    value = _as_term(value)
    if value is ERROR:
        return (0,)
    if isinstance(value, BNode):
        return (1, value.label)
    if isinstance(value, IRI):
        return (2, value.value)
    if _num(value) is not ERROR:
        return (3, 0, _num(value), value.value)
    return (3, 1, value.value, value.language or "")


def reference_order(order_by, solutions: list) -> list:
    """``solutions`` stably sorted by an ORDER BY clause: one stable
    pass per condition, least significant first."""
    ordered = list(solutions)
    for condition in reversed(order_by):
        ordered.sort(
            key=lambda solution: _order_rank(
                reference_expression(condition.expression, solution)
            ),
            reverse=not condition.ascending,
        )
    return ordered
