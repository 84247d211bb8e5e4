"""Direct tests for mediator-side FILTER evaluation and exceptions."""

import pytest

from repro.exceptions import (
    EvaluationError,
    FederationError,
    MemoryLimitError,
    NetworkError,
    ParseError,
    QueryTimeoutError,
    ReproError,
    TermError,
    UnknownEndpointError,
    UnsupportedQueryError,
)
from repro.rdf import IRI, Literal, Variable, typed_literal
from repro.relational import Relation
from repro.sparql.ast import (
    BGP,
    BooleanOp,
    Comparison,
    ExistsExpr,
    FunctionCall,
    GroupPattern,
    Not,
    TermExpr,
    VarExpr,
)
from repro.rdf.triple import TriplePattern

A, B = Variable("a"), Variable("b")


def holds(expression, solution) -> bool:
    """FILTER verdict for one solution, through ``Relation.filter``: the
    solution becomes a one-row relation over (?a, ?b), unbound = None."""
    relation = Relation([A, B], [(solution.get(A), solution.get(B))])
    return len(relation.filter(expression)) == 1


class TestMakeFilterPredicate:
    """Mediator-side FILTERs (class name kept from the days of
    ``make_filter_predicate``; the API is ``Relation.filter(expression)``)."""

    def test_comparison(self):
        expression = Comparison(">", VarExpr(A), TermExpr(typed_literal(5)))
        assert holds(expression, {A: typed_literal(7)})
        assert not holds(expression, {A: typed_literal(3)})

    def test_unbound_variable_is_false(self):
        expression = Comparison("=", VarExpr(A), TermExpr(typed_literal(1)))
        assert not holds(expression, {})
        # ... also for a variable the relation has no column for.
        assert len(Relation([B], [(typed_literal(1),)]).filter(expression)) == 0

    def test_boolean_combination(self):
        expression = BooleanOp(
            "&&",
            [
                Comparison(">", VarExpr(A), TermExpr(typed_literal(0))),
                Not(Comparison("=", VarExpr(A), TermExpr(typed_literal(3)))),
            ],
        )
        assert holds(expression, {A: typed_literal(2)})
        assert not holds(expression, {A: typed_literal(3)})

    def test_function_call(self):
        expression = FunctionCall("CONTAINS", [VarExpr(A), TermExpr(Literal("bc"))])
        assert holds(expression, {A: Literal("abcd")})
        assert not holds(expression, {A: Literal("xyz")})

    def test_cross_variable_filter(self):
        expression = Comparison("!=", VarExpr(A), VarExpr(B))
        assert holds(expression, {A: IRI("http://e/1"), B: IRI("http://e/2")})
        assert not holds(expression, {A: IRI("http://e/1"), B: IRI("http://e/1")})

    def test_numeric_coercion(self):
        # Plain literals that parse as numbers compare by value, which
        # id equality cannot express: "1" = "01", and 1 = "1.0".
        expression = Comparison("=", VarExpr(A), VarExpr(B))
        assert holds(expression, {A: Literal("1"), B: Literal("01")})
        assert holds(Comparison("=", VarExpr(A), TermExpr(Literal("01"))), {A: Literal("1")})
        assert holds(expression, {A: typed_literal(1), B: Literal("1.0")})
        assert not holds(expression, {A: Literal("1"), B: Literal("2")})

    def test_exists_rejected_at_mediator(self):
        pattern = GroupPattern([BGP([TriplePattern(A, IRI("http://e/p"), B)])])
        with pytest.raises(EvaluationError):
            Relation([A], []).filter(ExistsExpr(pattern, negated=True))

    def test_nested_exists_rejected(self):
        pattern = GroupPattern([BGP([TriplePattern(A, IRI("http://e/p"), B)])])
        nested = Not(ExistsExpr(pattern))
        with pytest.raises(EvaluationError):
            Relation([A], []).filter(nested)

    def test_relation_filter_integration(self):
        relation = Relation([A], [(typed_literal(i),) for i in range(5)])
        kept = relation.filter(Comparison(">=", VarExpr(A), TermExpr(typed_literal(3))))
        assert len(kept) == 2
        assert kept.rows == [(typed_literal(3),), (typed_literal(4),)]


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            TermError,
            EvaluationError,
            UnsupportedQueryError,
            NetworkError,
            UnknownEndpointError,
            FederationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_parse_error_location(self):
        error = ParseError("bad token", line=3, column=7)
        assert "line 3" in str(error) and "column 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_parse_error_without_location(self):
        error = ParseError("bad token")
        assert str(error) == "bad token"

    def test_timeout_carries_elapsed(self):
        error = QueryTimeoutError("budget gone", elapsed_ms=1234.5)
        assert error.elapsed_ms == 1234.5
        assert isinstance(error, FederationError)

    def test_memory_limit_carries_rows(self):
        error = MemoryLimitError("too big", rows=999)
        assert error.rows == 999
