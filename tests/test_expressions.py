"""The one expression engine (``repro.sparql.expressions``) at every site.

Three layers of tests:

* unit tests of the compile step — id-space cases, three-valued logic,
  compile-once REGEX, malformed calls;
* regressions for the defects the four former copies had drifted into
  (ORDER BY on expression keys and on non-projected variables, ``!`` of
  an error, invalid REGEX), store-level and through all five engines;
* a hypothesis expression grammar run through a compiled endpoint plan,
  the interpretive oracle, ``Relation.filter`` on the mediator codec and
  both ORDER BY sites, each required to equal the term-space reference
  in ``tests/reference_sparql.py`` (written from the SPARQL §17 tables,
  sharing no code with the module under test).
"""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import AnapsidEngine, FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailConfig, LusailEngine
from repro.endpoint import Endpoint, Federation
from repro.exceptions import EvaluationError, ReproError
from repro.planning.base_engine import ExecutionOutcome
from repro.planning.normalize import normalize
from repro.rdf import IRI, BNode, Literal, Triple, TriplePattern, Variable, typed_literal
from repro.rdf.terms import XSD_DATE, XSD_STRING
from repro.relational import Relation
from repro.sparql import compile_query, evaluate_select, parse_query
from repro.sparql.ast import (
    BGP,
    Arithmetic,
    BooleanOp,
    Comparison,
    ExistsExpr,
    Filter,
    FunctionCall,
    GroupPattern,
    Not,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    TermExpr,
    VarExpr,
)
from repro.sparql.expressions import compile_filter, compile_order_key
from repro.store import TripleStore
from repro.store.dictionary import TermDictionary
from tests.conftest import oracle_rows
from tests.reference_sparql import reference_filter, reference_order

A, B, S, U = Variable("a"), Variable("b"), Variable("s"), Variable("u")
EX = "http://e.org/"


def iri(name: str) -> IRI:
    return IRI(EX + name)


def lit(value) -> TermExpr:
    return TermExpr(typed_literal(value))


#: The seven engine entries of the identity matrices: Lusail under each
#: strategy, and the four baselines.
ENGINES = {
    "Lusail/bound-join": lambda f: LusailEngine(f, config=LusailConfig(strategy="bound-join")),
    "Lusail/partial": lambda f: LusailEngine(f, config=LusailConfig(strategy="partial")),
    "Lusail/auto": lambda f: LusailEngine(f, config=LusailConfig(strategy="auto")),
    "FedX": FedXEngine,
    "HiBISCuS": HibiscusEngine,
    "SPLENDID": SplendidEngine,
    "ANAPSID": AnapsidEngine,
}


# --------------------------------------------------------------------------
# The compile step


class TestCompileStep:
    def _passes(self, expression, row, slots=None, dictionary=None):
        dictionary = dictionary or TermDictionary()
        slots = {A: 0, B: 1} if slots is None else slots
        ids = tuple(None if term is None else dictionary.encode(term) for term in row)
        return compile_filter(expression, slots, dictionary).passes(ids)

    def test_equality_with_non_numeric_constant_runs_on_ids(self):
        dictionary = TermDictionary()
        for op, label in (("=", "id_eq(=)"), ("!=", "id_eq(!=)")):
            for const in (iri("x"), BNode("b"), Literal("abc"), Literal("x", language="en")):
                for flip in (False, True):
                    sides = (TermExpr(const), VarExpr(A)) if flip else (VarExpr(A), TermExpr(const))
                    compiled = compile_filter(Comparison(op, *sides), {A: 0}, dictionary)
                    assert compiled.kind == label and not compiled.anchored
                    same = (dictionary.encode(const),)
                    other = (dictionary.encode(iri("other")),)
                    assert compiled.passes(same) == (op == "=")
                    assert compiled.passes(other) == (op == "!=")
                    # Unbound is an error either way: dropped.
                    assert not compiled.passes((None,))

    def test_numeric_constant_stays_in_term_space(self):
        compiled = compile_filter(Comparison("=", VarExpr(A), lit(1)), {A: 0}, TermDictionary())
        assert compiled.kind == "filter"
        assert self._passes(Comparison("=", VarExpr(A), lit(1)), (Literal("01"), None))
        assert self._passes(Comparison("=", VarExpr(A), TermExpr(Literal("01"))), (Literal("1"), None))

    def test_ordering_and_var_var_comparisons_are_general(self):
        for expression in (
            Comparison("<", VarExpr(A), TermExpr(iri("x"))),
            Comparison("=", VarExpr(A), VarExpr(B)),
        ):
            assert compile_filter(expression, {A: 0, B: 1}, TermDictionary()).kind == "filter"

    def test_bound_and_exists_anchor_the_filter(self):
        bound = FunctionCall("BOUND", [VarExpr(A)])
        compiled = compile_filter(Not(bound), {A: 0}, TermDictionary())
        assert compiled.anchored
        assert compiled.passes((None,)) and not compiled.passes((0,))
        # A variable outside the schema is never bound.
        assert not compile_filter(bound, {}, TermDictionary()).passes(())
        pattern = GroupPattern([BGP([TriplePattern(A, iri("p"), B)])])
        nested = BooleanOp("||", [Comparison(">", VarExpr(A), lit(1)), ExistsExpr(pattern)])
        seen = []

        def hook(node):
            seen.append(node)
            return lambda row: True

        assert compile_filter(nested, {A: 0}, TermDictionary(), hook).anchored
        assert seen == [ExistsExpr(pattern)]
        with pytest.raises(EvaluationError):
            compile_filter(nested, {A: 0}, TermDictionary())

    def test_sameterm_in_id_space(self):
        same = FunctionCall("SAMETERM", [VarExpr(A), VarExpr(B)])
        assert self._passes(same, (Literal("1"), Literal("1")))
        # sameTerm is identity, not value equality.
        assert not self._passes(same, (Literal("1"), Literal("01")))
        assert not self._passes(same, (Literal("1"), None))
        const = FunctionCall("SAMETERM", [VarExpr(A), lit(1)])
        assert self._passes(const, (typed_literal(1), None))
        assert not self._passes(const, (Literal("1"), None))
        # ... and over computed operands it compares terms.
        computed = FunctionCall("SAMETERM", [FunctionCall("STR", [VarExpr(A)]), VarExpr(B)])
        assert self._passes(computed, (iri("x"), Literal(EX + "x")))

    @pytest.mark.parametrize(
        "left, right, conjunction, disjunction",
        [  # SPARQL 1.1 §17.2: T / F / E operands -> value of l && r, l || r
            ("T", "T", "T", "T"),
            ("T", "F", "F", "T"),
            ("F", "F", "F", "F"),
            ("T", "E", "E", "T"),
            ("E", "T", "E", "T"),
            ("F", "E", "F", "E"),
            ("E", "F", "F", "E"),
            ("E", "E", "E", "E"),
        ],
    )
    def test_three_valued_logic(self, left, right, conjunction, disjunction):
        operand = {
            "T": Comparison("=", lit(1), lit(1)),
            "F": Comparison("=", lit(1), lit(2)),
            "E": Comparison(">", VarExpr(U), lit(1)),  # ?u is never bound
        }
        for op, value in (("&&", conjunction), ("||", disjunction)):
            tree = BooleanOp(op, [operand[left], operand[right]])
            # A FILTER keeps the row only on true; under ``!`` only on
            # false — an error is dropped both ways.
            assert self._passes(tree, (None, None)) is (value == "T")
            assert self._passes(Not(tree), (None, None)) is (value == "F")

    def test_constant_regex_compiles_once(self, monkeypatch):
        compiled_patterns = []
        real = re.compile

        def counting(pattern, flags=0):
            compiled_patterns.append(pattern)
            return real(pattern, flags)

        monkeypatch.setattr(re, "compile", counting)
        dictionary = TermDictionary()
        call = FunctionCall("REGEX", [VarExpr(A), TermExpr(Literal("^ab")), TermExpr(Literal("i"))])
        passes = compile_filter(call, {A: 0}, dictionary).passes
        rows = [(dictionary.encode(Literal(text)),) for text in ("ABc", "xab", "abab")]
        assert [passes(row) for row in rows] == [True, False, True]
        assert compiled_patterns == ["^ab"]

    def test_invalid_regex_is_an_expression_error(self):
        for pattern, flags in (("(", ""), ("[", "i"), ("a", "z"), ("a{2,1}", "")):
            call = FunctionCall(
                "REGEX", [VarExpr(A), TermExpr(Literal(pattern)), TermExpr(Literal(flags))]
            )
            assert not self._passes(call, (Literal("a"), None))
            # An error, not false: negation does not revive the row.
            assert not self._passes(Not(call), (Literal("a"), None))
            dynamic = FunctionCall("REGEX", [VarExpr(A), VarExpr(B), TermExpr(Literal(flags))])
            assert not self._passes(dynamic, (Literal("a"), Literal(pattern)))
        assert self._passes(FunctionCall("REGEX", [VarExpr(A), VarExpr(B)]), (Literal("xay"), Literal("a")))

    def test_regex_flags(self):
        def regex(text, pattern, flags):
            call = FunctionCall(
                "REGEX", [VarExpr(A), TermExpr(Literal(pattern)), TermExpr(Literal(flags))]
            )
            return self._passes(call, (Literal(text), None))

        assert regex("a\nb", "a.b", "s") and not regex("a\nb", "a.b", "")
        assert regex("a\nb", "^b", "m") and not regex("a\nb", "^b", "")
        assert regex("ab", "a b", "x") and not regex("ab", "a b", "")
        assert regex("AB", "a.", "is")

    @pytest.mark.parametrize(
        "name, args",
        [
            ("STRLEN", []),
            ("STRLEN", [VarExpr(A), VarExpr(B)]),
            ("REGEX", [VarExpr(A)]),
            ("REGEX", [VarExpr(A)] * 4),
            ("SAMETERM", [VarExpr(A)]),
            ("BOUND", []),
            ("BOUND", [lit(1)]),
            ("CONTAINS", [VarExpr(A)]),
        ],
    )
    def test_malformed_calls_fail_the_compile_step(self, name, args):
        with pytest.raises(EvaluationError):
            compile_filter(FunctionCall(name, args), {A: 0, B: 1}, TermDictionary())
        with pytest.raises(EvaluationError):
            compile_order_key(
                [OrderCondition(FunctionCall(name, args))], {A: 0, B: 1}, TermDictionary()
            )

    def test_arithmetic_overflow_is_an_error(self):
        huge = TermExpr(Literal("1" + "0" * 400, datatype=typed_literal(1).datatype))
        for expression in (Arithmetic("/", huge, lit(3)), Arithmetic("+", huge, lit(0.5))):
            test = Comparison(">", expression, lit(0))
            assert not self._passes(test, (None, None))
            assert not self._passes(Not(test), (None, None))

    def test_order_key_sorts_errors_lowest_and_desc_is_stable(self):
        dictionary = TermDictionary()
        terms = [typed_literal(2), iri("x"), typed_literal(10), None, Literal("abc"), typed_literal(2)]
        rows = [(None if t is None else dictionary.encode(t), i) for i, t in enumerate(terms)]
        plus_one = Arithmetic("+", VarExpr(A), lit(1))
        ascending = compile_order_key([OrderCondition(plus_one)], {A: 0}, dictionary)
        # IRI, unbound and "abc" cannot be added to: three errors first,
        # in arrival order, then 2, 2 (arrival order), 10.
        assert [row[1] for row in sorted(rows, key=ascending)] == [1, 3, 4, 0, 5, 2]
        descending = compile_order_key([OrderCondition(plus_one, False)], {A: 0}, dictionary)
        assert [row[1] for row in sorted(rows, key=descending)] == [2, 0, 5, 1, 3, 4]


# --------------------------------------------------------------------------
# Defect regressions at store level


def _store(triples) -> TripleStore:
    store = TripleStore()
    store.add_all(triples)
    return store


def _both(store, text):
    """(interpreter rows, compiled rows) for one query."""
    query = parse_query(text)
    return evaluate_select(store, query).rows, compile_query(store, query).execute_select().rows


P, Q = iri("p"), iri("q")
ABC = [
    Triple(iri("a"), P, Literal("2")),
    Triple(iri("b"), P, Literal("3")),
    Triple(iri("c"), P, Literal("1")),
]


class TestOrderByBeforeProjection:
    def test_order_by_variable_outside_select_list(self):
        text = f"SELECT ?x WHERE {{ ?x <{P.value}> ?n }} ORDER BY DESC(?n)"
        expected = [(iri("b"),), (iri("a"),), (iri("c"),)]
        interpreted, compiled = _both(_store(ABC), text)
        assert interpreted == expected
        assert compiled == expected

    #: ?x = c has ?n in {2, 5}, b has {3}, a has {1}.
    DUPLICATES = [
        Triple(iri("a"), P, typed_literal(1)),
        Triple(iri("c"), P, typed_literal(2)),
        Triple(iri("b"), P, typed_literal(3)),
        Triple(iri("c"), P, typed_literal(5)),
    ]

    def test_distinct_applies_after_ordering_on_a_dropped_variable(self):
        # Ordered by DESC(?n) the solutions are c(5), b(3), c(2), a(1):
        # DISTINCT keeps the first c.
        store = _store(self.DUPLICATES)
        text = f"SELECT DISTINCT ?x WHERE {{ ?x <{P.value}> ?n }} ORDER BY DESC(?n)"
        interpreted, compiled = _both(store, text)
        assert interpreted == compiled == [(iri("c"),), (iri("b"),), (iri("a"),)]
        interpreted, compiled = _both(store, text.replace("DESC(?n)", "?n"))
        assert interpreted == compiled == [(iri("a"),), (iri("c"),), (iri("b"),)]
        interpreted, compiled = _both(store, text + " OFFSET 1 LIMIT 1")
        assert interpreted == compiled == [(iri("b"),)]

    def test_order_by_expression_key(self):
        text = f"SELECT ?x WHERE {{ ?x <{P.value}> ?n }} ORDER BY DESC(?n * -1)"
        interpreted, compiled = _both(_store(ABC), text)
        assert interpreted == compiled == [(iri("c"),), (iri("a"),), (iri("b"),)]

    def test_limit_without_order_by_still_streams(self):
        # The compiled tail keeps its early exit: a LIMIT 1 plan is lazy
        # and stops after the first row instead of materialising all.
        store = _store([Triple(iri(f"s{i}"), P, typed_literal(i)) for i in range(50)])
        calls = []
        original = store.match_ids
        store.match_ids = lambda s, p, o: calls.append(1) or original(s, p, o)
        plan = compile_query(store, parse_query(f"SELECT ?x WHERE {{ ?x <{P.value}> ?n . ?x <{P.value}> ?m }} LIMIT 1"))
        assert len(plan.execute_select().rows) == 1
        assert len(calls) == 2  # one scan opened, one probe for its first row


class TestNegatedErrors:
    TRIPLES = ABC + [Triple(iri("a"), Q, typed_literal(9)), Triple(iri("b"), Q, iri("z"))]

    def test_not_over_unbound_optional_variable(self):
        text = (
            f"SELECT ?x ?y WHERE {{ ?x <{P.value}> ?n OPTIONAL {{ ?x <{Q.value}> ?y }} "
            "FILTER(!(?y > 5)) }"
        )
        # a: 9 > 5, so !true drops it; b: IRI > 5 is a type error;
        # c: ?y unbound is an error.  Nothing survives.
        interpreted, compiled = _both(_store(self.TRIPLES), text)
        assert interpreted == compiled == []
        kept = text.replace("?y > 5", "?y > 10")
        interpreted, compiled = _both(_store(self.TRIPLES), kept)
        assert interpreted == compiled == [(iri("a"), typed_literal(9))]

    def test_not_over_type_error(self):
        text = f"SELECT ?x WHERE {{ ?x <{P.value}> ?n FILTER(!(?x > 5)) }}"
        interpreted, compiled = _both(_store(self.TRIPLES), text)
        assert interpreted == compiled == []

    def test_invalid_regex_drops_rows_instead_of_raising(self):
        text = f'SELECT ?x WHERE {{ ?x <{P.value}> ?n FILTER(REGEX(?n, "(")) }}'
        interpreted, compiled = _both(_store(self.TRIPLES), text)
        assert interpreted == compiled == []


class TestNestedExists:
    """An EXISTS below the top of a FILTER / in an ORDER BY key runs a
    compiled lazy sub-plan, not the interpreter."""

    TRIPLES = ABC + [Triple(iri("a"), Q, iri("z"))]

    def test_nested_exists_in_filter_and_order_key(self, monkeypatch):
        store = _store(self.TRIPLES)
        filter_text = (
            f"SELECT ?x WHERE {{ ?x <{P.value}> ?n "
            f'FILTER(?n = "3" || EXISTS {{ ?x <{Q.value}> ?z }}) }} ORDER BY ?x'
        )
        order_text = (
            f"SELECT ?x WHERE {{ ?x <{P.value}> ?n }} "
            f"ORDER BY DESC(EXISTS {{ ?x <{Q.value}> ?z }}) ?x"
        )
        expected_filter = evaluate_select(store, parse_query(filter_text)).rows
        expected_order = evaluate_select(store, parse_query(order_text)).rows
        assert expected_filter == [(iri("a"),), (iri("b"),)]
        assert expected_order == [(iri("a"),), (iri("b"),), (iri("c"),)]

        from repro.sparql import evaluator

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a compiled plan reached the interpreter")

        monkeypatch.setattr(evaluator._Evaluator, "__init__", forbidden)
        plan = compile_query(store, parse_query(filter_text))
        assert plan.explain()[-1] == "filter"
        assert plan.execute_select().rows == expected_filter
        assert plan.execute_select().rows == expected_filter  # re-execution rebinds
        assert compile_query(store, parse_query(order_text)).execute_select().rows == expected_order


# --------------------------------------------------------------------------
# Defect regressions through the federated engines


def _federation(triples, endpoints: int = 2) -> Federation:
    return Federation(
        [Endpoint(f"ep{i}", triples[i::endpoints]) for i in range(endpoints)]
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
class TestFederatedModifiers:
    def test_order_by_expression_key_on_lubm(self, engine_name, lubm2):
        text = (
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
            "SELECT ?x ?n WHERE { ?x ub:name ?n . ?x ub:worksFor ?d } "
            "ORDER BY DESC(STR(?n)) ?x LIMIT 5"
        )
        expected = oracle_rows(lubm2, text)
        assert len(expected) == 5
        assert [row[1].value for row in expected] == sorted(
            (row[1].value for row in expected), reverse=True
        )
        outcome = ENGINES[engine_name](lubm2).execute(text)
        assert outcome.ok, outcome.error
        assert outcome.result.rows == expected

    def test_order_by_variable_outside_select_list(self, engine_name):
        federation = _federation(ABC)
        text = f"SELECT ?x WHERE {{ ?x <{P.value}> ?n }} ORDER BY DESC(?n)"
        outcome = ENGINES[engine_name](federation).execute(text)
        assert outcome.ok, outcome.error
        assert outcome.result.rows == [(iri("b"),), (iri("a"),), (iri("c"),)]

    def test_distinct_after_order_by_dropped_variable(self, engine_name):
        triples = TestOrderByBeforeProjection.DUPLICATES + [
            Triple(iri(name), Q, iri("z")) for name in "abc"
        ]
        text = (
            f"SELECT DISTINCT ?x WHERE {{ ?x <{P.value}> ?n . ?x <{Q.value}> ?z }} "
            "ORDER BY DESC(?n + 0) LIMIT 2"
        )
        federation = _federation(triples)
        assert oracle_rows(federation, text) == [(iri("c"),), (iri("b"),)]
        outcome = ENGINES[engine_name](federation).execute(text)
        assert outcome.ok, outcome.error
        assert outcome.result.rows == [(iri("c"),), (iri("b"),)]

    def test_negated_error_drops_the_row(self, engine_name):
        triples = TestNegatedErrors.TRIPLES
        text = (
            f"SELECT ?x ?y WHERE {{ ?x <{P.value}> ?n OPTIONAL {{ ?x <{Q.value}> ?y }} "
            "FILTER(!(?y > 10)) }"
        )
        federation = _federation(triples)
        outcome = ENGINES[engine_name](federation).execute(text)
        assert outcome.ok, outcome.error
        assert outcome.result.rows == [(iri("a"), typed_literal(9))]
        assert oracle_rows(federation, text) == outcome.result.rows

    #: Calls whose arguments are malformed.  Row-level errors drop rows
    #: (an ``ExecutionOutcome`` equal to the oracle); malformed *calls*
    #: are refused with a typed error.  ?y ranges over a number, an IRI,
    #: a blank node and unbound.
    MALFORMED = [
        'REGEX(?n, "(")',
        'REGEX(?n, "a", "q!")',
        "REGEX(?n, ?y, ?y)",
        "STRLEN(?y) > 1",
        "!(STRLEN(?y) > 1)",
        'ABS("x") > 0',
        "ABS(?y) > 0",
        "1 / 0 > 0",
        "?n / (?n - ?n) > 0",
        "STRLEN() > 1",
        "REGEX(?n)",
        "BOUND(1)",
    ]
    MALFORMED_TRIPLES = TestNegatedErrors.TRIPLES + [Triple(iri("c"), Q, BNode("n1"))]

    @pytest.mark.parametrize("call", MALFORMED)
    def test_only_typed_errors_escape(self, engine_name, call):
        federation = _federation(self.MALFORMED_TRIPLES)
        engine = ENGINES[engine_name](federation)
        # At the mediator (the filter spans the required and the OPTIONAL
        # subquery) and pushed into one endpoint subquery.
        for text in (
            f"SELECT ?x ?y WHERE {{ ?x <{P.value}> ?n OPTIONAL {{ ?x <{Q.value}> ?y }} FILTER({call}) }}",
            f"SELECT ?x ?y WHERE {{ ?x <{P.value}> ?n . ?x <{Q.value}> ?y FILTER({call}) }}",
        ):
            try:
                outcome = engine.execute(text)
            except ReproError:
                with pytest.raises(EvaluationError):
                    oracle_rows(federation, text)
                continue
            assert isinstance(outcome, ExecutionOutcome)
            assert outcome.ok, outcome.error
            assert Counter(outcome.result.rows) == Counter(oracle_rows(federation, text))


# --------------------------------------------------------------------------
# Expression grammar vs the term-space reference

_TERMS = [
    typed_literal(-1),
    typed_literal(0),
    typed_literal(1),
    typed_literal(5),
    typed_literal(0.5),
    typed_literal(1.0),
    Literal("1"),
    Literal("01"),
    Literal("abc"),
    Literal("ABC"),
    Literal(""),
    Literal("1", datatype=XSD_STRING),
    Literal("abc", language="en"),
    Literal("abc", language="en-GB"),
    Literal("2020-01-01", datatype=XSD_DATE),
    typed_literal(True),
    typed_literal(False),
    iri("x"),
    iri("abc"),
    BNode("b1"),
]
_VARS = [VarExpr(A), VarExpr(B), VarExpr(U)]  # ?u is never bound
_PATTERNS = ["^a", "b", "1", "A.C", "(", "[", ""]
_FLAGS = ["", "i", "s", "z"]

_leaves = st.one_of(
    st.sampled_from(_VARS),
    st.sampled_from(_VARS),
    st.sampled_from(_TERMS).map(TermExpr),
)


def _calls(name, *argument_strategies):
    return st.tuples(*argument_strategies).map(lambda args: FunctionCall(name, list(args)))


def _trees(children):
    """One more level over ``children``: value- and boolean-valued nodes
    alike, so operands of the wrong kind occur everywhere."""
    constants = st.sampled_from(_TERMS).map(TermExpr)
    return st.one_of(
        st.builds(Comparison, st.sampled_from(Comparison.OPS), children, children),
        st.builds(Arithmetic, st.sampled_from(Arithmetic.OPS), children, children),
        st.builds(BooleanOp, st.sampled_from(["&&", "||"]), st.lists(children, min_size=2, max_size=3)),
        st.builds(Not, children),
        st.sampled_from([A, B, U]).map(lambda var: FunctionCall("BOUND", [VarExpr(var)])),
        _calls("REGEX", children, st.sampled_from(_PATTERNS).map(Literal).map(TermExpr)),
        _calls(
            "REGEX",
            children,
            st.sampled_from(_PATTERNS).map(Literal).map(TermExpr),
            st.sampled_from(_FLAGS).map(Literal).map(TermExpr),
        ),
        _calls("REGEX", children, children),
        _calls("SAMETERM", children, st.one_of(children, constants)),
        *[
            _calls(name, children)
            for name in (
                "STR", "LANG", "DATATYPE", "STRLEN", "UCASE", "LCASE", "ABS",
                "ISIRI", "ISLITERAL", "ISBLANK", "ISNUMERIC",
            )
        ],
        *[
            _calls(name, children, children)
            for name in ("CONTAINS", "STRSTARTS", "STRENDS", "LANGMATCHES")
        ],
    )  # fmt: skip


_expressions = st.recursive(_leaves, _trees, max_leaves=8)
_bindings = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(_TERMS)), st.one_of(st.none(), st.sampled_from(_TERMS))),
    min_size=1,
    max_size=8,
)

PA, PB, PK = iri("pa"), iri("pb"), iri("pk")


def _data(bindings):
    """A store where subject ``s<i>`` has the i-th (?a, ?b) pair, plus
    the solutions of ``?s pk ?k OPTIONAL{?s pa ?a} OPTIONAL{?s pb ?b}``."""
    triples, solutions = [], []
    for index, (a, b) in enumerate(bindings):
        subject = iri(f"s{index:02d}")
        triples.append(Triple(subject, PK, typed_literal(index)))
        solution = {S: subject}
        for predicate, variable, term in ((PA, A, a), (PB, B, b)):
            if term is not None:
                triples.append(Triple(subject, predicate, term))
                solution[variable] = term
        solutions.append(solution)
    return _store(triples), solutions


def _where(*filters) -> GroupPattern:
    return GroupPattern(
        [
            BGP([TriplePattern(S, PK, Variable("k"))]),
            OptionalPattern(GroupPattern([BGP([TriplePattern(S, PA, A)])])),
            OptionalPattern(GroupPattern([BGP([TriplePattern(S, PB, B)])])),
            *[Filter(expression) for expression in filters],
        ]
    )


def _rows(solutions):
    return [(s[S], s.get(A), s.get(B)) for s in solutions]


@given(_bindings, _expressions)
@settings(max_examples=300, deadline=None)
def test_filter_sites_match_reference(bindings, expression):
    store, solutions = _data(bindings)
    expected = Counter(_rows(s for s in solutions if reference_filter(expression, s)))
    query = SelectQuery(where=_where(expression), select_vars=(S, A, B))
    # (i) compiled endpoint plan, (ii) the interpretive oracle ...
    assert Counter(compile_query(store, query).execute_select().rows) == expected
    assert Counter(evaluate_select(store, query).rows) == expected
    # ... (iii) the mediator: Relation.filter on the shared codec.
    relation = Relation([S, A, B], _rows(solutions))
    assert Counter(relation.filter(expression).rows) == expected
    # Negation is where error and false part ways.
    negated = Counter(_rows(s for s in solutions if reference_filter(Not(expression), s)))
    assert Counter(relation.filter(Not(expression)).rows) == negated
    assert not (negated & expected)


@pytest.fixture(scope="module")
def finalizer():
    """Any engine: ``_finalize`` is the shared mediator tail."""
    return FedXEngine(Federation([Endpoint("only", ABC)]))


@given(
    _bindings,
    st.lists(st.tuples(_expressions, st.booleans()), min_size=1, max_size=2),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_order_by_sites_match_reference(finalizer, bindings, conditions, distinct):
    store, solutions = _data(bindings)
    # ?s is unique per solution: as the last key it makes the order total,
    # so every site must produce the same *list*.
    order_by = [OrderCondition(e, ascending) for e, ascending in conditions]
    order_by.append(OrderCondition(VarExpr(S)))
    ordered = reference_order(order_by, solutions)
    # Project away what the keys read (SPARQL orders before projecting).
    expected = [(s.get(A),) for s in ordered]
    if distinct:
        expected = list(dict.fromkeys(expected))
    query = SelectQuery(
        where=_where(), select_vars=(A,), distinct=distinct, order_by=order_by
    )
    assert compile_query(store, query).execute_select().rows == expected
    assert evaluate_select(store, query).rows == expected
    relation = Relation([S, A, B], _rows(solutions))
    assert finalizer._finalize(relation, normalize(query)).rows == expected
