"""Unit tests for the RDF term model."""

import math

import pytest

from repro.exceptions import TermError
from repro.rdf import (
    BNode,
    IRI,
    Literal,
    Variable,
    XSD,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    effective_boolean_value,
    is_concrete,
    typed_literal,
)


class TestIRI:
    def test_equality_and_hash(self):
        assert IRI("http://a.org/x") == IRI("http://a.org/x")
        assert IRI("http://a.org/x") != IRI("http://a.org/y")
        assert hash(IRI("http://a.org/x")) == hash(IRI("http://a.org/x"))

    def test_iri_is_not_literal(self):
        assert IRI("http://a.org/x") != Literal("http://a.org/x")

    def test_empty_iri_rejected(self):
        with pytest.raises(TermError):
            IRI("")

    def test_n3(self):
        assert IRI("http://a.org/x").n3() == "<http://a.org/x>"

    def test_authority(self):
        assert IRI("http://a.org/path/x").authority == "http://a.org"
        assert IRI("https://b.net/x#frag").authority == "https://b.net"

    def test_authority_without_path(self):
        assert IRI("http://a.org").authority == "http://a.org"

    def test_authority_urn(self):
        assert IRI("urn:isbn:12345").authority == "urn:isbn"

    def test_local_name(self):
        assert IRI("http://a.org/x#frag").local_name == "frag"
        assert IRI("http://a.org/path/leaf").local_name == "leaf"

    def test_sort_key_orders_by_value(self):
        assert IRI("http://a.org/a").sort_key() < IRI("http://a.org/b").sort_key()


class TestLiteral:
    def test_plain_equality(self):
        assert Literal("x") == Literal("x")
        assert Literal("x") != Literal("y")

    def test_datatype_distinguishes(self):
        assert Literal("5", datatype=XSD_INTEGER) != Literal("5")

    def test_language_distinguishes(self):
        assert Literal("chat", language="fr") != Literal("chat", language="en")
        assert Literal("chat", language="fr") != Literal("chat")

    def test_language_and_datatype_conflict(self):
        with pytest.raises(TermError):
            Literal("x", datatype=XSD_INTEGER, language="en")

    def test_n3_plain(self):
        assert Literal("hello").n3() == '"hello"'

    def test_n3_escaping(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_n3_language(self):
        assert Literal("chat", language="fr").n3() == '"chat"@fr'

    def test_n3_typed(self):
        assert Literal("5", datatype=XSD_INTEGER).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_numeric_value_integer(self):
        assert Literal("42", datatype=XSD_INTEGER).numeric_value() == 42

    def test_numeric_value_double(self):
        assert Literal("4.5", datatype=XSD_DOUBLE).numeric_value() == pytest.approx(4.5)

    def test_numeric_value_plain_number(self):
        assert Literal("17").numeric_value() == 17

    def test_numeric_value_non_number(self):
        assert Literal("abc").numeric_value() is None

    def test_numeric_value_language_tagged(self):
        assert Literal("5", language="en").numeric_value() is None

    @pytest.mark.parametrize(
        "datatype",
        [
            XSD_INTEGER,
            XSD_FLOAT,
            *(
                XSD[name].value
                for name in (
                    "long", "int", "short", "byte", "nonNegativeInteger", "positiveInteger",
                    "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
                )
            ),
        ],
    )  # fmt: skip
    def test_numeric_value_of_every_xsd_numeric_type(self, datatype):
        assert Literal("10", datatype=datatype).numeric_value() == 10
        assert Literal(" 10\n", datatype=datatype).numeric_value() == 10

    def test_numeric_value_needs_the_datatypes_lexical_space(self):
        for value, datatype in [
            ("1.5", XSD_INTEGER),
            ("1e3", XSD_INTEGER),
            ("1e3", XSD_DECIMAL),
            ("INF", XSD_DECIMAL),
            ("300", XSD.byte.value),
            ("-1", XSD.nonNegativeInteger.value),
            ("0", XSD.positiveInteger.value),
            ("1", XSD.negativeInteger.value),
            ("1 000", XSD_INTEGER),
            ("", XSD_DOUBLE),
            ("abc", XSD_DOUBLE),
        ]:
            assert Literal(value, datatype=datatype).numeric_value() is None, (value, datatype)
        assert Literal("-0", datatype=XSD.nonNegativeInteger.value).numeric_value() == 0
        assert Literal("-1", datatype=XSD.nonPositiveInteger.value).numeric_value() == -1
        assert Literal("1.50", datatype=XSD_DECIMAL).numeric_value() == 1.5
        assert Literal(".5", datatype=XSD_DECIMAL).numeric_value() == 0.5
        assert Literal("1e3", datatype=XSD_DOUBLE).numeric_value() == 1000.0

    def test_python_number_syntax_is_not_xsd(self):
        # int() / float() read all of these; XSD reads none of them.
        python_only = ("1_000", "\u0661\u0662", "nan", "inf", "-inf", "Infinity", "0x10")
        for value in (*python_only, "\u00a017"):
            assert Literal(value).numeric_value() is None, value
            assert Literal(value, datatype=XSD_DOUBLE).numeric_value() is None, value

    def test_special_values_only_on_float_and_double(self):
        for datatype in (XSD_FLOAT, XSD_DOUBLE):
            assert Literal("INF", datatype=datatype).numeric_value() == math.inf
            assert Literal("-INF", datatype=datatype).numeric_value() == -math.inf
            assert math.isnan(Literal("NaN", datatype=datatype).numeric_value())
        for datatype in (None, XSD_INTEGER, XSD_DECIMAL):
            for value in ("INF", "-INF", "NaN"):
                assert Literal(value, datatype=datatype).numeric_value() is None

    def test_plain_literal_in_decimal_or_double_form(self):
        assert Literal("17").numeric_value() == 17
        assert Literal("-1.5").numeric_value() == -1.5
        assert Literal("2.5E2").numeric_value() == 250.0
        assert Literal(" 17 ").numeric_value() == 17
        for value in ("", ".", "-", "1.2.3", "1e", "e3"):
            assert Literal(value).numeric_value() is None, value

    def test_numeric_value_keeps_int_for_integer_text(self):
        assert isinstance(Literal("5", datatype=XSD_DOUBLE).numeric_value(), int)
        assert isinstance(Literal("5.0", datatype=XSD_DOUBLE).numeric_value(), float)
        # Past int()'s digit limit the nearest float, not a ValueError.
        assert Literal("9" * 5000, datatype=XSD_INTEGER).numeric_value() == math.inf

    def test_sort_key_numeric_before_text_consistency(self):
        five = Literal("5", datatype=XSD_INTEGER)
        ten = Literal("10", datatype=XSD_INTEGER)
        assert five.sort_key() < ten.sort_key()  # numeric, not lexicographic


class TestBNode:
    def test_equality(self):
        assert BNode("b1") == BNode("b1")
        assert BNode("b1") != BNode("b2")

    def test_n3(self):
        assert BNode("b1").n3() == "_:b1"

    def test_empty_label_rejected(self):
        with pytest.raises(TermError):
            BNode("")


class TestVariable:
    def test_equality(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_prefix_rejected(self):
        with pytest.raises(TermError):
            Variable("?x")

    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_is_not_concrete(self):
        assert not is_concrete(Variable("x"))
        assert is_concrete(IRI("http://a.org/x"))
        assert is_concrete(Literal("x"))


class TestTypedLiteral:
    def test_int(self):
        lit = typed_literal(5)
        assert lit.datatype == XSD_INTEGER and lit.value == "5"

    def test_bool_is_not_int(self):
        lit = typed_literal(True)
        assert lit.datatype == XSD_BOOLEAN and lit.value == "true"

    def test_float(self):
        lit = typed_literal(2.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.numeric_value() == pytest.approx(2.5)

    def test_non_finite_float_writes_the_xsd_spelling(self):
        assert typed_literal(math.inf) == Literal("INF", datatype=XSD_DOUBLE)
        assert typed_literal(-math.inf) == Literal("-INF", datatype=XSD_DOUBLE)
        assert typed_literal(math.nan) == Literal("NaN", datatype=XSD_DOUBLE)
        assert typed_literal(math.inf).numeric_value() == math.inf

    def test_str(self):
        assert typed_literal("x") == Literal("x")


class TestEffectiveBooleanValue:
    def test_none_is_false(self):
        assert effective_boolean_value(None) is False

    def test_bool_passthrough(self):
        assert effective_boolean_value(True) is True

    def test_boolean_literal(self):
        assert effective_boolean_value(Literal("true", datatype=XSD_BOOLEAN)) is True
        assert effective_boolean_value(Literal("false", datatype=XSD_BOOLEAN)) is False

    def test_numeric_zero_is_false(self):
        assert effective_boolean_value(Literal("0", datatype=XSD_INTEGER)) is False
        assert effective_boolean_value(Literal("3", datatype=XSD_INTEGER)) is True

    def test_empty_string_false(self):
        assert effective_boolean_value(Literal("")) is False

    def test_iri_is_true(self):
        assert effective_boolean_value(IRI("http://a.org/x")) is True
