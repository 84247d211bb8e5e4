"""Unit tests for namespaces and prefix maps."""

import pytest

from repro.exceptions import ParseError
from repro.rdf import IRI, Namespace, PrefixMap, RDF, UB


class TestNamespace:
    def test_attribute_access(self):
        ns = Namespace("http://ex.org/v#")
        assert ns.thing == IRI("http://ex.org/v#thing")

    def test_item_access(self):
        ns = Namespace("http://ex.org/v#")
        assert ns["odd-name"] == IRI("http://ex.org/v#odd-name")

    def test_contains(self):
        assert UB.advisor in UB
        assert RDF.type not in UB

    def test_underscore_attribute_raises(self):
        ns = Namespace("http://ex.org/v#")
        with pytest.raises(AttributeError):
            ns._private

    def test_attribute_access_returns_one_object_per_name(self):
        ns = Namespace("http://ex.org/v#")
        first = ns.thing
        assert ns.thing is first
        assert ns.other is not first
        assert UB.memberOf is UB.memberOf
        assert RDF.type is RDF.type

    def test_item_access_is_equal_and_memoises_nothing(self):
        ns = Namespace("http://ex.org/v#")
        before = dict(vars(ns))
        item = ns["drug7"]
        assert item == IRI("http://ex.org/v#drug7")
        assert ns["drug7"] is not item
        assert vars(ns) == before
        # An indexed name stays unmemoised after its attribute is read.
        assert ns["thing"] is not ns.thing
        assert ns["thing"] == ns.thing


class TestPrefixMap:
    def test_default_prefixes_present(self):
        prefixes = PrefixMap()
        assert prefixes.expand("rdf:type") == RDF.type
        assert prefixes.expand("ub:advisor") == UB.advisor

    def test_bind_and_expand(self):
        prefixes = PrefixMap()
        prefixes.bind("ex", "http://ex.org/")
        assert prefixes.expand("ex:thing") == IRI("http://ex.org/thing")

    def test_unknown_prefix_raises(self):
        with pytest.raises(ParseError):
            PrefixMap().expand("nope:thing")

    def test_not_a_prefixed_name_raises(self):
        with pytest.raises(ParseError):
            PrefixMap().expand("plainname")

    def test_shrink_uses_longest_match(self):
        prefixes = PrefixMap()
        prefixes.bind("a", "http://ex.org/")
        prefixes.bind("ab", "http://ex.org/deep/")
        assert prefixes.shrink(IRI("http://ex.org/deep/x")) == "ab:x"

    def test_shrink_falls_back_to_n3(self):
        prefixes = PrefixMap()
        iri = IRI("http://unknown.org/x")
        assert prefixes.shrink(iri) == iri.n3()

    def test_shrink_refuses_slashy_local(self):
        prefixes = PrefixMap()
        prefixes.bind("ex", "http://ex.org/")
        iri = IRI("http://ex.org/a/b")
        assert prefixes.shrink(iri) == iri.n3()

    def test_copy_is_independent(self):
        original = PrefixMap()
        clone = original.copy()
        clone.bind("ex", "http://ex.org/")
        with pytest.raises(ParseError):
            original.expand("ex:x")
