"""Unit tests for the term dictionary and the encoded store's statistics."""

import pytest

from repro.rdf import IRI, BNode, Literal, Triple, Variable
from repro.store import TermDictionary, TripleStore

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


class TestTermDictionary:
    def test_round_trip_all_term_kinds(self):
        dictionary = TermDictionary()
        terms = [
            iri("a"),
            Literal("hello"),
            Literal("42", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
            Literal("chat", language="fr"),
            BNode("b0"),
        ]
        for term in terms:
            assert dictionary.decode(dictionary.encode(term)) == term

    def test_ids_are_dense_first_encounter_order(self):
        dictionary = TermDictionary()
        assert dictionary.encode(iri("a")) == 0
        assert dictionary.encode(iri("b")) == 1
        assert dictionary.encode(iri("a")) == 0  # interned, not re-assigned
        assert dictionary.encode(iri("c")) == 2
        assert len(dictionary) == 3

    def test_lookup_never_interns(self):
        dictionary = TermDictionary()
        dictionary.encode(iri("known"))
        assert dictionary.lookup(iri("unknown")) is None
        assert len(dictionary) == 1
        assert dictionary.lookup(iri("known")) == 0

    def test_distinct_literals_get_distinct_ids(self):
        dictionary = TermDictionary()
        plain = dictionary.encode(Literal("1"))
        typed = dictionary.encode(
            Literal("1", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer"))
        )
        tagged = dictionary.encode(Literal("1", language="en"))
        assert len({plain, typed, tagged}) == 3

    def test_encode_decode_row_pass_none_through(self):
        dictionary = TermDictionary()
        row = (iri("s"), None, Literal("x"))
        encoded = dictionary.encode_row(row)
        assert encoded[1] is None
        assert all(isinstance(v, int) for v in (encoded[0], encoded[2]))
        assert dictionary.decode_row(encoded) == row

    def test_decode_columns_is_decode_row_over_every_row(self):
        dictionary = TermDictionary()
        rows = [
            dictionary.encode_row(row)
            for row in [(iri("s"), None, Literal("x")), (iri("t"), iri("p"), Literal("x"))]
        ]
        # Column 0 and 2 are fully bound, column 1 holds an unbound slot.
        columns = [list(column) for column in zip(*rows)]
        assert dictionary.decode_columns(columns) == [dictionary.decode_row(r) for r in rows]
        assert dictionary.decode_columns([[], []]) == []

    def test_contains_and_iter(self):
        dictionary = TermDictionary()
        dictionary.encode(iri("a"))
        assert iri("a") in dictionary
        assert iri("b") not in dictionary
        assert list(dictionary) == [iri("a")]


class TestStoreStatistics:
    """The encoded store's incremental per-predicate statistics."""

    def _store(self):
        store = TripleStore()
        p, q = iri("p"), iri("q")
        store.add(Triple(iri("s1"), p, iri("o1")))
        store.add(Triple(iri("s1"), p, iri("o2")))
        store.add(Triple(iri("s2"), p, iri("o1")))
        store.add(Triple(iri("s3"), q, iri("o3")))
        return store, p, q

    def test_distinct_subjects_incremental(self):
        store, p, q = self._store()
        assert store.distinct_subjects(p) == 2
        assert store.distinct_subjects(q) == 1
        assert store.distinct_subjects(iri("absent")) == 0

    def test_distinct_subjects_tracks_removal(self):
        store, p, _ = self._store()
        # s1 still has one p-triple left after removing the other.
        store.remove(Triple(iri("s1"), p, iri("o2")))
        assert store.distinct_subjects(p) == 2
        store.remove(Triple(iri("s1"), p, iri("o1")))
        assert store.distinct_subjects(p) == 1

    def test_statistics_match_recomputation(self):
        store, p, q = self._store()
        for predicate in (p, q):
            expected = len({t.subject for t in store.match(None, predicate, None)})
            assert store.distinct_subjects(predicate) == expected
            assert store.predicate_count(predicate) == sum(
                1 for _ in store.match(None, predicate, None)
            )

    def test_dictionary_shared_with_store(self):
        store = TripleStore()
        store.add(Triple(iri("s"), iri("p"), iri("o")))
        for term in (iri("s"), iri("p"), iri("o")):
            term_id = store.dictionary.lookup(term)
            assert term_id is not None
            assert store.dictionary.decode(term_id) == term


def test_variable_interning():
    assert Variable("x") is Variable("x")
    assert Variable("x") == Variable("x")
    assert Variable("x") != Variable("y")
    with pytest.raises(Exception):
        Variable("?x")
