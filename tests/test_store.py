"""Unit and property tests for the indexed triple store."""

from hypothesis import example, given, settings, strategies as st

from repro.rdf import IRI, Literal, Triple, TriplePattern, Variable
from repro.rdf.namespaces import RDF_TYPE
from repro.store import TripleStore

S1, S2 = IRI("http://a.org/s1"), IRI("http://a.org/s2")
P1, P2 = IRI("http://a.org/p1"), IRI("http://a.org/p2")
O1, O2 = IRI("http://a.org/o1"), Literal("two")
X = Variable("x")
X2, X3 = Variable("x2"), Variable("x3")


def make_store():
    store = TripleStore()
    store.add_all(
        [
            Triple(S1, P1, O1),
            Triple(S1, P2, O2),
            Triple(S2, P1, O1),
            Triple(S2, P1, IRI("http://b.org/o3")),
        ]
    )
    return store


class TestAddRemove:
    def test_add_deduplicates(self):
        store = TripleStore()
        assert store.add(Triple(S1, P1, O1)) is True
        assert store.add(Triple(S1, P1, O1)) is False
        assert len(store) == 1

    def test_contains(self):
        store = make_store()
        assert Triple(S1, P1, O1) in store
        assert Triple(S1, P1, O2) not in store

    def test_remove(self):
        store = make_store()
        assert store.remove(Triple(S1, P1, O1)) is True
        assert Triple(S1, P1, O1) not in store
        assert store.remove(Triple(S1, P1, O1)) is False
        assert len(store) == 3

    def test_remove_updates_stats(self):
        store = TripleStore()
        store.add(Triple(S1, P1, O1))
        store.remove(Triple(S1, P1, O1))
        assert store.predicate_count(P1) == 0
        assert P1 not in store.predicates()

    def test_clear(self):
        store = make_store()
        store.clear()
        assert len(store) == 0
        assert list(store.match()) == []


class TestMatch:
    def test_full_scan(self):
        assert len(list(make_store().match())) == 4

    def test_by_subject(self):
        assert len(list(make_store().match(subject=S1))) == 2

    def test_by_predicate(self):
        assert len(list(make_store().match(predicate=P1))) == 3

    def test_by_object(self):
        assert len(list(make_store().match(object=O1))) == 2

    def test_subject_predicate(self):
        matches = list(make_store().match(subject=S2, predicate=P1))
        assert len(matches) == 2

    def test_predicate_object(self):
        assert len(list(make_store().match(predicate=P1, object=O1))) == 2

    def test_subject_object(self):
        assert len(list(make_store().match(subject=S1, object=O1))) == 1

    def test_fully_bound_hit_and_miss(self):
        store = make_store()
        assert len(list(store.match(S1, P1, O1))) == 1
        assert list(store.match(S1, P1, O2)) == []

    def test_variables_are_wildcards(self):
        store = make_store()
        assert len(list(store.match(subject=X, predicate=P1))) == 3

    def test_repeated_variable_enforced(self):
        store = TripleStore()
        loop = IRI("http://a.org/loop")
        store.add(Triple(loop, P1, loop))
        store.add(Triple(S1, P1, O1))
        matches = list(store.match(subject=X, predicate=P1, object=X))
        assert matches == [Triple(loop, P1, loop)]

    def test_match_pattern(self):
        store = make_store()
        assert len(list(store.match_pattern(TriplePattern(X, P1, Variable("o"))))) == 3


class TestCountAsk:
    def test_count_shapes(self):
        store = make_store()
        assert store.count() == 4
        assert store.count(predicate=P1) == 3
        assert store.count(subject=S1) == 2
        assert store.count(subject=S1, predicate=P2) == 1
        assert store.count(predicate=P1, object=O1) == 2

    def test_ask(self):
        store = make_store()
        assert store.ask(predicate=P1)
        assert not store.ask(predicate=IRI("http://a.org/nope"))


class TestStatistics:
    def test_predicates(self):
        assert make_store().predicates() == {P1, P2}

    def test_predicate_count(self):
        assert make_store().predicate_count(P1) == 3

    def test_distinct_subjects_objects(self):
        store = make_store()
        assert store.distinct_subjects(P1) == 2
        assert store.distinct_objects(P1) == 2
        assert store.distinct_subjects() == 2
        assert store.distinct_objects() == 3

    def test_authorities(self):
        store = make_store()
        assert store.subject_authorities(P1) == {"http://a.org"}
        assert store.object_authorities(P1) == {"http://a.org", "http://b.org"}

    def test_object_authorities_skip_literals(self):
        store = make_store()
        assert store.object_authorities(P2) == set()


class TestEdgeCases:
    def test_duplicate_insertion_leaves_store_unchanged(self):
        store = make_store()
        size = len(store)
        version = store.version
        assert store.add(Triple(S1, P1, O1)) is False
        assert len(store) == size
        # A rejected duplicate must not invalidate cached plans either.
        assert store.version == version
        assert store.add_all([Triple(S1, P1, O1), Triple(S2, P1, O1)]) == 0

    def test_zero_match_at_every_bound_position_combo(self):
        store = make_store()
        absent = IRI("http://a.org/absent")
        # Every combination of bound positions where at least one bound
        # term is absent must yield nothing from match/count/ask alike.
        for s in (None, absent):
            for p in (None, absent):
                for o in (None, absent):
                    if s is None and p is None and o is None:
                        continue
                    assert list(store.match(s, p, o)) == []
                    assert store.count(s, p, o) == 0
                    assert not store.ask(s, p, o)

    def test_zero_match_with_interned_but_disjoint_terms(self):
        # All terms exist in the dictionary, but never together.
        store = make_store()
        assert list(store.match(S1, P1, O2)) == []
        assert list(store.match(S2, P2, None)) == []
        assert list(store.match(None, P2, O1)) == []
        assert store.count(S2, P2, O2) == 0

    def test_version_bumps_on_mutation_only(self):
        store = TripleStore()
        v0 = store.version
        store.add(Triple(S1, P1, O1))
        v1 = store.version
        assert v1 > v0
        list(store.match(subject=S1))  # reads never bump
        assert store.version == v1
        store.remove(Triple(S1, P1, O1))
        assert store.version > v1

    def test_post_build_insert_invalidates_cached_plans(self):
        from repro.endpoint import Endpoint
        from repro.sparql import parse_query

        endpoint = Endpoint("e0", make_store())
        query = parse_query(
            "SELECT ?s WHERE { ?s <http://a.org/p1> <http://a.org/o1> . }"
        )
        assert len(endpoint.select(query).rows) == 2
        # The compiled plan pins the store's state: a later insert
        # must not serve stale rows from the cache.
        endpoint.add(Triple(IRI("http://a.org/s9"), P1, O1))
        assert len(endpoint.select(query).rows) == 3
        endpoint.store.remove(Triple(IRI("http://a.org/s9"), P1, O1))
        assert len(endpoint.select(query).rows) == 2


class TestMemberSets:
    """``member_set``: one third-position range as a set, memoised until
    the next write and bounded by ``MEMBER_SET_ID_LIMIT`` ids."""

    @staticmethod
    def _ids(store, *terms):
        return [store.dictionary.lookup(term) for term in terms]

    def test_member_set_is_the_range_as_a_set(self):
        store = make_store()
        s1, s2, p1, o1, o3 = self._ids(store, S1, S2, P1, O1, IRI("http://b.org/o3"))
        assert store.member_set(0, p1, o1) == {s1, s2}
        assert store.member_set(2, p1, s2) == {o1, o3}
        assert store.member_set(0, p1, s1) == set()
        assert store.member_set(0, p1, o1) is store.member_set(0, p1, o1)
        assert (store.member_sets_built, store.member_ids_built) == (3, 4)

    def test_memo_is_empty_after_every_write(self):
        store = make_store()
        s9 = IRI("http://a.org/s9")
        writes = {
            "add": lambda: store.add(Triple(s9, P1, O1)),
            "add_all": lambda: store.add_all([Triple(s9, P2, O1), Triple(S1, P2, O1)]),
            "remove": lambda: store.remove(Triple(S1, P1, O1)),
            "_bump": store._bump,
            "clear": store.clear,
        }
        for label, write in writes.items():
            p1, o1 = self._ids(store, P1, O1)
            subjects = {s for s, __, __ in store.match_ids(None, p1, o1)}
            assert store.member_set(0, p1, o1) == subjects, label
            assert store._current_memos().member_sets, label
            version = store.version
            write()
            assert store.version > version, label
            memos = store._current_memos()
            assert not memos.member_sets and memos.member_ids == 0, label
        # After the writes the range is read through tail rows and
        # tombstones; the rebuilt set still equals it.
        store.add_all([Triple(S1, P1, O1), Triple(S2, P1, O1)])
        store.add(Triple(s9, P1, O1))
        store.remove(Triple(S2, P1, O1))
        s1, p1, o1, s9_id = self._ids(store, S1, P1, O1, s9)
        assert store.member_set(0, p1, o1) == {s1, s9_id}

    def test_memo_is_cleared_past_the_id_budget(self, monkeypatch):
        from repro.store import triple_store

        monkeypatch.setattr(triple_store, "MEMBER_SET_ID_LIMIT", 3)
        store = make_store()
        s1, s2, p1, o1 = self._ids(store, S1, S2, P1, O1)
        first = store.member_set(0, p1, o1)  # 2 ids
        store.member_set(2, p1, s1)  # 1 id: 3 in all, within the budget
        memos = store._current_memos()
        assert len(memos.member_sets) == 2 and memos.member_ids == 3
        store.member_set(2, p1, s2)  # 2 more ids: the memo starts over
        assert list(memos.member_sets) == [(2, p1, s2)] and memos.member_ids == 2
        again = store.member_set(0, p1, o1)
        assert again == first and again is not first
        assert (store.member_sets_built, store.member_ids_built) == (4, 7)


_iris = st.integers(min_value=0, max_value=8).map(lambda i: IRI(f"http://h.org/r{i}"))
_triples = st.builds(Triple, _iris, _iris, _iris)


@given(st.lists(_triples, max_size=40))
def test_property_store_is_a_set(triples):
    store = TripleStore()
    store.add_all(triples)
    assert len(store) == len(set(triples))
    assert set(store) == set(triples)


@given(st.lists(_triples, max_size=40), _iris)
def test_property_indexes_agree(triples, probe):
    store = TripleStore()
    store.add_all(triples)
    by_subject = set(store.match(subject=probe))
    by_object = set(store.match(object=probe))
    scan = set(store.match())
    assert by_subject == {t for t in scan if t.subject == probe}
    assert by_object == {t for t in scan if t.object == probe}
    assert store.count(predicate=probe) == sum(1 for t in scan if t.predicate == probe)


@given(st.lists(_triples, min_size=1, max_size=30))
def test_property_remove_inverts_add(triples):
    store = TripleStore()
    store.add_all(triples)
    for triple in set(triples):
        store.remove(triple)
    assert len(store) == 0
    assert store.predicates() == set()


def _store_state(store: TripleStore) -> tuple:
    """Everything ``add`` and ``add_all`` maintain, compared by value."""
    predicates = sorted(store.predicates(), key=lambda p: p.sort_key())
    return (
        [list(store.scan_ids(order)) for order in ("spo", "pos", "osp")],
        len(store),
        [(store.predicate_count(p), store.distinct_subjects(p)) for p in predicates],
    )


@given(st.lists(_triples, max_size=30), st.lists(_triples, max_size=30))
def test_property_add_all_equals_repeated_add(first, second):
    """``add_all`` into an empty store (which skips the membership pass),
    into a non-empty one, and into one emptied by removals (its runs
    still hold tombstones) leaves what one ``add`` per triple leaves."""
    bulk, single = TripleStore(), TripleStore()
    for batch in (first, second, None, second):
        if batch is None:
            for triple in set(first + second):
                assert bulk.remove(triple) == single.remove(triple)
            assert len(bulk) == 0
            continue
        assert bulk.add_all(batch) == sum(single.add(t) for t in batch)
        for term in {term for t in batch for term in t}:
            # Same ids on both sides, so the index rows compare directly.
            assert bulk.dictionary.lookup(term) == single.dictionary.lookup(term)
        assert _store_state(bulk) == _store_state(single)


# ----------------------------------------------------------- bulk loads

#: Terms of the bulk-load property: subjects and predicates come from the
#: IRIs of two authorities and ``rdf:type``, objects from those and a
#: literal.  A load's pool is a prefix of the list, so a small pool keeps
#: the dictionary (and the packed keys' width) small and a larger second
#: pool widens it.
BULK_IRIS = [IRI(f"http://{'a' if i % 3 else 'b'}.org/t{i}") for i in range(40)]
BULK_IRIS[1] = RDF_TYPE
BULK_OBJECTS = BULK_IRIS + [Literal("v")]
#: Duplicates into a one-term dictionary; a second load that widens the
#: packed keys from one bit per id to nine.
ONE_TERM = Triple(BULK_IRIS[0], BULK_IRIS[0], BULK_IRIS[0])
WIDENING = [Triple(IRI(f"http://a.org/w{i}"), BULK_IRIS[2], O1) for i in range(300)]


def bulk_triples(pool_size: int):
    iris = st.sampled_from(BULK_IRIS[:pool_size])
    objects = st.sampled_from(BULK_OBJECTS[: pool_size + 1])
    return st.lists(st.builds(Triple, iris, iris, objects), max_size=30)


@st.composite
def bulk_loads(draw):
    """``(first, second)`` triple lists: the first from a pool of one to
    three terms (a one-term dictionary included), the second from any
    pool, so the dictionary often grows between the loads."""
    first = draw(bulk_triples(draw(st.integers(1, 3))))
    second = draw(bulk_triples(draw(st.integers(1, 40))))
    return first, second


def store_readings(store: TripleStore) -> dict:
    """Everything the bulk-load property compares, in id space."""
    rows = list(store.scan_ids("spo"))
    masks = [(bs, bp, bo) for bs in (0, 1) for bp in (0, 1) for bo in (0, 1)]
    counts = [
        store.count_ids(s if bs else None, p if bp else None, o if bo else None)
        for s, p, o in rows
        for bs, bp, bo in masks
    ]
    absent = len(store.dictionary)
    counts += [
        store.count_ids(absent),
        store.count_ids(None, absent),
        store.count_ids(None, None, absent),
    ]
    return {
        "terms": list(store.dictionary),
        "orders": {order: list(store.scan_ids(order)) for order in ("spo", "pos", "osp")},
        "len": len(store),
        "counts": counts,
        "predicates": {
            term: (
                store.predicate_count(term),
                store.distinct_subjects(term),
                store.subject_authorities(term),
            )
            for term in BULK_IRIS
        },
        "distinct_subjects": store.distinct_subjects(),
    }


class TestBulkLoad:
    """``add_all`` reads its input once, packs each row into one integer
    key at the dictionary's width, and builds every permutation from
    sorted keys: a one-shot generator, a list and a loop of ``add`` must
    leave the same store, whatever the width does between loads."""

    @settings(max_examples=150, deadline=None)
    @given(bulk_loads())
    @example(([ONE_TERM] * 3, [ONE_TERM]))
    @example(([ONE_TERM], WIDENING))
    def test_generator_list_and_add_loop_agree(self, loads):
        first, second = loads
        streamed, listed, looped = TripleStore(), TripleStore(), TripleStore()
        pins, returned = [], []
        for batch in (first, second):
            pins.append((streamed.state, listed.state, looped.state))
            returned.append(
                (
                    streamed.add_all(triple for triple in batch),
                    listed.add_all(list(batch)),
                    sum(looped.add(triple) for triple in batch),
                )
            )
        for got_streamed, got_listed, got_looped in returned:
            assert got_streamed == got_listed == got_looped
        assert store_readings(streamed) == store_readings(listed) == store_readings(looped)
        # A load into a loaded store retires exactly the answers a new
        # row matches, as the writes of an add loop do; a load into an
        # empty store retires every answer, which a loop does not.
        stores = (streamed, listed, looped) if first else (streamed, listed)
        patterns = (
            [TriplePattern(X, p, X2) for p in BULK_IRIS[:5]]
            + [TriplePattern(X, RDF_TYPE, c) for c in BULK_OBJECTS[:5]]
            + [TriplePattern(X, X3, X2)]
        )
        for pattern in patterns:
            verdicts = {store.current(pin, [pattern]) for store, pin in zip(stores, pins[1])}
            assert len(verdicts) == 1, pattern
        assert streamed.last_write(patterns[:10]) == listed.last_write(patterns[:10])
