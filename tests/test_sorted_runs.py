"""Unit and property tests for the array-backed sorted-run substrate.

Covers :class:`repro.store.sorted_runs.SortedRunIndex` directly (runs,
delta tail, tombstones, flush compaction, bulk loading, prefix probes)
and the :class:`~repro.store.TripleStore` built on it: the store must be
observationally identical to a brute-force scan of the input triples
across every probe shape and under mutation, and the ordering contracts
(``match_order`` / ``scan_ids``) must hold.
"""

from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Triple
from repro.store import TripleStore
from repro.store.sorted_runs import SortedRunIndex


def rows(*triples):
    return [tuple(t) for t in triples]


class TestSortedRunIndex:
    def test_add_contains_len(self):
        idx = SortedRunIndex()
        idx.add((1, 2, 3))
        idx.add((1, 2, 4))
        assert len(idx) == 2
        assert idx.contains((1, 2, 3))
        assert not idx.contains((9, 9, 9))

    def test_add_duplicate_is_idempotent(self):
        idx = SortedRunIndex()
        idx.add((1, 2, 3))
        idx.add((1, 2, 3))
        assert len(idx) == 1
        assert list(idx.iter_prefix()) == [(1, 2, 3)]

    def test_iter_prefix_merges_run_and_tail_sorted(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (3, 3, 3), (5, 5, 5)])
        # These land in the un-flushed delta tail.
        idx.add((2, 2, 2))
        idx.add((4, 4, 4))
        assert not idx.is_compact
        assert list(idx.iter_prefix()) == [
            (1, 1, 1),
            (2, 2, 2),
            (3, 3, 3),
            (4, 4, 4),
            (5, 5, 5),
        ]

    def test_prefix_probes(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)])
        assert list(idx.iter_prefix((1,))) == [(1, 1, 1), (1, 1, 2), (1, 2, 1)]
        assert list(idx.iter_prefix((1, 1))) == [(1, 1, 1), (1, 1, 2)]
        assert list(idx.iter_prefix((1, 1, 2))) == [(1, 1, 2)]
        assert count_all(idx) == 4
        assert idx.count_prefix((1,)) == 3
        assert idx.count_prefix((1, 1)) == 2
        assert idx.count_prefix((9,)) == 0
        assert idx.has_prefix((2,))
        assert not idx.has_prefix((3,))
        assert list(idx.thirds(1, 1)) == [1, 2]
        assert list(idx.thirds(9, 9)) == []

    def test_remove_from_run_uses_tombstone(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (2, 2, 2)])
        idx.remove((1, 1, 1))
        assert len(idx) == 1
        assert not idx.contains((1, 1, 1))
        assert list(idx.iter_prefix()) == [(2, 2, 2)]
        assert idx.count_prefix((1,)) == 0
        assert not idx.has_prefix((1,))

    def test_add_resurrects_tombstoned_row(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (2, 2, 2)])
        idx.remove((1, 1, 1))
        idx.add((1, 1, 1))
        assert len(idx) == 2
        assert idx.contains((1, 1, 1))
        assert list(idx.iter_prefix()) == [(1, 1, 1), (2, 2, 2)]

    def test_remove_from_tail(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1)])
        idx.add((2, 2, 2))  # tail row
        idx.remove((2, 2, 2))
        assert len(idx) == 1
        assert list(idx.iter_prefix()) == [(1, 1, 1)]

    def test_flush_compacts(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (3, 3, 3)])
        idx.add((2, 2, 2))
        idx.remove((3, 3, 3))
        assert not idx.is_compact
        idx.flush()
        assert idx.is_compact
        assert idx.run_length == 2
        assert list(idx.iter_prefix()) == [(1, 1, 1), (2, 2, 2)]

    def test_delta_limit_triggers_automatic_flush(self):
        idx = SortedRunIndex()
        # The tail is bounded by max(1024, run/8); exceeding it compacts.
        for i in range(1100):
            idx.add((i, i, i))
        assert idx.run_length > 0
        assert len(idx) == 1100
        assert list(idx.iter_prefix())[:2] == [(0, 0, 0), (1, 1, 1)]

    def test_bulk_insert_into_empty_adopts_block(self):
        # bulk_insert's contract: the caller pre-sorts and dedupes.
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (2, 2, 2), (3, 3, 3)])
        assert idx.is_compact
        assert idx.run_length == 3
        assert list(idx.iter_prefix()) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]

    def test_bulk_insert_merges_with_existing_run(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (4, 4, 4)])
        idx.bulk_insert([(2, 2, 2), (3, 3, 3)])
        assert list(idx.iter_prefix()) == [
            (1, 1, 1),
            (2, 2, 2),
            (3, 3, 3),
            (4, 4, 4),
        ]

    def test_columns_are_readonly_and_sized(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 2, 3), (4, 5, 6)])
        a, b, c = idx.columns()
        assert list(a) == [1, 4]
        assert list(b) == [2, 5]
        assert list(c) == [3, 6]
        with pytest.raises(TypeError):
            a[0] = 9
        assert idx.nbytes() > 0

    def test_distinct_helpers(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1)])
        assert idx.distinct_firsts() == 2
        assert list(idx.iter_distinct_seconds(1)) == [1, 2]
        assert idx.distinct_seconds(1) == 2
        assert idx.distinct_seconds(9) == 0

    def test_clear(self):
        idx = SortedRunIndex()
        idx.bulk_insert([(1, 1, 1)])
        idx.add((2, 2, 2))
        idx.clear()
        assert len(idx) == 0
        assert list(idx.iter_prefix()) == []
        assert idx.is_compact


def count_all(idx):
    return idx.count_prefix(())


_ids = st.integers(min_value=0, max_value=6)
_rows = st.tuples(_ids, _ids, _ids)


@given(st.lists(_rows, max_size=50), st.lists(_rows, max_size=20))
@settings(max_examples=80, deadline=None)
def test_property_index_is_a_sorted_set(inserted, removed):
    idx = SortedRunIndex()
    model = set()
    for row in inserted:
        idx.add(row)
        model.add(row)
    for row in removed:
        idx.remove(row) if row in model else None
        model.discard(row)
    assert len(idx) == len(model)
    assert list(idx.iter_prefix()) == sorted(model)
    for first in range(7):
        expected = sorted(r for r in model if r[0] == first)
        assert list(idx.iter_prefix((first,))) == expected
        assert idx.count_prefix((first,)) == len(expected)
        assert idx.has_prefix((first,)) == bool(expected)


_small = st.integers(min_value=0, max_value=3)
_writes = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove"]), st.tuples(_small, _small, _ids)),
        st.just(("flush", None)),
    ),
    max_size=40,
)


@given(st.lists(st.tuples(_small, _small, _ids), max_size=30), _writes)
@settings(max_examples=80, deadline=None)
def test_property_third_range_is_exact_under_interleaved_writes(loaded, writes):
    """``third_range`` — the probe kernels' primitive — against a brute-
    force scan after every add / remove / re-add / flush, probed between
    writes so a stale sorted view of the deltas would show."""
    idx = SortedRunIndex()
    model = set(loaded)
    idx.bulk_insert(sorted(model))
    for action, row in [("probe", None), *writes]:
        if action == "flush":
            idx.flush()
        elif action == "add" and row not in model:
            idx.add(row)
            model.add(row)
        elif action == "remove" and row in model:
            idx.remove(row)
            model.discard(row)
        for first in range(4):
            for second in range(4):
                expected = sorted(r[2] for r in model if r[:2] == (first, second))
                values, lo, hi = idx.third_range(first, second)
                assert list(values[lo:hi]) == expected
                assert list(idx.thirds(first, second)) == expected
                assert idx.count_prefix((first, second)) == len(expected)
                for third in range(7):
                    at = bisect_left(values, third, lo, hi)
                    assert (at < hi and values[at] == third) == (third in expected)
                    assert idx.contains((first, second, third)) == (third in expected)


def test_a_prefix_without_pending_writes_is_served_from_the_run():
    # One unrelated tail row and one unrelated tombstone used to send
    # every probe through a scan of both sets and a merged list.
    idx = SortedRunIndex()
    idx.bulk_insert([(1, 1, 1), (1, 1, 2), (2, 2, 2), (3, 3, 3)])
    idx.add((9, 9, 9))
    idx.remove((3, 3, 3))
    assert not idx.is_compact
    assert idx.thirds(1, 1) == array("q", [1, 2])
    assert idx.third_range(1, 1)[1:] == (0, 2)  # the run's own row range
    # A prefix that does have pending writes gets its exact merged values.
    idx.add((1, 1, 0))
    idx.remove((1, 1, 2))
    assert idx.third_range(1, 1) == ([0, 1], 0, 2)
    assert idx.third_range(3, 3)[1:] == (0, 0)


# ------------------------------------------- store vs brute-force scan


def iri(i):
    return IRI(f"http://ex.org/{i}")


_triples = st.builds(Triple, _ids.map(iri), _ids.map(iri), _ids.map(iri))


def scan(triples, s=None, p=None, o=None):
    """Brute force: every distinct input triple matching the bound positions."""
    return {
        t
        for t in triples
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    }


def test_store_layout_is_not_selectable():
    # PR 12 removed the dict-of-sets layout and the option that chose it.
    with pytest.raises(TypeError):
        TripleStore(backend="dict")


def test_order_contract():
    store = TripleStore()
    # predicate-bound probes run on POS: sorted by object then subject.
    assert store.match_order(False, True, False) == (2, 0)
    # subject-bound probes run on SPO: sorted by predicate then object.
    assert store.match_order(True, False, False) == (1, 2)
    store.add_all([Triple(iri(0), iri(1), iri(2))])
    # three permutations x three int64 columns x one row
    assert store.index_nbytes() == 3 * 3 * 8


@given(st.lists(_triples, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_store_agrees_with_scan_on_every_probe_shape(triples):
    store = TripleStore()
    store.add_all(triples)
    assert len(store) == len(set(triples))
    probes = [None, iri(0), iri(3), iri(99)]
    for s in probes:
        for p in probes:
            for o in probes:
                expected = scan(triples, s, p, o)
                matched = list(store.match(s, p, o))
                assert len(matched) == len(expected) and set(matched) == expected
                assert store.count(s, p, o) == len(expected)
                assert store.ask(s, p, o) == bool(expected)


@given(st.lists(_triples, max_size=40))
@settings(max_examples=40, deadline=None)
def test_property_scans_and_probes_come_back_sorted(triples):
    store = TripleStore()
    store.add_all(triples)
    encode = store.dictionary.lookup
    rows = {(encode(t.subject), encode(t.predicate), encode(t.object)) for t in triples}
    # scan_ids streams every row in the permutation's order.
    for order, key in (("spo", (0, 1, 2)), ("pos", (1, 2, 0)), ("osp", (2, 0, 1))):
        assert list(store.scan_ids(order)) == sorted(
            rows, key=lambda row: tuple(row[i] for i in key)
        )
    # match_ids comes back sorted by match_order for the probe's mask.
    for triple in triples[:5]:
        p_id = encode(triple.predicate)
        priority = store.match_order(False, True, False)
        assert list(store.match_ids(p=p_id)) == sorted(
            (row for row in rows if row[1] == p_id),
            key=lambda row: tuple(row[i] for i in priority),
        )


@given(st.lists(_triples, max_size=30), st.lists(_triples, max_size=10))
@settings(max_examples=40, deadline=None)
def test_property_store_agrees_with_scan_under_mutation(initial, late):
    store = TripleStore()
    model = set(initial)
    store.add_all(initial)
    for triple in late:
        assert store.add(triple) == (triple not in model)
        model.add(triple)
    for triple in initial[: len(initial) // 2]:
        assert store.remove(triple) == (triple in model)
        model.discard(triple)
    assert len(store) == len(model)
    assert set(store) == model
    assert store.predicates() == {t.predicate for t in model}
