"""Characteristic-set summaries: build oracle, incremental maintenance,
persistence, and the exactness contract behind probe skipping.

The key property: a :class:`CharsetMaintainer` that applied term-level
deltas incrementally must produce a summary *identical* (``to_dict``)
to a fresh :func:`build_charsets` over the mutated store — the stats
provider's pruning soundness rests on that exactness.
"""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.endpoint import Endpoint
from repro.rdf import IRI, BNode, Literal, Triple, TriplePattern, Variable
from repro.rdf.namespaces import RDF_TYPE
from repro.store import TripleStore
from repro.store.charsets import (
    DEFAULT_OBJECT_HISTOGRAM_LIMIT,
    CharacteristicSets,
    CharsetMaintainer,
    _entity_classes,
    _entity_items,
    _fold,
    _keys,
    _predicate_stats,
    build_charsets,
    class_marker,
)

EX = "http://example.org/"
PREDS = [IRI(EX + p) for p in ("advisor", "worksFor", "takesCourse")]
CLASSES = [IRI(EX + c) for c in ("Student", "Professor")]
ENTITIES = [IRI(EX + f"e{i}") for i in range(6)]
#: Entities of other authorities (one of them a URN's), a blank node and
#: literals, so that the authority tables see every kind of term.
FOREIGN = [IRI("http://b.org/x0"), IRI("urn:isbn:1"), IRI("urn:isbn:2")]
NODES = ENTITIES + FOREIGN + [BNode("n0")]
VALUES = [Literal("v"), Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer")]


def reference_summary(store: TripleStore, limit: int = 256) -> CharacteristicSets:
    """Brute-force oracle computed straight from the term-level triples."""
    triples = list(store)
    subj: dict = {}
    obj: dict = {}
    for t in triples:
        counter = subj.setdefault(t.subject, Counter())
        counter[t.predicate] += 1
        if t.predicate == RDF_TYPE:
            counter[class_marker(t.object)] += 1
        obj.setdefault(t.object, Counter())[t.predicate] += 1

    sets: dict = {}
    for counter in subj.values():
        charset = frozenset(counter)
        sets[charset] = sets.get(charset, 0) + 1

    os_pairs: dict = {}
    oo_pairs: dict = {}
    for entity in set(subj) | set(obj):
        sp = [p for p in subj.get(entity, {}) if not isinstance(p, tuple)]
        op = list(obj.get(entity, {}))
        for p1 in op:
            for p2 in sp:
                os_pairs[(p1, p2)] = os_pairs.get((p1, p2), 0) + 1
            for p2 in op:
                oo_pairs[(p1, p2)] = oo_pairs.get((p1, p2), 0) + 1

    from repro.store.charsets import PredicateStats

    predicates: dict = {}
    subject_authorities: dict = {}
    object_authorities: dict = {}
    for predicate in {t.predicate for t in triples}:
        p_triples = [t for t in triples if t.predicate == predicate]
        for tables, entities in (
            (subject_authorities, {t.subject for t in p_triples}),
            (object_authorities, {t.object for t in p_triples}),
        ):
            authorities = Counter(e.authority for e in entities if isinstance(e, IRI))
            if authorities:
                tables[predicate] = dict(authorities)
        histogram: dict = {}
        for t in p_triples:
            histogram[t.object] = histogram.get(t.object, 0) + 1
        predicates[predicate] = PredicateStats(
            count=len(p_triples),
            distinct_subjects=len({t.subject for t in p_triples}),
            distinct_objects=len({t.object for t in p_triples}),
            objects=histogram if len(histogram) <= limit else None,
        )

    return CharacteristicSets(
        pin=store.state,
        triples=len(triples),
        distinct_subjects=len({t.subject for t in triples}),
        distinct_objects=len({t.object for t in triples}),
        predicates=predicates,
        sets=sets,
        os_pairs=os_pairs,
        oo_pairs=oo_pairs,
        subject_authorities=subject_authorities,
        object_authorities=object_authorities,
    )


def triple_strategy():
    entity = st.sampled_from(NODES)
    plain = st.builds(
        Triple, entity, st.sampled_from(PREDS), st.sampled_from(NODES + VALUES)
    )
    typed = st.builds(
        Triple, entity, st.just(RDF_TYPE), st.sampled_from(CLASSES)
    )
    return st.one_of(plain, typed)


class TestBuild:
    def test_build_matches_reference_oracle(self):
        store = TripleStore("ep")
        store.add_all(
            [
                Triple(ENTITIES[0], RDF_TYPE, CLASSES[0]),
                Triple(ENTITIES[0], PREDS[0], ENTITIES[1]),
                Triple(ENTITIES[1], RDF_TYPE, CLASSES[1]),
                Triple(ENTITIES[1], PREDS[1], ENTITIES[2]),
                Triple(ENTITIES[3], PREDS[0], ENTITIES[1]),
            ]
        )
        assert build_charsets(store).to_dict() == reference_summary(store).to_dict()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(triple_strategy(), max_size=40))
    def test_build_matches_reference_random(self, triples):
        store = TripleStore("ep")
        store.add_all(triples)
        assert build_charsets(store).to_dict() == reference_summary(store).to_dict()

    def test_histogram_width_limit(self):
        store = TripleStore("ep")
        wide = IRI(EX + "wide")
        store.add_all(
            [Triple(ENTITIES[0], wide, IRI(EX + f"o{i}")) for i in range(5)]
        )
        assert build_charsets(store, object_histogram_limit=3).predicates[wide].objects is None
        assert build_charsets(store, object_histogram_limit=5).predicates[wide].objects is not None

    def test_empty_store(self):
        store = TripleStore("ep")
        summary = build_charsets(store)
        assert summary.triples == 0
        assert summary.sets == {}
        assert summary.can_match(TriplePattern(Variable("s"), PREDS[0], Variable("o"))) is False


def per_entity_fold(store: TripleStore) -> CharacteristicSets:
    """The summary folded one entity at a time (each at weight 1), its
    class read the way maintenance reads it: the reference for the
    build's grouping of entities into classes."""
    dictionary = store.dictionary
    type_id = dictionary.lookup(RDF_TYPE)
    predicate_ids = store.predicate_ids()
    summary = CharacteristicSets(
        pin=store.state,
        triples=len(store),
        distinct_subjects=0,
        distinct_objects=0,
        predicates=_predicate_stats(store, DEFAULT_OBJECT_HISTOGRAM_LIMIT),
        sets={},
        os_pairs={},
        oo_pairs={},
        subject_authorities={},
        object_authorities={},
    )
    entities = {s for s, __, __ in store.scan_ids()} | {o for __, __, o in store.scan_ids()}
    for entity in sorted(entities):
        subject_items, classes, object_items, authority = _entity_items(
            store, entity, type_id, predicate_ids
        )
        key = (_keys(subject_items), classes, _keys(object_items), authority)
        _fold(summary, key, 1, dictionary.decode)
    return summary


class TestBuildOnGeneratedEndpoints:
    """The build groups entities by predicate sets, classes and
    authority, and folds each group once: on every endpoint of the
    generated federations it equals folding entity by entity, and the
    term-level oracle."""

    @pytest.mark.parametrize("federation", ["lubm2", "qfed_federation", "largerdf_federation"])
    def test_build_equals_the_per_entity_fold(self, federation, request):
        for endpoint in request.getfixturevalue(federation):
            store = endpoint.store
            built = build_charsets(store).to_dict()
            assert built == per_entity_fold(store).to_dict(), endpoint.name
            assert built == reference_summary(store).to_dict(), endpoint.name

    def test_a_class_is_a_predicate_set_not_a_triple_count(self):
        # Two subjects with the same predicates, one with two triples of
        # one of them: one class.
        store = TripleStore("ep")
        store.add_all(
            [
                Triple(ENTITIES[0], PREDS[0], ENTITIES[1]),
                Triple(ENTITIES[2], PREDS[0], ENTITIES[1]),
                Triple(ENTITIES[2], PREDS[0], ENTITIES[3]),
            ]
        )
        subjects = [key for key in _entity_classes(store) if key[0]]
        assert len(subjects) == 1
        assert _entity_classes(store)[subjects[0]] == 2


class TestBuildFromMergedView:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(triple_strategy(), min_size=1, max_size=25),
        st.lists(triple_strategy(), max_size=10),
        st.data(),
    )
    def test_build_with_tail_rows_and_tombstones(self, base, added, data):
        """Writes since the last bulk load sit in each index's tail and
        tombstones; the build reads them through the merged view."""
        store = TripleStore("ep")
        store.add_all(base)
        present = sorted(set(base), key=repr)
        for triple in data.draw(st.lists(st.sampled_from(present), unique=True)):
            store.remove(triple)
        for triple in added:
            store.add(triple)
        assert build_charsets(store).to_dict() == reference_summary(store).to_dict()


def pivot_triple(pivot):
    """Triples naming ``pivot`` as subject, object or typed subject, and
    any other triple now and then."""
    predicates = st.sampled_from(PREDS)
    return st.one_of(
        st.builds(Triple, st.just(pivot), predicates, st.sampled_from(NODES + VALUES)),
        st.builds(Triple, st.sampled_from(NODES), predicates, st.just(pivot)),
        st.builds(Triple, st.just(pivot), st.just(RDF_TYPE), st.sampled_from(CLASSES)),
        triple_strategy(),
    )


class TestIncrementalMaintenance:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(triple_strategy(), max_size=25), st.sampled_from(NODES), st.data())
    def test_refold_batches(self, base, pivot, data):
        """One batch touching a pivot entity as subject and object: plain
        adds and removes, a triple added and removed (or removed and
        re-added) within the batch, rdf:type markers, literal and
        blank-node objects, and the pivot emptied and re-created."""
        store = TripleStore("ep")
        store.add_all(base)
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        maintainer.summary()

        add, remove = store.add, store.remove
        steps = st.sampled_from(("add", "remove", "toggle", "empty"))
        for step in data.draw(st.lists(steps, min_size=1, max_size=8)):
            if step == "empty":
                for triple in [t for t in store if pivot in (t.subject, t.object)]:
                    remove(triple)
                for triple in data.draw(st.lists(pivot_triple(pivot), max_size=3)):
                    add(triple)
                continue
            triple = data.draw(pivot_triple(pivot))
            if step == "add":
                add(triple)
            elif step == "remove":
                remove(triple)
            elif triple in store:
                remove(triple)
                add(triple)
            else:
                add(triple)
                remove(triple)
        incremental = maintainer.summary()
        assert maintainer.rebuilds == 1
        assert incremental.to_dict() == build_charsets(store).to_dict()
        assert incremental.to_dict() == reference_summary(store).to_dict()

    def test_class_swap_keeps_type_count(self):
        """A batch that retypes a subject leaves its predicate counts as
        they were: only its classes say that its charset moved."""
        student = Triple(ENTITIES[0], RDF_TYPE, CLASSES[0])
        professor = Triple(ENTITIES[0], RDF_TYPE, CLASSES[1])
        store = TripleStore("ep")
        store.add_all([student, Triple(ENTITIES[0], PREDS[0], ENTITIES[1])])
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        maintainer.summary()
        assert store.remove(student) and store.add(professor)
        assert maintainer.summary().to_dict() == reference_summary(store).to_dict()
        assert maintainer.rebuilds == 1

    def test_maintainer_retains_only_the_summary(self):
        """No per-entity state outlives the build: after summarising a
        12,000-triple store (3,000 subjects) the maintainer holds under
        128 KiB of new allocations, where per-subject and per-object
        counters took ~2.2 MB on this store."""
        store = TripleStore("ep")
        triples = []
        for i in range(3000):
            entity = IRI(f"{EX}e{i}")
            triples += [
                Triple(entity, RDF_TYPE, CLASSES[i % 2]),
                Triple(entity, PREDS[0], IRI(f"{EX}e{i // 10}")),
                Triple(entity, PREDS[2], IRI(f"{EX}c{i % 50}")),
                Triple(entity, PREDS[1], Literal(f"n{i}")),
            ]
        store.add_all(triples)
        assert len(store) >= 10_000
        tracemalloc.start()
        try:
            maintainer = CharsetMaintainer(store)
            maintainer.summary()
            retained, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 128 * 1024, retained

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(triple_strategy(), max_size=25),
        st.lists(st.tuples(st.booleans(), triple_strategy()), min_size=1, max_size=20),
    )
    def test_incremental_equals_rebuild(self, base, ops):
        store = TripleStore("ep")
        store.add_all(base)
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        maintainer.summary()
        assert maintainer.rebuilds == 1
        for is_add, triple in ops:
            (store.add if is_add else store.remove)(triple)
        incremental = maintainer.summary()
        assert maintainer.rebuilds == 1, "deltas under threshold must not rebuild"
        assert incremental.to_dict() == build_charsets(store).to_dict()
        assert incremental.pin is store.state

    @settings(max_examples=60, deadline=None)
    @given(st.lists(triple_strategy(), min_size=1, max_size=25), st.data())
    def test_incremental_equals_rebuild_removing_present_triples(self, base, data):
        """Removals drawn from the store's own triples, so that entities,
        and with them whole authorities, leave a predicate's tables."""
        store = TripleStore("ep")
        store.add_all(base)
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        maintainer.summary()
        present = sorted(set(base), key=repr)
        for triple in data.draw(st.lists(st.sampled_from(present), unique=True, min_size=1)):
            assert store.remove(triple)
        assert maintainer.summary().to_dict() == build_charsets(store).to_dict()
        assert maintainer.rebuilds == 1

    def test_authority_tables_follow_the_last_entity(self):
        urn_a, urn_b = FOREIGN[1], FOREIGN[2]
        knows, name = PREDS[0], PREDS[1]
        first = Triple(ENTITIES[0], knows, urn_a)
        second = Triple(BNode("n0"), knows, urn_b)
        store = TripleStore("ep")
        store.add_all(
            [first, second, Triple(urn_a, knows, VALUES[0]), Triple(urn_b, name, ENTITIES[1])]
        )
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        summary = maintainer.summary()
        assert summary.object_authorities[knows] == {"urn:isbn": 2}
        # The blank-node subject and the literal object count nowhere.
        assert summary.subject_authorities[knows] == {EX.rstrip("/"): 1, "urn:isbn": 1}
        for triple, objects in ((first, {"urn:isbn": 1}), (second, None)):
            store.remove(triple)
            summary = maintainer.summary()
            assert summary.object_authorities.get(knows) == objects
            assert summary.to_dict() == build_charsets(store).to_dict()
        assert summary.subject_authorities[knows] == {"urn:isbn": 1}
        assert summary.subject_authorities[name] == {"urn:isbn": 1}
        assert maintainer.rebuilds == 1

    def test_threshold_forces_rebuild(self):
        store = TripleStore("ep")
        store.add(Triple(ENTITIES[0], PREDS[0], ENTITIES[1]))
        maintainer = CharsetMaintainer(store, min_rebuild=2)
        maintainer.summary()
        for i in range(4):
            t = Triple(ENTITIES[2], PREDS[1], IRI(EX + f"x{i}"))
            store.add(t)
        maintainer.summary()
        assert maintainer.rebuilds == 2

    def test_store_writes_refold_from_the_journal(self):
        """The maintainer reads its deltas from the store's write journal,
        so a write made straight to an endpoint's store is re-folded, not
        rebuilt."""
        endpoint = Endpoint("ep", [Triple(ENTITIES[0], PREDS[0], ENTITIES[1])])
        endpoint.charset_summary()
        maintainer = endpoint._charset_maintainer
        endpoint.store.add(Triple(ENTITIES[2], PREDS[1], ENTITIES[3]))
        summary = endpoint.charset_summary()
        assert summary.to_dict() == build_charsets(endpoint.store).to_dict()
        assert maintainer.rebuilds == 1 and maintainer.incremental_updates == 1

    def test_writes_past_the_journal_rebuild(self, monkeypatch):
        from repro.store import triple_store

        monkeypatch.setattr(triple_store, "JOURNAL_LIMIT", 4)
        store = TripleStore("ep")
        store.add(Triple(ENTITIES[0], PREDS[0], ENTITIES[1]))
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        pin = maintainer.summary().pin
        for i in range(5):
            store.add(Triple(ENTITIES[2], PREDS[1], IRI(EX + f"x{i}")))
        assert store.writes_since(pin) is None
        assert maintainer.summary().to_dict() == build_charsets(store).to_dict()
        assert maintainer.rebuilds == 2

    def test_bulk_load_forces_rebuild(self):
        store = TripleStore("ep")
        store.add(Triple(ENTITIES[0], PREDS[0], ENTITIES[1]))
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        maintainer.summary()
        store.add_all([Triple(ENTITIES[2], PREDS[1], ENTITIES[3])])
        assert maintainer.summary().to_dict() == build_charsets(store).to_dict()
        assert maintainer.rebuilds == 2

    def test_fresh_summary_returned_unchanged(self):
        store = TripleStore("ep")
        store.add(Triple(ENTITIES[0], PREDS[0], ENTITIES[1]))
        maintainer = CharsetMaintainer(store)
        first = maintainer.summary()
        assert maintainer.summary() is first


class TestExactnessContract:
    """can_match True/False and exact estimates must agree with the store."""

    def patterns(self):
        v1, v2 = Variable("a"), Variable("b")
        candidates = []
        for p in PREDS + [RDF_TYPE, IRI(EX + "absent")]:
            candidates.append(TriplePattern(v1, p, v2))
            for o in ENTITIES + CLASSES:
                candidates.append(TriplePattern(v1, p, o))
            for s in ENTITIES:
                candidates.append(TriplePattern(s, p, v2))
        candidates.append(TriplePattern(v1, Variable("p"), v2))
        candidates.append(TriplePattern(ENTITIES[0], Variable("p"), v2))
        candidates.append(TriplePattern(v1, Variable("p"), v1))
        return candidates

    @settings(max_examples=40, deadline=None)
    @given(st.lists(triple_strategy(), max_size=30))
    def test_can_match_and_exact_estimates_agree_with_store(self, triples):
        store = TripleStore("ep")
        store.add_all(triples)
        summary = build_charsets(store)
        for pattern in self.patterns():
            truth = store.ask(
                None if isinstance(pattern.subject, Variable) else pattern.subject,
                None if isinstance(pattern.predicate, Variable) else pattern.predicate,
                None if isinstance(pattern.object, Variable) else pattern.object,
            )
            verdict = summary.can_match(pattern)
            if verdict is not None and not summary._repeated(pattern):
                assert verdict == truth, pattern
            estimate, exact = summary.estimate_pattern(pattern)
            if exact:
                actual = store.count(
                    None if isinstance(pattern.subject, Variable) else pattern.subject,
                    None if isinstance(pattern.predicate, Variable) else pattern.predicate,
                    None if isinstance(pattern.object, Variable) else pattern.object,
                )
                assert estimate == float(actual), pattern

    def test_charset_coverage_helpers(self):
        store = TripleStore("ep")
        store.add_all(
            [
                Triple(ENTITIES[0], RDF_TYPE, CLASSES[0]),
                Triple(ENTITIES[0], PREDS[0], ENTITIES[1]),
                Triple(ENTITIES[2], RDF_TYPE, CLASSES[0]),
            ]
        )
        summary = build_charsets(store)
        # Some class-0 subject lacks advisor (ENTITIES[2]).
        assert summary.charset_exists(
            frozenset({class_marker(CLASSES[0])}), lacking=PREDS[0]
        )
        # Every advisor subject has class 0.
        assert not summary.charset_exists(
            frozenset({PREDS[0]}), lacking=class_marker(CLASSES[0])
        )
        assert summary.subjects_with(frozenset({class_marker(CLASSES[0])})) == 2
