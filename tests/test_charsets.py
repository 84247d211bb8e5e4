"""Characteristic-set summaries: build oracle, incremental maintenance,
persistence, and the exactness contract behind probe skipping.

The key property: a :class:`CharsetMaintainer` that applied term-level
deltas incrementally must produce a summary *identical* (``to_dict``)
to a fresh :func:`build_charsets` over the mutated store — the stats
provider's pruning soundness rests on that exactness.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, BNode, Literal, Triple, TriplePattern, Variable
from repro.rdf.namespaces import RDF_TYPE
from repro.store import TripleStore
from repro.store.charsets import (
    CharacteristicSets,
    CharsetMaintainer,
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
    ss_rows: dict = {}
    os_rows: dict = {}
    oo_rows: dict = {}
    for entity in set(subj) | set(obj):
        sp = [(p, n) for p, n in subj.get(entity, {}).items() if not isinstance(p, tuple)]
        op = list(obj.get(entity, {}).items())
        for p1, n1 in sp:
            for p2, n2 in sp:
                ss_rows[(p1, p2)] = ss_rows.get((p1, p2), 0) + n1 * n2
        for p1, n1 in op:
            for p2, n2 in sp:
                os_pairs[(p1, p2)] = os_pairs.get((p1, p2), 0) + 1
                os_rows[(p1, p2)] = os_rows.get((p1, p2), 0) + n1 * n2
            for p2, n2 in op:
                oo_pairs[(p1, p2)] = oo_pairs.get((p1, p2), 0) + 1
                oo_rows[(p1, p2)] = oo_rows.get((p1, p2), 0) + n1 * n2

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
        version=store.version,
        triples=len(triples),
        distinct_subjects=len({t.subject for t in triples}),
        distinct_objects=len({t.object for t in triples}),
        predicates=predicates,
        sets=sets,
        os_pairs=os_pairs,
        oo_pairs=oo_pairs,
        ss_rows=ss_rows,
        os_rows=os_rows,
        oo_rows=oo_rows,
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


class TestIncrementalMaintenance:
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
            if is_add:
                if store.add(triple):
                    maintainer.record_add(triple)
            else:
                if store.remove(triple):
                    maintainer.record_remove(triple)
        incremental = maintainer.summary()
        assert maintainer.rebuilds == 1, "deltas under threshold must not rebuild"
        assert incremental.to_dict() == build_charsets(store).to_dict()
        assert incremental.version == store.version

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
            maintainer.record_remove(triple)
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
            maintainer.record_remove(triple)
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
            maintainer.record_add(t)
        maintainer.summary()
        assert maintainer.rebuilds == 2

    def test_out_of_band_mutation_forces_rebuild(self):
        store = TripleStore("ep")
        store.add(Triple(ENTITIES[0], PREDS[0], ENTITIES[1]))
        maintainer = CharsetMaintainer(store)
        maintainer.summary()
        # Direct store mutation, not recorded with the maintainer.
        store.add(Triple(ENTITIES[2], PREDS[1], ENTITIES[3]))
        summary = maintainer.summary()
        assert maintainer.rebuilds == 2
        assert summary.to_dict() == build_charsets(store).to_dict()

    def test_bulk_load_forces_rebuild(self):
        store = TripleStore("ep")
        store.add(Triple(ENTITIES[0], PREDS[0], ENTITIES[1]))
        maintainer = CharsetMaintainer(store, min_rebuild=1000)
        maintainer.summary()
        store.add_all([Triple(ENTITIES[2], PREDS[1], ENTITIES[3])])
        maintainer.record_bulk()
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
