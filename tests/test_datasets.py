"""Tests for the dataset generators: determinism, structure, interlinks."""

import hashlib

import pytest

from repro.datasets import bio2rdf, largerdf, lubm, qfed
from repro.datasets.queries_largerdf import (
    BIG,
    COMPLEX,
    EXCLUDED,
    SIMPLE,
    all_queries,
    by_category,
    category,
    paper_selection,
)
from repro.rdf import RDF_TYPE, UB
from repro.sparql import evaluate_select, parse_query
from repro.store import TripleStore


def triples_digest(triples) -> str:
    """SHA-256 of the triples' N-Triples lines, in the order given."""
    digest = hashlib.sha256()
    for triple in triples:
        digest.update(
            f"{triple.subject.n3()} {triple.predicate.n3()} {triple.object.n3()}\n".encode()
        )
    return digest.hexdigest()


#: ``((index, total, profile, seed), triples, digest)`` of generated
#: universities, pinned: the triples' order fixes every dictionary id
#: (and with it every plan and figure), so it may not move either.
GENERATED_UNIVERSITIES = [
    (
        (0, 2, lubm.SMALL_PROFILE, 7),
        554,
        "27eff68cd331bd305e2f05f6749225e4df91a03b18bc446b96aa928bf7e7c6bc",
    ),
    (
        (1, 2, lubm.SMALL_PROFILE, 7),
        555,
        "736950341ffccb9ace6cead28e246efbdedf10da094dea07bdd2f8154cb75450",
    ),
    (
        (0, 2, lubm.SMALL_PROFILE, 42),
        555,
        "994997d0ed3dc7b209e08eeadcf82e8cd836315988601b68cb8b88e506df19a8",
    ),
    (
        (1, 2, lubm.SMALL_PROFILE, 42),
        559,
        "de8bf59e296122dff162fe81ee8a62ee33be8eaa7f829399344e80da445776ee",
    ),
    (
        (1, 2, lubm.BENCH_PROFILE, 3),
        3522,
        "9163d504d758d1b9f8597b2aa4439b1e2d6f0d52190d5af80655952cf5b7ceea",
    ),
]


class TestLubmGenerator:
    def test_deterministic(self):
        first = lubm.generate_university(0, 4, seed=9)
        second = lubm.generate_university(0, 4, seed=9)
        assert first == second

    def test_seed_changes_data(self):
        first = lubm.generate_university(0, 4, seed=1)
        second = lubm.generate_university(0, 4, seed=2)
        assert first != second

    @pytest.mark.parametrize(("args", "size", "expected"), GENERATED_UNIVERSITIES)
    def test_generated_triples_are_pinned(self, args, size, expected):
        triples = lubm.generate_university(*args)
        assert len(triples) == size
        assert triples_digest(triples) == expected

    def test_federation_holds_the_generated_triples_under_the_same_ids(self):
        """The federation's stores hold each university's generated
        triples, and the dictionary ids a store built from the list
        assigns."""
        federation = lubm.build_federation(2, lubm.SMALL_PROFILE, seed=42)
        for index, endpoint in enumerate(federation):
            expected = TripleStore()
            expected.add_all(lubm.generate_university(index, 2, lubm.SMALL_PROFILE, 42))
            store = endpoint.store
            assert list(store.dictionary) == list(expected.dictionary)
            assert list(store.scan_ids()) == list(expected.scan_ids())

    def test_federation_structure(self, lubm2):
        assert len(lubm2) == 2
        assert lubm2.names() == ["university0", "university1"]

    def test_every_grad_student_has_advisor_and_courses(self, lubm2):
        for endpoint in lubm2:
            store = endpoint.store
            for triple in store.match(predicate=RDF_TYPE, object=UB.GraduateStudent):
                student = triple.subject
                assert store.ask(subject=student, predicate=UB.advisor)
                assert store.ask(subject=student, predicate=UB.takesCourse)
                assert store.ask(subject=student, predicate=UB.undergraduateDegreeFrom)

    def test_every_course_is_taught_and_taken(self, lubm2):
        """Coverage invariants that keep the paper's Q2/Q4 locality checks
        clean (no spurious GJVs from untaken courses)."""
        for endpoint in lubm2:
            store = endpoint.store
            taught = {t.object for t in store.match(predicate=UB.teacherOf)}
            taken = {t.object for t in store.match(predicate=UB.takesCourse)}
            assert taught <= taken | taught
            assert taught == {t.object for t in store.match(predicate=UB.teacherOf)}
            assert taught <= taken

    def test_remote_universities_not_typed_locally(self, lubm2):
        """As in raw LUBM files: referenced remote universities carry no
        local rdf:type — this is what makes Q1/Q2 disjoint under LADE."""
        for index, endpoint in enumerate(lubm2):
            store = endpoint.store
            local_university = lubm.university_iri(index)
            typed = {t.subject for t in store.match(predicate=RDF_TYPE, object=UB.University)}
            assert typed == {local_university}

    def test_interlinks_exist(self, lubm4):
        cross = 0
        for index, endpoint in enumerate(lubm4):
            local = lubm.university_iri(index)
            for triple in endpoint.store.match(predicate=UB.undergraduateDegreeFrom):
                if triple.object != local:
                    cross += 1
        assert cross > 0

    def test_profile_scales_size(self):
        small = lubm.build_federation(1, profile=lubm.TINY_PROFILE)
        big = lubm.build_federation(1, profile=lubm.BENCH_PROFILE)
        assert big.total_triples() > small.total_triples() * 3

    def test_queries_have_answers(self, lubm2):
        union = lubm2.union_store()
        for name, text in lubm.queries().items():
            result = evaluate_select(union, parse_query(text))
            assert len(result) > 0, name


class TestQfedGenerator:
    def test_four_endpoints(self, qfed_federation):
        assert qfed_federation.names() == ["diseasome", "drugbank", "dailymed", "sider"]

    def test_deterministic(self):
        first = qfed.build_federation(seed=3)
        second = qfed.build_federation(seed=3)
        assert first.total_triples() == second.total_triples()
        for ep1, ep2 in zip(first, second):
            assert set(ep1.store) == set(ep2.store)

    def test_interlinks_point_to_drugbank(self, qfed_federation):
        diseasome = qfed_federation.get("diseasome").store
        targets = {t.object for t in diseasome.match(predicate=qfed.DISE.possibleDrug)}
        drugbank_drugs = {
            t.subject for t in qfed_federation.get("drugbank").store.match(predicate=RDF_TYPE)
        }
        assert targets <= drugbank_drugs

    def test_asthma_exists(self, qfed_federation):
        diseasome = qfed_federation.get("diseasome").store
        assert diseasome.ask(predicate=qfed.DISE.name, object=None)
        from repro.rdf import Literal

        assert diseasome.ask(predicate=qfed.DISE.name, object=Literal("Asthma"))

    def test_big_literals_are_big(self, qfed_federation):
        dailymed = qfed_federation.get("dailymed").store
        sizes = [len(t.object.value) for t in dailymed.match(predicate=qfed.DM.fullText)]
        assert sizes and min(sizes) > 500

    def test_all_queries_parse_and_answer(self, qfed_federation):
        union = qfed_federation.union_store()
        queries = dict(qfed.queries())
        queries["Drug"] = qfed.drug_query()
        for name, text in queries.items():
            result = evaluate_select(union, parse_query(text))
            assert len(result) > 0, name


class TestLargeRdfGenerator:
    def test_thirteen_endpoints(self, largerdf_federation):
        assert len(largerdf_federation) == 13
        assert set(largerdf_federation.names()) == set(largerdf.ENDPOINT_NAMES)

    def test_tcga_is_biggest(self, largerdf_federation):
        sizes = {ep.name: len(ep.store) for ep in largerdf_federation}
        assert sizes["tcga-m"] == max(sizes.values())
        assert sizes["swdogfood"] == min(sizes.values())

    def test_scale_factor(self):
        small = largerdf.build_federation(scale=0.25, seed=1)
        large = largerdf.build_federation(scale=1.0, seed=1)
        assert large.total_triples() > small.total_triples() * 2

    def test_query_workload_sizes(self):
        assert len(SIMPLE) == 14
        assert len(COMPLEX) == 10
        assert len(BIG) == 8
        assert len(paper_selection()) == 29
        assert set(EXCLUDED) == {"C5", "B5", "B6"}

    def test_category_lookup(self):
        assert category("S3") == "S"
        assert category("C7") == "C"
        assert category("B2") == "B"
        with pytest.raises(KeyError):
            category("Z9")

    def test_by_category_excludes(self):
        assert "C5" not in by_category("C")
        assert "B5" not in by_category("B") and "B6" not in by_category("B")

    def test_all_queries_parse(self):
        for name, text in all_queries().items():
            parse_query(text)

    def test_paper_queries_have_answers(self, largerdf_federation):
        union = largerdf_federation.union_store()
        for name, text in paper_selection().items():
            result = evaluate_select(union, parse_query(text))
            assert len(result) > 0, name


class TestBio2RdfGenerator:
    def test_five_endpoints(self):
        federation = bio2rdf.build_federation(seed=5)
        assert federation.names() == ["drugbank", "hgnc", "mgi", "pharmgkb", "omim"]

    def test_queries_have_answers(self):
        federation = bio2rdf.build_federation(seed=5)
        union = federation.union_store()
        for name, text in bio2rdf.queries().items():
            result = evaluate_select(union, parse_query(text))
            assert len(result) > 0, name

    def test_r1_crosses_three_endpoints(self):
        federation = bio2rdf.build_federation(seed=5)
        from repro.core.engine import LusailEngine

        engine = LusailEngine(federation)
        outcome = engine.execute(bio2rdf.query_r1())
        endpoints_hit = {record.endpoint for record in outcome.metrics.records}
        assert {"drugbank", "hgnc", "mgi"} <= endpoints_hit


class TestHubScaling:
    def test_hub_scale_multiplies_hub_endpoints_only(self):
        base = largerdf.build_federation(scale=0.5, seed=3)
        hubbed = largerdf.build_federation(scale=0.5, seed=3, hub_scale=10.0)
        base_sizes = {ep.name: len(ep.store) for ep in base}
        hub_sizes = {ep.name: len(ep.store) for ep in hubbed}
        for hub in ("geonames", "chebi", "kegg", "nytimes"):
            assert hub_sizes[hub] > base_sizes[hub] * 5
        for core in ("tcga-m", "tcga-e", "tcga-a", "swdogfood"):
            assert hub_sizes[core] == base_sizes[core]

    def test_hub_scaled_queries_still_answer(self):
        from repro.core.engine import LusailEngine

        federation = largerdf.build_federation(scale=0.5, seed=3, hub_scale=5.0)
        engine = LusailEngine(federation)
        outcome = engine.execute(SIMPLE["S13"])
        assert outcome.ok and len(outcome.result) > 0
