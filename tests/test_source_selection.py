"""Tests for ASK-based source selection and binding-driven refinement."""

from repro.endpoint import EngineCaches, FederationClient
from repro.net.simulator import local_cluster_config
from repro.planning.source_selection import (
    SourceSelection,
    refine_sources_with_bindings,
    select_sources,
)
from repro.rdf import UB, TriplePattern, Variable

from tests.conftest import MIT, build_paper_federation

S, P, U, A = (Variable(n) for n in "SPUA")


def make_client():
    return FederationClient(build_paper_federation(), local_cluster_config(), EngineCaches())


class TestSelectSources:
    def test_pattern_everywhere(self):
        client = make_client()
        pattern = TriplePattern(S, UB.advisor, P)
        selection, __ = select_sources(client, [pattern], 0.0)
        assert selection.relevant(pattern) == ("EP1", "EP2")

    def test_pattern_single_endpoint(self):
        client = make_client()
        pattern = TriplePattern(U, UB.address, A)
        selection, __ = select_sources(client, [pattern], 0.0)
        assert selection.relevant(pattern) == ("EP1", "EP2")
        constant = TriplePattern(MIT.MIT, UB.address, A)
        selection, __ = select_sources(client, [constant], 0.0)
        assert selection.relevant(constant) == ("EP1",)

    def test_unmatched_pattern_has_no_sources(self):
        client = make_client()
        pattern = TriplePattern(S, UB.nothingHere, P)
        selection, __ = select_sources(client, [pattern], 0.0)
        assert selection.relevant(pattern) == ()

    def test_one_ask_per_pattern_per_endpoint(self):
        # Bound subjects are beyond the summaries: each pattern is ASKed
        # at each endpoint, once.
        client = make_client()
        patterns = [TriplePattern(MIT.Lee, UB.advisor, P), TriplePattern(MIT.MIT, UB.address, A)]
        select_sources(client, patterns, 0.0)
        assert client.metrics.request_count("ask") == 4

    def test_duplicate_patterns_probed_once(self):
        client = make_client()
        pattern = TriplePattern(MIT.Lee, UB.advisor, P)
        select_sources(client, [pattern, pattern], 0.0)
        assert client.metrics.request_count("ask") == 2

    def test_time_advances(self):
        client = make_client()
        pattern = TriplePattern(S, UB.advisor, P)
        __, end = select_sources(client, [pattern], 5.0)
        assert end > 5.0


class TestSourceSelectionObject:
    def test_all_sources_deduplicated(self):
        selection = SourceSelection(
            sources={
                TriplePattern(S, UB.advisor, P): ("EP1", "EP2"),
                TriplePattern(U, UB.address, A): ("EP1",),
            }
        )
        assert selection.all_sources() == ("EP1", "EP2")

    def test_restrict(self):
        pattern = TriplePattern(S, UB.advisor, P)
        selection = SourceSelection(sources={pattern: ("EP1", "EP2")})
        selection.restrict(pattern, ("EP2", "EP3"))
        assert selection.relevant(pattern) == ("EP2",)


class TestRefinement:
    def test_refinement_drops_irrelevant_endpoints(self):
        client = make_client()
        bound = [TriplePattern(MIT.MIT, UB.address, A)]
        refined, __ = refine_sources_with_bindings(client, bound, ("EP1", "EP2"), 0.0)
        assert refined == ("EP1",)

    def test_refinement_keeps_matching(self):
        client = make_client()
        bound = [
            TriplePattern(MIT.MIT, UB.address, A),
            TriplePattern(MIT.Ben, UB.teacherOf, Variable("c")),
        ]
        refined, __ = refine_sources_with_bindings(client, bound, ("EP1", "EP2"), 0.0)
        assert "EP1" in refined
