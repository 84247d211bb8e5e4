"""Unit tests for SAPE's cost model, Chauvenet rejection, delay policies."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.decomposition.subquery import Subquery
from repro.core.execution.cost_model import (
    CardinalityEstimates,
    DelayPolicy,
    collect_statistics,
    count_query,
    decide_delays,
)
from repro.core.execution.outliers import chauvenet_outliers, robust_stats
from repro.endpoint import EngineCaches, FederationClient
from repro.net.simulator import local_cluster_config
from repro.rdf import UB, TriplePattern, Variable
from repro.sparql.ast import Comparison, TermExpr, VarExpr
from repro.rdf.terms import typed_literal

from tests.conftest import build_paper_federation

S, P, U, C, A = (Variable(n) for n in "SPUCA")
TP_ADVISOR = TriplePattern(S, UB.advisor, P)
TP_TAKES = TriplePattern(S, UB.takesCourse, C)
TP_ADDRESS = TriplePattern(U, UB.address, A)


class TestChauvenet:
    def test_no_outliers_in_uniform_data(self):
        assert chauvenet_outliers([10.0, 11.0, 9.0, 10.5, 9.5]) == set()

    def test_extreme_value_rejected(self):
        values = [10.0, 11.0, 9.0, 10.0, 1_000_000.0]
        assert chauvenet_outliers(values) == {4}

    def test_two_extremes_rejected_iteratively(self):
        values = [10.0, 11.0, 9.0, 10.0, 12.0, 500_000.0, 900_000.0]
        outliers = chauvenet_outliers(values)
        assert {5, 6} <= outliers

    def test_small_samples_untouched(self):
        assert chauvenet_outliers([1.0, 1e9]) == set()

    def test_zero_variance(self):
        assert chauvenet_outliers([5.0] * 10) == set()

    def test_robust_stats_excludes_outliers(self):
        values = [10.0, 11.0, 9.0, 10.0, 1_000_000.0]
        stats = robust_stats(values)
        assert stats.outliers == frozenset({4})
        assert stats.mean == pytest.approx(10.0)

    def test_robust_stats_disabled(self):
        values = [10.0, 11.0, 9.0, 10.0, 1_000_000.0]
        stats = robust_stats(values, use_chauvenet=False)
        assert stats.outliers == frozenset()
        assert stats.mean > 1000

    def test_empty_values(self):
        stats = robust_stats([])
        assert stats.mean == 0.0 and stats.std == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=3, max_size=30))
    def test_property_outliers_are_extremes(self, values):
        outliers = chauvenet_outliers(values)
        if not outliers:
            return
        kept = [v for i, v in enumerate(values) if i not in outliers]
        lo, hi = min(kept), max(kept)
        for index in outliers:
            assert values[index] <= lo or values[index] >= hi


class TestCountQuery:
    def test_shape(self):
        query = count_query(TP_ADVISOR)
        assert query.aggregate is not None
        assert query.aggregate.variable is None  # COUNT(*)

    def test_filter_pushed_when_covered(self):
        expr = Comparison(">", VarExpr(P), TermExpr(typed_literal(0)))
        query = count_query(TP_ADVISOR, (expr,))
        from repro.sparql.ast import Filter

        assert any(isinstance(e, Filter) for e in query.where.elements)

    def test_foreign_filter_not_pushed(self):
        expr = Comparison(">", VarExpr(U), TermExpr(typed_literal(0)))
        query = count_query(TP_ADVISOR, (expr,))
        from repro.sparql.ast import Filter

        assert not any(isinstance(e, Filter) for e in query.where.elements)


class TestEstimates:
    def make_estimates(self):
        estimates = CardinalityEstimates()
        estimates.pattern_counts[(TP_ADVISOR, "EP1")] = 100
        estimates.pattern_counts[(TP_ADVISOR, "EP2")] = 50
        estimates.pattern_counts[(TP_TAKES, "EP1")] = 10
        estimates.pattern_counts[(TP_TAKES, "EP2")] = 500
        return estimates

    def test_variable_cardinality_min_rule(self):
        estimates = self.make_estimates()
        subquery = Subquery(0, (TP_ADVISOR, TP_TAKES), ("EP1", "EP2"))
        # per endpoint min: EP1 -> min(100,10)=10, EP2 -> min(50,500)=50
        assert estimates.variable_cardinality(subquery, S) == 60

    def test_subquery_cardinality_max_over_vars(self):
        estimates = self.make_estimates()
        subquery = Subquery(0, (TP_ADVISOR, TP_TAKES), ("EP1", "EP2"))
        # P appears only in advisor -> 150; C only in takes -> 510; S -> 60
        assert estimates.subquery_cardinality(subquery, {S, P, C}) == 510

    def test_projected_restriction(self):
        estimates = self.make_estimates()
        subquery = Subquery(0, (TP_ADVISOR, TP_TAKES), ("EP1", "EP2"))
        assert estimates.subquery_cardinality(subquery, {S}) == 60


class TestCollectStatistics:
    def test_counts_from_endpoints(self):
        federation = build_paper_federation()
        client = FederationClient(federation, local_cluster_config(), EngineCaches())
        subquery = Subquery(0, (TP_ADVISOR,), ("EP1", "EP2"))
        estimates, __ = collect_statistics(client, [subquery], 0.0)
        assert estimates.pattern_count(TP_ADVISOR, "EP1") == 2  # Lee, Sam
        assert estimates.pattern_count(TP_ADVISOR, "EP2") == 2  # Kim x2

    def test_cached_on_second_collection(self):
        federation = build_paper_federation()
        client = FederationClient(federation, local_cluster_config(), EngineCaches())
        subquery = Subquery(0, (TP_ADVISOR,), ("EP1", "EP2"))
        collect_statistics(client, [subquery], 0.0)
        before = client.metrics.request_count("count")
        collect_statistics(client, [subquery], 0.0)
        assert client.metrics.request_count("count") == before


def make_subqueries(cardinalities, endpoints_per=1):
    subqueries = []
    estimates = CardinalityEstimates()
    for index, cardinality in enumerate(cardinalities):
        pattern = TriplePattern(Variable("x"), UB[f"p{index}"], Variable(f"y{index}"))
        sources = tuple(f"ep{k}" for k in range(endpoints_per))
        subqueries.append(Subquery(index, (pattern,), sources))
        for source in sources:
            estimates.pattern_counts[(pattern, source)] = cardinality // endpoints_per
    return subqueries, estimates


class TestDecideDelays:
    def test_mu_sigma_delays_the_giant(self):
        subqueries, estimates = make_subqueries([10, 10, 10, 10, 5000])
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.delayed_ids == {4}

    def test_mu_sigma_also_cuts_top_of_spread(self):
        # mu + sigma is ~ the 84th percentile: the largest of a spread-out
        # cluster is delayed as well (this is the paper's heuristic).
        subqueries, estimates = make_subqueries([10, 12, 9, 11, 5000])
        decision = decide_delays(subqueries, estimates, projected=set())
        assert 4 in decision.delayed_ids
        assert 1 in decision.delayed_ids

    def test_uniform_cardinalities_delay_nothing(self):
        subqueries, estimates = make_subqueries([10, 10, 10, 10])
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.delayed_ids == set()

    def test_mu_policy_delays_more_than_mu_sigma(self):
        cards = [10, 40, 90, 160, 5000]
        sub_mu, est_mu = make_subqueries(cards)
        mu = decide_delays(sub_mu, est_mu, projected=set(), policy=DelayPolicy.MU)
        sub_ms, est_ms = make_subqueries(cards)
        mu_sigma = decide_delays(sub_ms, est_ms, projected=set(), policy=DelayPolicy.MU_SIGMA)
        assert len(mu.delayed_ids) >= len(mu_sigma.delayed_ids)

    def test_outliers_policy_only_rejects_chauvenet(self):
        subqueries, estimates = make_subqueries([10, 12, 9, 11, 5000])
        decision = decide_delays(
            subqueries, estimates, projected=set(), policy=DelayPolicy.OUTLIERS
        )
        assert decision.delayed_ids == {4}

    def test_optional_subqueries_always_delayed(self):
        subqueries, estimates = make_subqueries([10, 10])
        subqueries[1].optional_group = 0
        decision = decide_delays(subqueries, estimates, projected=set())
        assert 1 in decision.delayed_ids

    def test_at_least_one_required_stays_eager(self):
        subqueries, estimates = make_subqueries([100, 100])
        for subquery in subqueries:
            subquery.delayed = True
        decision = decide_delays(subqueries, estimates, projected=set())
        eager = [sq for sq in subqueries if not sq.delayed and sq.optional_group is None]
        assert eager

    def test_endpoint_count_triggers_delay(self):
        # One subquery touching many endpoints gets delayed although its
        # cardinality equals its peers' (so no cardinality rule fires).
        subqueries, estimates = make_subqueries([40, 40, 40, 40])
        wide_pattern = TriplePattern(Variable("x"), UB.wide, Variable("w"))
        wide_sources = tuple(f"ep{k}" for k in range(40))
        wide = Subquery(99, (wide_pattern,), wide_sources)
        for source in wide_sources:
            estimates.pattern_counts[(wide_pattern, source)] = 1
        decision = decide_delays(subqueries + [wide], estimates, projected=set())
        assert decision.cardinalities[99] == 40
        assert decision.delayed_ids == {99}
        assert decision.reasons[99] == "endpoints"

    def test_large_subqueries_delayed_after_small_one_rejected(self):
        # LUBM Q6's shape: Chauvenet rejects the 240, and the survivors'
        # mean is 41138 itself; the two large subqueries are still above
        # the mean over every subquery and are delayed.
        subqueries, estimates = make_subqueries([240, 41138, 41138])
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.cardinality_rejected_ids == {0}
        assert decision.delayed_ids == {1, 2}
        assert decision.reasons == {0: "below", 1: "cardinality", 2: "cardinality"}

    def test_all_equal_cardinalities_delay_nothing(self):
        subqueries, estimates = make_subqueries([41138, 41138, 41138])
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.delayed_ids == set()
        assert set(decision.reasons.values()) == {"below"}

    def test_mu_policy_unchanged_without_rejection(self):
        # No Chauvenet rejection: the survivors' mean is the full mean
        # (20), and only the 30 is above it.
        subqueries, estimates = make_subqueries([10, 20, 30])
        decision = decide_delays(subqueries, estimates, projected=set(), policy=DelayPolicy.MU)
        assert decision.cardinality_threshold == 20.0
        assert decision.delayed_ids == {2}

    def test_two_subquery_peer_rule_recorded(self):
        subqueries, estimates = make_subqueries([60, 100])
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.delayed_ids == set()
        assert decision.reasons == {0: "below", 1: "peer"}

    def test_keeper_and_optional_recorded(self):
        # The only required subquery qualifies on cardinality, so it is
        # the one kept eager; the OPTIONAL ones are delayed as a class.
        subqueries, estimates = make_subqueries([5000, 10, 10, 10, 10])
        for subquery in subqueries[1:]:
            subquery.optional_group = 0
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.delayed_ids == {1, 2, 3, 4}
        assert decision.reasons == {
            0: "kept-eager", 1: "optional", 2: "optional", 3: "optional", 4: "optional"
        }

    def test_estimated_cardinality_recorded(self):
        subqueries, estimates = make_subqueries([10, 20])
        decide_delays(subqueries, estimates, projected=set())
        assert subqueries[0].estimated_cardinality == 10
        assert subqueries[1].estimated_cardinality == 20
