"""Unit tests for SAPE's cost model, Chauvenet rejection, delay policies."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.core.decomposition.subquery import Subquery
from repro.core.execution.cost_model import (
    MAX_BLOCK,
    CardinalityEstimates,
    DelayPolicy,
    RequestCosts,
    _priced_requests,
    collect_statistics,
    count_query,
    decide_delays,
)
from repro.core.execution.outliers import chauvenet_outliers, robust_stats
from repro.endpoint import Endpoint, EngineCaches, Federation, FederationClient
from repro.net.simulator import geo_distributed_config, local_cluster_config
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
        # A pushable filter sends COUNT probes; the second collection
        # finds them cached.
        federation = build_paper_federation()
        client = FederationClient(federation, local_cluster_config(), EngineCaches())
        positive = Comparison("!=", VarExpr(P), TermExpr(typed_literal(0)))
        subquery = Subquery(0, (TP_ADVISOR,), ("EP1", "EP2"), filters=(positive,))
        collect_statistics(client, [subquery], 0.0)
        before = client.metrics.request_count("count")
        collect_statistics(client, [subquery], 0.0)
        assert before == 2
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
        subqueries[1] = replace(subqueries[1], optional_group=0)
        decision = decide_delays(subqueries, estimates, projected=set())
        assert 1 in decision.delayed_ids

    def test_at_least_one_required_stays_eager(self):
        subqueries, estimates = make_subqueries([100, 100])
        decision = decide_delays(subqueries, estimates, projected=set())
        eager = [sq for sq in subqueries if sq.id not in decision.delayed_ids]
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
        subqueries[1:] = [replace(sq, optional_group=0) for sq in subqueries[1:]]
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.delayed_ids == {1, 2, 3, 4}
        assert decision.reasons == {
            0: "kept-eager", 1: "optional", 2: "optional", 3: "optional", 4: "optional"
        }

    def test_estimated_cardinality_recorded(self):
        subqueries, estimates = make_subqueries([10, 20])
        before = list(subqueries)
        decision = decide_delays(subqueries, estimates, projected=set())
        assert decision.cardinalities == {0: 10, 1: 20}
        assert subqueries == before

    def test_disabled_records_cardinalities_and_delays_nothing(self):
        subqueries, estimates = make_subqueries([10, 10, 10, 10, 5000])
        decision = decide_delays(subqueries, estimates, projected=set(), policy=None)
        assert decision.policy is None
        assert decision.delayed_ids == frozenset()
        assert decision.cardinalities[4] == 5000


# ------------------------------------------------------------- cost rule

LOCAL = local_cluster_config()
GEO = geo_distributed_config()


def costs_for(config, regions):
    """RequestCosts for endpoints named after their regions' keys."""
    federation = Federation(Endpoint(name, region=region) for name, region in regions.items())
    return RequestCosts.of(config, federation, regions)


def shaped(*specs):
    """Subqueries from ``(variables, {endpoint: count})`` specs, each one
    pattern ``?a p<i> ?b`` over the named variables, with its count."""
    subqueries, estimates = [], CardinalityEstimates()
    for index, ((left, right), counts) in enumerate(specs):
        pattern = TriplePattern(Variable(left), UB[f"q{index}"], Variable(right))
        subqueries.append(Subquery(index, (pattern,), tuple(counts)))
        for endpoint, count in counts.items():
            estimates.pattern_counts[(pattern, endpoint)] = count
    return subqueries, estimates


def decide(policy, specs, costs, distinct=None):
    """The decision over :func:`shaped` subqueries, with hand-written
    distinct-value bounds ``{(subquery id, variable name): count}``."""
    subqueries, estimates = shaped(*specs)
    for (index, name), count in (distinct or {}).items():
        estimates.distinct[(index, Variable(name))] = count
    return decide_delays(subqueries, estimates, projected=set(), policy=policy, costs=costs)


#: LargeRDF S2: one drug name, its 2640 sameAs links over four
#: endpoints, then the 2500-row label extent at the chain's far end.
S2_CHAIN = (
    (("d", "x"), {"nytimes": 1}),
    (("x", "y"), {"drugbank": 660, "kegg": 660, "linkedmdb": 660, "nytimes": 660}),
    (("y", "label"), {"dbpedia": 2500}),
)
S2_COSTS = {name: "local" for name in ("nytimes", "drugbank", "kegg", "linkedmdb", "dbpedia")}


class TestRequestCosts:
    def test_prices_follow_the_network_config_and_each_region(self):
        costs = costs_for(GEO, {"eu": "north-europe", "us": "east-us"})
        assert costs.request_ms == {
            "eu": 95.0 + GEO.request_overhead_ms + GEO.eval_base_ms,
            "us": 25.0 + GEO.request_overhead_ms + GEO.eval_base_ms,
        }
        assert costs.row_ms == pytest.approx(0.005 + 0.05 + 120 / 10_000)

    def test_cost_policy_needs_costs(self):
        subqueries, estimates = make_subqueries([10, 20])
        with pytest.raises(ValueError):
            decide_delays(subqueries, estimates, projected=set(), policy=DelayPolicy.COST)


class TestBindRequestPremium:
    """The requests the cost rule charges a bound join: one per block of
    bindings, as phase two ships them, or one per ~block rows expected
    back where that is more."""

    def test_selective_binding_pays_per_block_of_bindings(self):
        # <= 1 row per binding: exactly the blocks phase two ships.
        assert _priced_requests(200, 100.0, MAX_BLOCK) == 1
        assert _priced_requests(1200, 100.0, MAX_BLOCK) == 3

    def test_unselective_binding_pays_per_rows_back(self):
        # 10 rows per binding: 1,000 rows back, two requests of ~500.
        assert _priced_requests(100, 1000.0, MAX_BLOCK) == 2
        assert _priced_requests(1000, 10_000.0, MAX_BLOCK) == 20

    def test_premium_capped_at_one_request_per_fifty_bindings(self):
        assert _priced_requests(10, 100_000.0, MAX_BLOCK) == 1
        assert _priced_requests(1000, 1_000_000.0, MAX_BLOCK) == 20

    def test_empty_extent_pays_per_block(self):
        assert _priced_requests(100, 0.0, MAX_BLOCK) == 1

    def test_no_bindings_no_requests(self):
        assert _priced_requests(0, 1000.0, MAX_BLOCK) == 0

    def test_floor_never_above_max_block(self):
        assert _priced_requests(7, 1000.0, 1) == 7

    def test_the_rule_prices_the_block_it_is_given(self):
        # C1's shape on the local cluster: ~80 bindings reach each far
        # subquery.  In one block each, binding them is clearly cheaper;
        # at one binding per request, shipping them is.
        specs = (
            (("x", "a"), {"drugbank": 80}),
            (("x", "b"), {"drugbank": 848, "kegg": 848, "linkedmdb": 848, "nytimes": 848}),
            (("x", "c"), {"chebi": 2250}),
        )
        costs = costs_for(
            LOCAL, dict.fromkeys(("drugbank", "kegg", "linkedmdb", "nytimes", "chebi"), "local")
        )
        assert costs.block == MAX_BLOCK
        planned = decide(DelayPolicy.COST, specs, costs)
        assert planned.delayed_ids == {1, 2}
        one = decide(DelayPolicy.COST, specs, replace(costs, block=1))
        assert one.delayed_ids == set()
        assert one.reasons[1] == one.reasons[2] == "ship-cheaper"


class TestCostRule:
    def test_s2_chain_delays_both_far_subqueries(self):
        costs = costs_for(LOCAL, S2_COSTS)
        paper = decide(DelayPolicy.MU_SIGMA, S2_CHAIN, costs)
        assert paper.delayed_ids == {1}
        cost = decide(DelayPolicy.COST, S2_CHAIN, costs)
        assert cost.delayed_ids == {1, 2}
        assert cost.seed_id == 0
        assert cost.reasons[1] == cost.reasons[2] == "bound-cheaper"
        # One binding reaches each: the drug, then its one sameAs link.
        assert cost.bindings == {1: 1.0, 2: 1.0}
        assert cost.bound_ms[2] < 2.0 < 30.0 < cost.ship_ms[2]
        # A threshold policy records the same estimates, verdicts unchanged.
        assert paper.bindings == {1: 1.0, 2: 1.0}
        assert paper.reasons[2] == "below"

    def test_b7_extent_every_binding_covers_stays_eager(self):
        # 320 bindings, 15 rows per binding over a 4800-row extent: the
        # bound join fetches the whole extent anyway, in seven requests.
        specs = (
            (("x", "g"), {"affymetrix": 320}),
            (("x", "m"), {"tcga-m": 4800}),
            (("x", "e"), {"tcga-e": 3840}),
        )
        costs = costs_for(LOCAL, {"affymetrix": "local", "tcga-m": "local", "tcga-e": "local"})
        distinct = {(0, "x"): 320, (1, "x"): 320, (2, "x"): 320}
        paper = decide(DelayPolicy.MU_SIGMA, specs, costs, distinct)
        assert paper.delayed_ids == {1}
        cost = decide(DelayPolicy.COST, specs, costs, distinct)
        assert cost.delayed_ids == set()
        assert cost.reasons[1] == cost.reasons[2] == "ship-cheaper"
        assert cost.bindings[1] == 320
        assert cost.bound_ms[1] > cost.ship_ms[1]

    def test_geo_request_costs_keep_the_paper_verdicts(self):
        # C1's shape: a small seed, a 3392-row subquery over four
        # endpoints and a 2250-row one.  At ~100 ms a request the
        # estimates differ by less than two round trips: the paper's
        # verdicts stand.  On the local cluster the same estimates bind
        # the 2250-row subquery too.
        specs = (
            (("x", "a"), {"drugbank": 80}),
            (("x", "b"), {"drugbank": 848, "kegg": 848, "linkedmdb": 848, "nytimes": 848}),
            (("x", "c"), {"chebi": 2250}),
        )
        regions = {
            "drugbank": "north-europe", "kegg": "west-europe", "linkedmdb": "uk-south",
            "nytimes": "east-us", "chebi": "west-us",
        }
        paper = decide(DelayPolicy.MU_SIGMA, specs, costs_for(GEO, regions))
        geo = decide(DelayPolicy.COST, specs, costs_for(GEO, regions))
        assert geo.delayed_ids == paper.delayed_ids
        assert geo.reasons == paper.reasons
        local = decide(DelayPolicy.COST, specs, costs_for(LOCAL, dict.fromkeys(regions, "local")))
        assert local.delayed_ids == paper.delayed_ids | {2}
        assert local.reasons[2] == "bound-cheaper"

    def test_near_tie_keeps_the_paper_verdict(self):
        # LUBM L11's shape: 48 rows over two endpoints beside a 24-row
        # seed.  Binding and shipping differ by ~1.5 ms, inside two round
        # trips, so the paper's delay (and its 48 rows instead of 72) stays.
        specs = ((("x", "y"), {"u0": 24, "u1": 24}), (("x", "z"), {"u0": 24}))
        costs = costs_for(LOCAL, {"u0": "local", "u1": "local"})
        decision = decide(DelayPolicy.COST, specs, costs)
        assert decision.seed_id == 1
        assert decision.delayed_ids == {0}
        assert decision.reasons[0] == "cardinality"
        assert abs(decision.bound_ms[0] - decision.ship_ms[0]) <= 2 * costs.request_ms["u0"]

    def test_seed_stays_eager_under_the_cost_rule(self):
        # The smallest subquery touches the most endpoints: the paper
        # delays it on that count, the cost rule keeps it as the seed.
        specs = (
            (("x", "a"), {f"ep{k}": 1 for k in range(8)}),
            *((("x", f"v{count}"), {"ep0": count}) for count in (30, 40, 50, 60)),
        )
        costs = costs_for(LOCAL, {f"ep{k}": "local" for k in range(8)})
        paper = decide(DelayPolicy.MU_SIGMA, specs, costs)
        assert paper.reasons[0] == "endpoints"
        cost = decide(DelayPolicy.COST, specs, costs)
        assert cost.seed_id == 0 and 0 not in cost.delayed_ids
        assert cost.reasons[0] == "kept-eager"

    def test_unconnected_and_optional_subqueries_keep_the_paper_verdict(self):
        specs = (
            (("x", "a"), {"ep0": 10}),
            (("x", "b"), {"ep0": 5000}),
            (("u", "v"), {"ep1": 5000}),
            (("x", "o"), {"ep0": 10}),
        )
        subqueries, estimates = shaped(*specs)
        subqueries[3] = replace(subqueries[3], optional_group=0)
        decision = decide_delays(
            subqueries, estimates, projected=set(), policy=DelayPolicy.COST,
            costs=costs_for(LOCAL, {"ep0": "local", "ep1": "local"}),
        )
        assert set(decision.bindings) == {1}
        assert decision.reasons[2] in ("cardinality", "below")
        assert decision.reasons[3] == "optional"

    def test_charsets_sharpen_the_bindings_estimate(self):
        # Q6: the summaries' distinct counts bind the two large subqueries
        # to fewer values than the cardinalities alone would.
        from repro.core.engine import LusailEngine
        from repro.datasets import lubm

        federation = lubm.build_federation(2, lubm.scaled_profile(1), seed=1)
        outcome = LusailEngine(federation).execute(lubm.crossing_queries()["Q6"])
        branch = outcome.plan.branch_plans[0]
        decision = branch.delays
        assert decision.delayed_ids == {1, 2}
        assert decision.reasons[1] == decision.reasons[2] == "bound-cheaper"
        seed = branch.decomposition.subqueries[decision.seed_id]
        shared = sorted(seed.variables() & branch.decomposition.subqueries[1].variables())
        cardinality_only = min(
            branch.estimates.variable_cardinality(seed, variable) for variable in shared
        )
        assert 0 < decision.bindings[1] < cardinality_only
