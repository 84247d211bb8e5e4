"""Integration tests pinning the paper's qualitative claims.

Each test encodes one sentence from the paper's evaluation as an
executable assertion over the scaled-down workloads.
"""

import pytest

from repro.baselines import FedXEngine, HibiscusEngine
from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets import lubm, qfed
from repro.net import metrics as metrics_module


@pytest.fixture(scope="module")
def lubm_fed():
    return lubm.build_federation(4, profile=lubm.SMALL_PROFILE, seed=42)


@pytest.fixture(scope="module")
def qfed_fed():
    return qfed.build_federation(
        diseases=100, drugs=300, marketed=250, side_effects=300,
        drugs_per_disease=15, seed=42,
    )


class TestSectionVIClaims:
    def test_q1_q2_discovered_disjoint(self, lubm_fed):
        """'Lusail discovered that both Q1 and Q2 are disjoint queries.'"""
        engine = LusailEngine(lubm_fed)
        for text in (lubm.query_q1(), lubm.query_q2()):
            outcome = engine.execute(text)
            assert outcome.ok
            assert all(
                plan.decomposition.disjoint for plan in outcome.plan.branch_plans
            )

    def test_q3_gjv_from_source_selection_alone(self, lubm_fed):
        """'For Q3, Lusail detects the GJVs using the source selection
        information, i.e., it does not need to communicate with the
        endpoints' — whenever the constant-university pattern is not
        relevant everywhere."""
        engine = LusailEngine(lubm_fed)
        plan = engine.execute(lubm.query_q3()).plan.branch_plans[0].decomposition
        if plan.gjv_names():
            assert plan.check_query_count == 0

    def test_q4_two_subqueries_second_delayed(self, lubm_fed):
        """'Lusail decomposes Q4 into two subqueries, with the second
        subquery delayed until the results of the first are ready.'"""
        engine = LusailEngine(lubm_fed)
        outcome = engine.execute(lubm.query_q4())
        assert outcome.ok
        plan = outcome.plan.branch_plans[0].decomposition
        assert len(plan.subqueries) == 2
        delayed = [sq for sq in plan.subqueries if sq.delayed]
        assert len(delayed) == 1
        assert delayed[0].estimated_cardinality == max(
            sq.estimated_cardinality for sq in plan.subqueries
        )

    def test_fedx_requests_grow_with_endpoints(self):
        """Fig 3: FedX's request count grows with the number of
        endpoints on LUBM Q2."""
        counts = []
        for universities in (2, 4, 8):
            federation = lubm.build_federation(universities, seed=42)
            outcome = FedXEngine(federation).execute(lubm.query_q2())
            counts.append(outcome.metrics.request_count())
        assert counts[0] < counts[1] < counts[2]

    def test_lusail_requests_stay_flat_on_disjoint_queries(self):
        """Lusail's disjoint evaluation needs one SELECT per endpoint,
        so its execution-phase requests grow only linearly."""
        for universities in (2, 4, 8):
            federation = lubm.build_federation(universities, seed=42)
            engine = LusailEngine(federation)
            engine.execute(lubm.query_q2())  # warm probes
            outcome = engine.execute(lubm.query_q2())
            assert outcome.metrics.request_count(metrics_module.SELECT) == universities
            assert outcome.metrics.request_count(metrics_module.BOUND) == 0

    def test_lusail_beats_fedx_on_lubm(self, lubm_fed):
        """Fig 12: Lusail is faster than FedX on Q1/Q2/Q4 at 4 endpoints."""
        lusail = LusailEngine(lubm_fed)
        fedx = FedXEngine(lubm_fed)
        for text in (lubm.query_q1(), lubm.query_q2(), lubm.query_q4()):
            lusail.execute(text)
            fedx.execute(text)
            warm_lusail = lusail.execute(text)
            warm_fedx = fedx.execute(text)
            assert warm_lusail.metrics.virtual_ms < warm_fedx.metrics.virtual_ms

    def test_lusail_ships_less_data_on_big_literal_query(self, qfed_fed):
        """Fig 11: big-literal queries penalize engines that ship the
        package-insert text through repeated bound joins."""
        lusail = LusailEngine(qfed_fed)
        fedx = FedXEngine(qfed_fed)
        text = qfed.queries()["C2P2B"]
        lusail_out = lusail.execute(text)
        fedx_out = fedx.execute(text)
        assert lusail_out.ok and fedx_out.ok
        assert lusail_out.metrics.bytes_shipped() <= fedx_out.metrics.bytes_shipped()

    def test_hibiscus_inherits_fedx_bound_join_bottleneck(self, lubm_fed):
        """Fig 12: HiBISCuS cannot prune same-schema LUBM endpoints, so
        it behaves like FedX there."""
        fedx = FedXEngine(lubm_fed).execute(lubm.query_q2())
        hibiscus = HibiscusEngine(lubm_fed).execute(lubm.query_q2())
        assert hibiscus.metrics.request_count() == fedx.metrics.request_count()

    def test_exclusive_groups_worse_than_lade_on_same_schema(self, lubm_fed):
        """Sec II: schema-identical endpoints defeat exclusive groups;
        locality-aware grouping keeps whole queries at the endpoints."""
        lade = LusailEngine(lubm_fed)
        exclusive = LusailEngine(lubm_fed, config=LusailConfig(decomposition="exclusive"))
        lade.execute(lubm.query_q2())
        exclusive.execute(lubm.query_q2())
        warm_lade = lade.execute(lubm.query_q2())
        warm_exclusive = exclusive.execute(lubm.query_q2())
        assert warm_lade.metrics.rows_shipped() <= warm_exclusive.metrics.rows_shipped()
        assert warm_lade.metrics.virtual_ms <= warm_exclusive.metrics.virtual_ms


class TestC4Inversion:
    def test_fedx_wins_limit_queries_via_cutoff(self):
        """Fig 13 / Sec VI-C: 'FedX cuts short the query execution once
        the first 50 results are obtained, hence FedX outperformed
        Lusail in C4' — Lusail's LIMIT handling is deliberately naive."""
        from repro.baselines import FedXEngine
        from repro.datasets import largerdf
        from repro.datasets.queries_largerdf import COMPLEX

        federation = largerdf.build_federation(scale=1.0, seed=42)
        text = COMPLEX["C4"]
        lusail = LusailEngine(federation)
        fedx = FedXEngine(federation)
        lusail.execute(text)
        fedx.execute(text)
        warm_lusail = lusail.execute(text)
        warm_fedx = fedx.execute(text)
        assert warm_lusail.ok and warm_fedx.ok
        assert len(warm_lusail.result) == len(warm_fedx.result) == 50
        assert warm_fedx.metrics.virtual_ms < warm_lusail.metrics.virtual_ms
