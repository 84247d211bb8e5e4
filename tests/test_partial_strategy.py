"""Partial evaluation: digests, pruning, spec building, the strategy
picker, and cross-strategy row identity.

The tentpole invariant is that every execution strategy — the bound-join
ladder, forced partial evaluation, and the auto picker — returns exactly
the rows a centralized evaluation over the union graph returns, on the
paper's running example, on LUBM (including OPTIONAL / UNION and the
crossing queries), on random federations, and under fault profiles.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import SCHEDULERS, LusailConfig, LusailEngine
from repro.core.execution.scheduler import BranchScheduler
from repro.core.mqo import SharedSubqueryCache
from repro.datasets import lubm
from repro.datasets.random_federation import (
    FederationShape,
    build_random_federation,
    build_random_query,
)
from repro.endpoint import Endpoint, Federation, FederationClient
from repro.faults import EndpointFaults, FaultPlan, ResiliencePolicy
from repro.harness.profiling import profile_query
from repro.harness.runner import make_engines
from repro.net import metrics as metrics_module
from repro.net.simulator import geo_distributed_config
from repro.obs import MetricsRegistry, Tracer
from repro.rdf import IRI, Literal, Namespace, Triple, Variable
from repro.sparql import evaluate_select, parse_query, serialize_query
from repro.sparql.evaluator import SelectResult
from repro.sparql.partial import prune_rows
from repro.sparql.skeleton import canonicalize_query, is_fragment_shape
from repro.store import TripleStore
from repro.store.digests import (
    OBJECT,
    SUBJECT,
    JoinDigestIndex,
    stable_term_hash,
)
from tests.conftest import QA, build_paper_federation

EX = Namespace("http://ex.org/")

STRATEGIES = ("bound-join", "partial", "auto")

_UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"

#: Paper-federation queries covering the mediator algebra partial
#: evaluation must preserve: the running example, OPTIONAL, and UNION.
PAPER_QUERIES = {
    "QA": QA,
    "optional": _UB_PREFIX
    + """
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?P ub:PhDDegreeFrom ?U .
  OPTIONAL { ?U ub:address ?A }
}
""",
    "union": _UB_PREFIX
    + """
SELECT ?P ?U WHERE {
  { ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }
  UNION
  { ?S ub:advisor ?P . ?P ub:teacherOf ?C . ?P ub:PhDDegreeFrom ?U }
}
""",
}


def _oracle(federation, query_text) -> Counter:
    return Counter(evaluate_select(federation.union_store(), parse_query(query_text)).rows)


def _engine(federation, strategy, **config) -> LusailEngine:
    return LusailEngine(federation, config=LusailConfig(strategy=strategy, **config))


def _executed_strategy(engine, query_text) -> str:
    """Run one query traced and return the execution span's strategy."""
    tracer = Tracer(enabled=True)
    engine.tracer = tracer
    outcome = engine.execute(query_text)
    assert outcome.ok, outcome.error
    spans = tracer.roots[-1].find("execution")
    assert spans, "no execution span in trace"
    return spans[0].attrs["strategy"]


# ------------------------------------------------------------------ digests


class TestJoinDigests:
    P = EX.knows

    def _store(self, objects) -> TripleStore:
        store = TripleStore()
        store.add_all([Triple(EX[f"s{i}"], self.P, obj) for i, obj in enumerate(objects)])
        return store

    def test_digest_contents(self):
        objects = [EX.a, EX.b, Literal("c")]
        index = JoinDigestIndex(self._store(objects))
        assert index.digest(self.P, OBJECT) == frozenset(
            stable_term_hash(obj) for obj in objects
        )
        assert index.digest(self.P, SUBJECT) == frozenset(
            stable_term_hash(EX[f"s{i}"]) for i in range(len(objects))
        )

    def test_cache_hit_skips_rebuild(self):
        index = JoinDigestIndex(self._store([EX.a]))
        first = index.digest(self.P, OBJECT)
        assert index.builds == 1
        assert index.digest(self.P, OBJECT) is first
        assert index.builds == 1

    def test_store_mutation_invalidates(self):
        store = self._store([EX.a])
        index = JoinDigestIndex(store)
        index.digest(self.P, OBJECT)
        store.add(Triple(EX.s9, self.P, EX.z))
        digest = index.digest(self.P, OBJECT)
        assert stable_term_hash(EX.z) in digest
        assert index.builds == 2
        assert index.version == store.version

    def test_unknown_position_rejected(self):
        index = JoinDigestIndex(self._store([EX.a]))
        with pytest.raises(ValueError):
            index.digest(self.P, "predicate")


class TestPruneRows:
    def test_prunes_rows_missing_from_digest(self):
        x = Variable("x")
        keep, drop = EX.keep, EX.drop
        result = SelectResult([x, Variable("y")], [(keep, EX.y1), (drop, EX.y2)])
        digests = ((x, frozenset({stable_term_hash(keep)})),)
        kept, pruned = prune_rows(result, digests)
        assert kept == [(keep, EX.y1)]
        assert pruned == 1

    def test_unbound_values_survive(self):
        x = Variable("x")
        result = SelectResult([x], [(None,)])
        kept, pruned = prune_rows(result, ((x, frozenset()),))
        assert kept == [(None,)]
        assert pruned == 0

    def test_variable_absent_from_schema_is_ignored(self):
        result = SelectResult([Variable("y")], [(EX.y1,)])
        kept, pruned = prune_rows(result, ((Variable("x"), frozenset()),))
        assert kept == [(EX.y1,)]
        assert pruned == 0


# ------------------------------------------------ fragment canonicalization


class TestFragmentCanonicalization:
    def _variant(self, index: int):
        return parse_query(
            _UB_PREFIX
            + f"""
SELECT ?y WHERE {{
  ?y a ub:FullProfessor .
  ?y ub:mastersDegreeFrom <{lubm.university_iri(index).value}> .
}}
"""
        )

    def test_constant_variants_share_one_skeleton(self):
        from repro.sparql.plan import split_parameters

        first, second = self._variant(0), self._variant(1)
        assert is_fragment_shape(first) and is_fragment_shape(second)
        canonical_first = canonicalize_query(first)
        canonical_second = canonicalize_query(second)
        assert canonical_first is not None and canonical_second is not None
        # The varying constants land in the stripped VALUES parameters;
        # the plan-cache key — the skeleton — is identical.
        skeleton_first, params_first = split_parameters(canonical_first.query)
        skeleton_second, params_second = split_parameters(canonical_second.query)
        assert serialize_query(skeleton_first) == serialize_query(skeleton_second)
        assert params_first != params_second

    def test_constant_variants_replay_one_compiled_plan(self):
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        endpoint = federation.get("university0")
        hits0, misses0 = endpoint.plan_stats()[:2]
        endpoint._fragment_select(self._variant(0))
        hits1, misses1 = endpoint.plan_stats()[:2]
        assert misses1 == misses0 + 1
        endpoint._fragment_select(self._variant(1))
        hits2, misses2 = endpoint.plan_stats()[:2]
        assert misses2 == misses1, "constant variant recompiled its fragment"
        assert hits2 == hits1 + 1


# ------------------------------------------------------------ spec building


def _chain_federation() -> Federation:
    """Three endpoints for ``?s p1 ?x . ?x p2 ?y``.

    EP1 sources only the p1 fragment, EP2 only the p2 fragment, EP3 both
    — so EP3 alone runs the local-complete branch, and EP1's fragment
    rows are digest-pruned against the *other* endpoints' p2 subjects
    (k=2 self-exclusion).
    """
    ep1 = Endpoint("EP1")
    ep1.add_all(
        [
            Triple(EX.s1, EX.p1, EX.m1),
            Triple(EX.s2, EX.p1, EX.local_only),
        ]
    )
    ep2 = Endpoint("EP2")
    ep2.add_all([Triple(EX.m1, EX.p2, EX.y1)])
    ep3 = Endpoint("EP3")
    ep3.add_all(
        [
            Triple(EX.s3, EX.p1, EX.m1),
            Triple(EX.m1, EX.p2, EX.y3),
        ]
    )
    return Federation([ep1, ep2, ep3])


_CHAIN_QUERY = """
PREFIX ex: <http://ex.org/>
SELECT ?s ?x ?y WHERE { ?s ex:p1 ?x . ?x ex:p2 ?y }
"""


class TestPartialSpecs:
    def _capture_specs(self, monkeypatch, federation, query_text):
        captured = {}
        original = FederationClient.partial

        def spy(self, endpoint_name, spec, at_ms):
            captured[endpoint_name] = spec
            return original(self, endpoint_name, spec, at_ms)

        monkeypatch.setattr(FederationClient, "partial", spy)
        engine = _engine(federation, "partial")
        outcome = engine.execute(query_text)
        assert outcome.ok, outcome.error
        return captured, outcome

    def test_complete_query_only_at_full_coverage_endpoints(self, monkeypatch):
        federation = _chain_federation()
        captured, outcome = self._capture_specs(monkeypatch, federation, _CHAIN_QUERY)
        assert set(captured) == {"EP1", "EP2", "EP3"}
        assert captured["EP1"].complete is None
        assert captured["EP2"].complete is None
        assert captured["EP3"].complete is not None
        # Each endpoint is shipped exactly the fragments it can source.
        assert len(captured["EP1"].fragments) == 1
        assert len(captured["EP2"].fragments) == 1
        assert len(captured["EP3"].fragments) == 2
        assert Counter(outcome.result.rows) == _oracle(federation, _CHAIN_QUERY)

    def test_digests_exclude_evaluating_endpoint_at_k2(self, monkeypatch):
        federation = _chain_federation()
        captured, __ = self._capture_specs(monkeypatch, federation, _CHAIN_QUERY)
        fragment = captured["EP1"].fragments[0]
        digests = dict(fragment.digests)
        assert Variable("x") in digests
        allowed = digests[Variable("x")]
        # m1 binds p2 at EP2/EP3; local_only binds nothing anywhere else,
        # so the digest must prune it before it crosses the wire.
        assert stable_term_hash(EX.m1) in allowed
        assert stable_term_hash(EX.local_only) not in allowed

    def test_one_partial_round_per_endpoint(self):
        federation = _chain_federation()
        engine = _engine(federation, "partial")
        outcome = engine.execute(_CHAIN_QUERY)
        assert outcome.ok
        per_endpoint = [
            stats["by_kind"].get(metrics_module.PARTIAL, 0)
            for stats in outcome.metrics.endpoint_summary().values()
        ]
        assert per_endpoint and all(count == 1 for count in per_endpoint)

    def test_pruned_rows_are_counted(self):
        federation = _chain_federation()
        registry = MetricsRegistry()
        engine = _engine(federation, "partial")
        engine.registry = registry
        engine.execute(_CHAIN_QUERY)
        assert registry.counter_value("partial_pruned_rows_total") >= 1
        assert registry.counter_value("partial_rows_total", section="fragment") >= 1


# ------------------------------------------------------------------- picker


class TestStrategyPicker:
    #: A single-star query: one required subquery, nothing to cross.
    SINGLE_FRAGMENT = _UB_PREFIX + (
        "SELECT ?S ?P ?C WHERE { ?S ub:advisor ?P . ?S ub:takesCourse ?C }"
    )

    def test_single_fragment_stays_on_bound_join(self):
        engine = _engine(build_paper_federation(), "auto")
        assert _executed_strategy(engine, self.SINGLE_FRAGMENT) == "bound-join"

    def test_forced_partial_runs_partial(self):
        engine = _engine(build_paper_federation(), "partial")
        assert _executed_strategy(engine, QA) == "partial"
        assert metrics_module.PARTIAL in engine.execute(QA).metrics.requests_by_kind()

    def test_forced_bound_join_ships_no_partial_requests(self):
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        engine = _engine(federation, "bound-join")
        outcome = engine.execute(lubm.query_q6())
        assert outcome.ok
        assert metrics_module.PARTIAL not in outcome.metrics.requests_by_kind()

    def test_auto_picks_partial_on_crossing_heavy_query(self):
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        engine = _engine(federation, "auto")
        assert _executed_strategy(engine, lubm.query_q6()) == "partial"

    def test_unknown_strategy_rejected(self):
        engine = _engine(build_paper_federation(), "eager")
        with pytest.raises(ValueError, match="unknown execution strategy"):
            engine.execute(QA)

    def test_share_cache_forces_bound_join(self):
        # Partial evaluation ships whole branches: nothing to share.
        engine = _engine(build_paper_federation(), "partial").sharing(SharedSubqueryCache())
        outcome = engine.execute(QA)
        assert outcome.ok
        assert metrics_module.PARTIAL not in outcome.metrics.requests_by_kind()
        decision = outcome.plan.branch_plans[0].strategy
        assert decision.strategy == "bound-join"
        assert "multi-query optimizer" in decision.reason

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plan_scheduler_and_span_agree(self, strategy, monkeypatch):
        # One decision, read three ways: the plan that leaves on the
        # outcome, the scheduler that ran, the trace.
        ran = []
        run = BranchScheduler.run

        def recording_run(scheduler, at_ms):
            ran.append(type(scheduler))
            return run(scheduler, at_ms)

        monkeypatch.setattr(BranchScheduler, "run", recording_run)
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        engine = _engine(federation, strategy)
        engine.tracer = Tracer(enabled=True)
        for query_text in (lubm.query_q2(), lubm.query_q6()):
            ran.clear()
            outcome = engine.execute(query_text)
            assert outcome.ok, outcome.error
            planned = [plan.strategy.strategy for plan in outcome.plan.branch_plans]
            if strategy != "auto":
                assert planned == [strategy] * len(planned)
            assert ran == [SCHEDULERS[name] for name in planned]
            spans = engine.tracer.roots[-1].find("execution")
            assert [span.attrs["strategy"] for span in spans] == planned

    def test_explain_reports_strategy_decision(self):
        engine = _engine(build_paper_federation(), "auto")
        plan_text = engine.explain(QA)
        assert "strategy [auto]:" in plan_text

    def test_strategy_audit_recorded(self):
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        run = profile_query(
            "Lusail",
            federation,
            "Q6",
            lubm.query_q6(),
            lusail_config=LusailConfig(strategy="auto"),
        )
        assert run.outcome.ok
        assert "strategy" in run.report.q_error


# ------------------------------------------------------------ row identity


class TestRowIdentityPaper:
    @pytest.mark.parametrize("query_name", sorted(PAPER_QUERIES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_oracle(self, query_name, strategy):
        federation = build_paper_federation()
        query_text = PAPER_QUERIES[query_name]
        outcome = _engine(federation, strategy).execute(query_text)
        assert outcome.ok, outcome.error
        assert Counter(outcome.result.rows) == _oracle(federation, query_text)


class TestRowIdentityLubm:
    @pytest.fixture(scope="class")
    def federation(self):
        return lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)

    @pytest.mark.parametrize(
        "query_name", sorted(set(lubm.queries()) | set(lubm.crossing_queries()))
    )
    def test_strategies_agree_and_match_oracle(self, federation, query_name):
        query_text = {**lubm.queries(), **lubm.crossing_queries()}[query_name]
        oracle = _oracle(federation, query_text)
        for strategy in STRATEGIES:
            outcome = _engine(federation, strategy).execute(query_text)
            assert outcome.ok, f"{strategy}/{query_name}: {outcome.error}"
            assert Counter(outcome.result.rows) == oracle, f"{strategy}/{query_name}"


class TestCrossingLubmClaims:
    """The partial-evaluation claims on the 3-endpoint geo LUBM federation,
    measured warm (second run per engine: plan caches, charset summaries
    and join digests primed — the steady state the picker optimizes for).
    Deterministic counters and virtual time only."""

    @pytest.fixture(scope="class")
    def warm_runs(self):
        # Seed 7 is the federation the >=2x bar was set on (Q4 2.3x); the
        # ratio is a property of the data, not of every seed.  Q6 once
        # read 209x, but that was SAPE shipping both name subqueries
        # whole; bound-joined over the professors' bindings they ship 18
        # rows, as many as partial evaluation's fragments.
        federation = lubm.build_federation(3, profile=lubm.BENCH_PROFILE, seed=7, geo=True)
        runs: dict[tuple[str, str], dict] = {}
        for strategy in STRATEGIES:
            registry = MetricsRegistry()
            engine = make_engines(
                federation,
                network_config=geo_distributed_config(),
                which=("Lusail",),
                registry=registry,
                lusail_config=LusailConfig(strategy=strategy),
            )["Lusail"]
            for query_name in ("Q4", "Q6"):
                query_text = lubm.crossing_queries()[query_name]
                assert engine.execute(query_text).ok
                mark = registry.counter_value("partial_rows_total", section="fragment")
                warm = engine.execute(query_text)
                assert warm.ok, warm.error
                runs[strategy, query_name] = {
                    "virtual_ms": warm.metrics.virtual_ms,
                    "bound_rows": warm.metrics.rows_shipped(
                        metrics_module.SELECT, metrics_module.BOUND
                    ),
                    "fragment_rows": registry.counter_value(
                        "partial_rows_total", section="fragment"
                    )
                    - mark,
                }
        return runs

    @pytest.mark.parametrize("query_name", ["Q4"])
    def test_partial_ships_at_least_2x_fewer_intermediate_rows(self, warm_runs, query_name):
        bound = warm_runs["bound-join", query_name]["bound_rows"]
        partial = warm_runs["partial", query_name]["fragment_rows"]
        assert 0 < 2 * partial <= bound, (bound, partial)

    def test_bound_join_ships_no_more_than_partial_on_q6(self, warm_runs):
        bound = warm_runs["bound-join", "Q6"]["bound_rows"]
        partial = warm_runs["partial", "Q6"]["fragment_rows"]
        assert 0 < bound <= partial, (bound, partial)

    @pytest.mark.parametrize("query_name", ["Q4", "Q6"])
    def test_auto_within_10_percent_of_better_fixed_strategy(self, warm_runs, query_name):
        best_fixed = min(
            warm_runs[strategy, query_name]["virtual_ms"]
            for strategy in ("bound-join", "partial")
        )
        assert warm_runs["auto", query_name]["virtual_ms"] <= 1.10 * best_fixed


# ------------------------------------------------------------------- faults


class TestPartialUnderFaults:
    def test_transient_faults_recovered(self):
        federation = build_paper_federation()
        expected = _oracle(federation, QA)
        engine = _engine(federation, "partial")
        engine.fault_plan = FaultPlan(
            seed=11,
            endpoints={"EP2": EndpointFaults(error_probability=0.3)},
        )
        engine.resilience = ResiliencePolicy(max_retries=6, seed=11)
        outcome = engine.execute(QA)
        assert outcome.ok
        assert outcome.metrics.retries >= 0
        assert Counter(outcome.result.rows) == expected

    def test_partial_results_mode_drops_dead_endpoint(self):
        federation = build_paper_federation()
        engine = LusailEngine(
            federation,
            config=LusailConfig(strategy="partial", partial_results=True),
        )
        baseline = engine.execute(QA)
        assert baseline.ok and baseline.complete
        engine.fault_plan = FaultPlan(
            endpoints={"EP2": EndpointFaults(outages=((0.0, 1e12),))}
        )
        degraded = engine.execute(QA)
        assert degraded.ok
        assert not degraded.complete
        assert "EP2" in degraded.metrics.dropped_endpoints
        assert set(degraded.result.rows) <= set(baseline.result.rows)


# ---------------------------------------------------------------------- CLI


class TestStrategyCli:
    TINY_ARGS = ["--benchmark", "lubm", "--endpoints", "2", "--profile", "tiny"]

    def test_query_strategy_flag(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            ["query", *self.TINY_ARGS, "--name", "Q4", "--engine", "Lusail",
             "--strategy", "partial"]
        )
        assert code == 0
        assert "status: ok" in capsys.readouterr().out

    def test_profile_breaks_out_requests_by_kind(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            ["profile", *self.TINY_ARGS, "--name", "Q4", "--strategy", "partial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "by kind:" in out
        assert "partial" in out

    def test_explain_analyze_strategy_flag(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            ["explain-analyze", *self.TINY_ARGS, "--name", "Q4",
             "--strategy", "auto"]
        )
        assert code == 0
        assert "strategy" in capsys.readouterr().out


# ----------------------------------------------------------------- property


_PROPERTY_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def federation_and_query(draw):
    fed_seed = draw(st.integers(min_value=0, max_value=10_000))
    query_seed = draw(st.integers(min_value=0, max_value=10_000))
    endpoints = draw(st.integers(min_value=2, max_value=4))
    shape = FederationShape(endpoints=endpoints, entities_per_endpoint=10)
    federation = build_random_federation(fed_seed, shape)
    query = build_random_query(query_seed, endpoints)
    return federation, query


@given(federation_and_query())
@_PROPERTY_SETTINGS
def test_partial_matches_oracle_on_random_federations(case):
    federation, query = case
    outcome = _engine(federation, "partial").execute(query)
    assert outcome.ok, outcome.error
    union = federation.union_store()
    assert Counter(outcome.result.rows) == Counter(
        evaluate_select(union, query).rows
    ), serialize_query(query)


@given(federation_and_query())
@_PROPERTY_SETTINGS
def test_auto_matches_oracle_on_random_federations(case):
    federation, query = case
    outcome = _engine(federation, "auto").execute(query)
    assert outcome.ok, outcome.error
    union = federation.union_store()
    assert Counter(outcome.result.rows) == Counter(
        evaluate_select(union, query).rows
    ), serialize_query(query)
