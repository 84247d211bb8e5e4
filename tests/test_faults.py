"""Tests for repro.faults: injection, resilience, degradation, chaos."""

import pytest

from repro.core.engine import LusailConfig, LusailEngine
from repro.endpoint import Endpoint, EngineCaches, Federation, FederationClient
from repro.exceptions import (
    CircuitOpenError,
    InjectedFaultError,
    RequestTimeoutError,
)
from repro.faults import (
    ALL_ENDPOINTS,
    CLOSED,
    FAULT_PROFILES,
    HALF_OPEN,
    NO_FAULT,
    OPEN,
    CircuitBreaker,
    EndpointFaults,
    FaultPlan,
    ResiliencePolicy,
    default_chaos_policy,
    fault_profile,
)
from repro.harness import run_chaos
from repro.net.simulator import local_cluster_config
from repro.obs import MetricsRegistry, Tracer, write_trace_jsonl
from repro.rdf import IRI, Literal, Triple, TriplePattern, Variable
from repro.sparql.ast import bgp_query
from tests.conftest import QA, build_paper_federation

EX = "http://ex.org/"


def iri(name):
    return IRI(EX + name)


@pytest.fixture
def federation():
    ep1 = Endpoint("ep1")
    ep1.add_all(
        [
            Triple(iri("a"), iri("p"), Literal("x")),
            Triple(iri("b"), iri("p"), Literal("y")),
        ]
    )
    ep2 = Endpoint("ep2", triples=[Triple(iri("c"), iri("q"), iri("a"))])
    return Federation([ep1, ep2])


def make_client(federation, plan=None, policy=None, registry=None, timeout=None):
    return FederationClient(
        federation,
        local_cluster_config(),
        EngineCaches(),
        timeout_ms=timeout,
        registry=registry if registry is not None else MetricsRegistry(),
        engine="test",
        fault_plan=plan,
        resilience=policy,
    )


PATTERN = TriplePattern(Variable("s"), iri("p"), Variable("o"))
QUERY = bgp_query([PATTERN])


class TestFaultPlan:
    def test_empty_plan_injects_nothing(self):
        injector = FaultPlan().injector()
        for index in range(20):
            assert injector.decide("ep1", "select", float(index)) is NO_FAULT

    def test_wildcard_fallback(self):
        spec = EndpointFaults(latency_multiplier=2.0)
        plan = FaultPlan(endpoints={ALL_ENDPOINTS: spec, "ep1": EndpointFaults()})
        assert plan.for_endpoint("ep1") == EndpointFaults()
        assert plan.for_endpoint("anything-else") == spec

    def test_outage_window_half_open(self):
        spec = EndpointFaults(outages=((10.0, 60.0),))
        assert not spec.down_at(9.9)
        assert spec.down_at(10.0)
        assert spec.down_at(59.9)
        assert not spec.down_at(60.0)

    def test_flapping_period(self):
        spec = EndpointFaults(flap_up_ms=40.0, flap_down_ms=15.0)
        assert not spec.down_at(39.0)
        assert spec.down_at(45.0)
        assert spec.down_at(54.9)
        assert not spec.down_at(55.0)  # next period starts up

    def test_decisions_deterministic_per_seed(self):
        plan = FaultPlan(
            seed=1, endpoints={ALL_ENDPOINTS: EndpointFaults(error_probability=0.5)}
        )
        first = [plan.injector().decide("ep1", "select", 0.0) for __ in range(1)]
        runs = []
        for __ in range(2):
            injector = plan.injector()
            runs.append([injector.decide("ep1", "select", 0.0) for __ in range(100)])
        assert runs[0] == runs[1]
        assert first[0] == runs[0][0]

    def test_different_seeds_differ(self):
        def sequence(seed):
            plan = FaultPlan(
                seed=seed,
                endpoints={ALL_ENDPOINTS: EndpointFaults(error_probability=0.5)},
            )
            injector = plan.injector()
            return [injector.decide("ep1", "select", 0.0).fail for __ in range(100)]

        assert sequence(1) != sequence(2)

    def test_named_profiles_construct(self):
        for name in FAULT_PROFILES:
            plan = fault_profile(name, seed=3)
            assert plan.seed == 3

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            fault_profile("nope")


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker("ep1", failure_threshold=3, recovery_ms=50.0)
        assert breaker.record_failure(1.0) is None
        assert breaker.record_failure(2.0) is None
        assert breaker.record_failure(3.0) == "closed->open"
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_request(10.0)

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker("ep1", failure_threshold=1, recovery_ms=50.0)
        breaker.record_failure(0.0)
        assert breaker.before_request(60.0) == "open->half_open"
        assert breaker.state == HALF_OPEN
        assert breaker.record_success(61.0) == "half_open->closed"
        assert breaker.state == CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker("ep1", failure_threshold=1, recovery_ms=50.0)
        breaker.record_failure(0.0)
        breaker.before_request(60.0)
        assert breaker.record_failure(61.0) == "half_open->open"
        assert breaker.state == OPEN
        assert breaker.open_until_ms == pytest.approx(111.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("ep1", failure_threshold=2, recovery_ms=50.0)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED


class TestResilientClient:
    def test_retry_recovers_from_outage(self, federation):
        plan = FaultPlan(endpoints={"ep1": EndpointFaults(outages=((0.0, 30.0),))})
        client = make_client(federation, plan=plan, policy=default_chaos_policy())
        result, end = client.select("ep1", QUERY, 0.0)
        assert len(result) == 2
        assert client.metrics.retries >= 1
        assert client.metrics.failed_request_count() >= 1
        assert end > 30.0  # the successful attempt starts after the window

    def test_retry_exhaustion_raises_with_context(self, federation):
        plan = FaultPlan(endpoints={"ep1": EndpointFaults(error_probability=1.0)})
        policy = ResiliencePolicy(max_retries=2)
        client = make_client(federation, plan=plan, policy=policy)
        with pytest.raises(InjectedFaultError) as excinfo:
            client.select("ep1", QUERY, 0.0)
        assert excinfo.value.endpoint == "ep1"
        assert excinfo.value.at_ms is not None and excinfo.value.at_ms > 0.0
        assert client.metrics.retries == 2
        assert client.metrics.failed_request_count() == 3

    def test_no_policy_fails_on_first_fault(self, federation):
        plan = FaultPlan(endpoints={"ep1": EndpointFaults(error_probability=1.0)})
        client = make_client(federation, plan=plan)
        with pytest.raises(InjectedFaultError):
            client.select("ep1", QUERY, 0.0)
        assert client.metrics.retries == 0

    def test_request_timeout_frees_mediator_keeps_lane_busy(self, federation):
        policy = ResiliencePolicy(request_timeout_ms=0.1)
        client = make_client(federation, policy=policy)
        with pytest.raises(RequestTimeoutError) as excinfo:
            client.select("ep1", QUERY, 0.0)
        assert excinfo.value.at_ms == pytest.approx(0.1)
        record = client.metrics.records[-1]
        assert record.status == "timeout"
        assert record.end_ms == pytest.approx(0.1)
        # The endpoint keeps processing until the natural completion.
        assert client.network.lane_free_at("ep1") > 0.1

    def test_breaker_opens_and_fails_fast(self, federation):
        plan = FaultPlan(endpoints={"ep1": EndpointFaults(error_probability=1.0)})
        policy = ResiliencePolicy(
            max_retries=10,
            breaker_enabled=True,
            breaker_failure_threshold=3,
            breaker_recovery_ms=10_000.0,
        )
        registry = MetricsRegistry()
        client = make_client(federation, plan=plan, policy=policy, registry=registry)
        with pytest.raises(CircuitOpenError):
            client.select("ep1", QUERY, 0.0)
        breaker = client.breakers["ep1"]
        assert breaker.state == OPEN
        assert client.metrics.failed_request_count() == 3
        assert registry.counter_value(
            "breaker_transitions_total", transition="closed->open"
        ) == 1

    def test_breaker_half_open_recovery(self, federation):
        plan = FaultPlan(endpoints={"ep1": EndpointFaults(outages=((0.0, 10.0),))})
        policy = ResiliencePolicy(
            max_retries=5,
            breaker_enabled=True,
            breaker_failure_threshold=1,
            breaker_recovery_ms=10.0,
        )
        client = make_client(federation, plan=plan, policy=policy)
        result, __ = client.select("ep1", QUERY, 0.0)
        assert len(result) == 2
        labels = [label for __, label in client.breakers["ep1"].transitions]
        assert labels == ["closed->open", "open->half_open", "half_open->closed"]


class TestDefaultOffIdentity:
    def test_inert_plan_and_policy_change_nothing(self, paper_federation):
        baseline = LusailEngine(paper_federation).execute(QA)
        treated_engine = LusailEngine(paper_federation)
        treated_engine.fault_plan = fault_profile("none")
        treated_engine.resilience = ResiliencePolicy()
        treated = treated_engine.execute(QA)
        assert treated.status == baseline.status == "ok"
        assert treated.result.rows == baseline.result.rows
        assert treated.metrics.virtual_ms == baseline.metrics.virtual_ms
        assert treated.metrics.request_count() == baseline.metrics.request_count()
        assert treated.metrics.retries == 0 and treated.complete


class TestPartialResults:
    def test_dead_endpoint_dropped_with_completeness_metadata(self, paper_federation):
        engine = LusailEngine(paper_federation, config=LusailConfig(partial_results=True))
        baseline = engine.execute(QA)
        assert baseline.ok and baseline.complete
        # Probe caches are warm; now EP2 goes down for good.
        engine.fault_plan = FaultPlan(
            endpoints={"EP2": EndpointFaults(outages=((0.0, 1e12),))}
        )
        degraded = engine.execute(QA)
        assert degraded.ok
        assert not degraded.complete
        assert "EP2" in degraded.metrics.dropped_endpoints
        assert len(degraded.result) < len(baseline.result)
        assert set(degraded.result.rows) <= set(baseline.result.rows)

    def test_fail_fast_without_partial_mode(self, paper_federation):
        engine = LusailEngine(paper_federation)
        engine.execute(QA)  # warm probe caches
        engine.fault_plan = FaultPlan(
            endpoints={"EP2": EndpointFaults(outages=((0.0, 1e12),))}
        )
        outcome = engine.execute(QA)
        assert outcome.status == "error"


class TestChaosDeterminism:
    def _run(self, tmp_path, filename, seed, transient=False):
        federation = build_paper_federation()
        tracer = Tracer(enabled=True)
        engine = LusailEngine(federation)
        engine.tracer = tracer
        engine.registry = MetricsRegistry()
        if transient:
            engine.fault_plan = fault_profile("transient", seed=seed)
            engine.resilience = default_chaos_policy(seed)
        else:
            engine.fault_plan = FaultPlan(
                seed=seed, endpoints={ALL_ENDPOINTS: EndpointFaults(error_probability=0.3)}
            )
            engine.resilience = ResiliencePolicy(max_retries=6, seed=seed)
        outcome = engine.execute(QA)
        assert outcome.ok and outcome.complete
        # The retry layer recovered: faults surfaced, and every failed
        # request was retried exactly once.
        assert engine.registry.counter_value("faults_injected_total") > 0
        assert outcome.metrics.failed_request_count() == outcome.metrics.retries > 0
        path = tmp_path / filename
        write_trace_jsonl(tracer.roots, str(path))
        return path.read_bytes(), outcome.metrics

    def test_same_seed_byte_identical_traces(self, tmp_path):
        for seed, transient in ((1, False), (0, True)):
            first, first_metrics = self._run(tmp_path, "run1.jsonl", seed, transient)
            second, second_metrics = self._run(tmp_path, "run2.jsonl", seed, transient)
            assert first == second
            # Same (seed, plan): same virtual time, same retries.
            assert first_metrics.virtual_ms == second_metrics.virtual_ms
            assert first_metrics.retries == second_metrics.retries

    def test_different_seeds_differ(self, tmp_path):
        first, __ = self._run(tmp_path, "seed1.jsonl", seed=1)
        second, __ = self._run(tmp_path, "seed2.jsonl", seed=2)
        assert first != second


class TestChaosHarness:
    def test_matrix_summary(self, paper_federation):
        report = run_chaos(
            paper_federation,
            {"QA": QA},
            profiles=("none", "transient"),
            which=("Lusail",),
            resilience=default_chaos_policy(),
        )
        assert len(report.runs) == 2
        assert len(report.summary) == 2
        by_profile = {entry["profile"]: entry for entry in report.summary}
        assert by_profile["none"]["success_rate"] == 1.0
        assert by_profile["none"]["retries"] == 0
        assert by_profile["none"]["virtual_overhead_x"] == 1.0
        assert by_profile["transient"]["success_rate"] == 1.0
        payload = report.to_json()
        assert {"runs", "summary"} <= set(payload)
        assert report.format_summary()

    def test_outage_without_resilience_fails(self, paper_federation):
        report = run_chaos(
            paper_federation,
            {"QA": QA},
            profiles=("outage",),
            which=("Lusail",),
            resilience=None,
        )
        assert report.summary[0]["success_rate"] == 0.0
