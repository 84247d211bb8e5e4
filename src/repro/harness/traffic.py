"""Deterministic traffic harness for the serving layer.

Generates a seeded, bursty, Zipf-skewed open-loop arrival stream over a
named query workload (LUBM or QFed), replays it through
:class:`~repro.serve.QueryServer`, and reports throughput, per-tenant
p50/p99 virtual latency, sharing statistics, and lane utilization.  The
whole pipeline is a pure function of ``(federation, workload,
TrafficConfig)``: the same inputs produce a byte-identical report
(:meth:`TrafficReport.to_json`), which ``tests/test_traffic.py`` asserts.

Every run also prices the **one-at-a-time baseline**: each distinct
query's warm serial virtual cost (probe caches warm, no result cache, no
concurrency) summed over the replay.  The reported ``speedup`` is that
serial makespan divided by the concurrent makespan (the tests hold it
at ≥2x).  And unless disabled, each served
result is checked row-for-row against its serial execution, so the
sharing layers cannot silently trade correctness for throughput.

Chaos fault profiles (:mod:`repro.faults`) layer on top: endpoint faults
are injected into the shared lanes and the default chaos resilience
policy (retries + breakers) is enabled for the serving engines.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from repro.core.engine import LusailEngine
from repro.endpoint.cache import EngineCaches
from repro.faults import default_chaos_policy, fault_profile
from repro.net.simulator import NetworkConfig, local_cluster_config
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import QueryRequest, QueryServer, ServeConfig

__all__ = [
    "TrafficConfig",
    "TrafficReport",
    "generate_arrivals",
    "run_traffic",
    "workload_queries",
]


@dataclass(frozen=True)
class TrafficConfig:
    """Parameters of the synthetic arrival stream."""

    requests: int = 10_000
    tenants: int = 4
    seed: int = 0
    #: Zipf exponent over the query mix (rank weight ``1 / rank**s``).
    zipf_s: float = 1.1
    #: Mean interarrival gap during off-burst phases (virtual ms).
    mean_gap_ms: float = 2.0
    #: Square-wave burst alternation period (virtual ms).
    burst_period_ms: float = 400.0
    #: Arrival-rate multiplier during the burst half of each period.
    burst_factor: float = 4.0
    #: A :data:`repro.faults.FAULT_PROFILES` name layered onto the run.
    fault_profile: str = "none"
    #: Check each served result row-for-row against serial execution.
    verify_against_serial: bool = True


def workload_queries(benchmark: str) -> dict[str, str]:
    """The named query mix a benchmark contributes to traffic replays."""
    if benchmark == "lubm":
        from repro.datasets import queries_lubm

        return queries_lubm.queries()
    if benchmark == "qfed":
        from repro.datasets import qfed

        queries = dict(qfed.queries())
        queries["Drug"] = qfed.drug_query()
        return queries
    raise ValueError(f"no traffic workload for benchmark {benchmark!r}")


def generate_arrivals(
    queries: dict[str, str], config: TrafficConfig
) -> list[QueryRequest]:
    """The seeded open-loop arrival stream.

    Query names are drawn Zipf-skewed by rank (sorted name order =
    rank order); interarrival gaps are exponential with the rate
    modulated by a square wave (``burst_factor`` during the first half
    of every ``burst_period_ms``); tenants are assigned uniformly.  All
    randomness comes from one ``random.Random`` seeded from
    ``config.seed``, so the stream is reproducible bit-for-bit.
    """
    names = sorted(queries)
    if not names:
        raise ValueError("traffic workload has no queries")
    rng = random.Random(f"traffic-{config.seed}")
    weights = list(accumulate(1.0 / (rank**config.zipf_s) for rank in range(1, len(names) + 1)))
    total_weight = weights[-1]
    arrivals: list[QueryRequest] = []
    now = 0.0
    for __ in range(config.requests):
        in_burst = (now // config.burst_period_ms) % 2.0 == 0.0
        rate = config.burst_factor if in_burst else 1.0
        now += rng.expovariate(rate / config.mean_gap_ms)
        name = names[bisect_left(weights, rng.random() * total_weight)]
        tenant = f"tenant{rng.randrange(config.tenants)}"
        arrivals.append(
            QueryRequest(at_ms=now, tenant=tenant, name=name, text=queries[name])
        )
    return arrivals


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def _round(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _round(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(item) for item in value]
    return value


class TrafficReport:
    """A replay's aggregate report with a canonical JSON form."""

    def __init__(self, data: dict):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, floats rounded to 6
        decimals — byte-identical for byte-identical replays."""
        return json.dumps(_round(self.data), sort_keys=True, separators=(",", ": "))

    def format(self) -> str:
        data = self.data
        totals = data["totals"]
        latency = data["latency_ms"]
        lines = [
            (
                f"served {data['workload']['requests']} requests "
                f"({data['workload']['queries']} distinct queries, "
                f"{data['workload']['tenants']} tenants, "
                f"zipf s={data['workload']['zipf_s']}, "
                f"faults={data['workload']['fault_profile']})"
            ),
            (
                f"completed {totals['completed']} ({totals['failed']} failed) "
                f"in {totals['makespan_ms']:.1f} virtual ms "
                f"-> {totals['throughput_per_s']:.1f} queries/s"
            ),
            (
                f"one-at-a-time baseline {totals['baseline_serial_ms']:.1f} ms "
                f"-> speedup {totals['speedup']:.2f}x"
            ),
            (
                f"latency (virtual ms): p50 {latency['p50']:.2f}, "
                f"p99 {latency['p99']:.2f}, mean {latency['mean']:.2f}, "
                f"max {latency['max']:.2f}"
            ),
            (
                f"paths: {data['paths']['cache']} cache, "
                f"{data['paths']['attach']} attached, "
                f"{data['paths']['executed']} executed; "
                f"mqo subquery hits {data['mqo']['subquery_hits']}"
            ),
        ]
        if totals.get("results_match_serial") is not None:
            lines.append(
                "results identical to serial execution: "
                + ("yes" if totals["results_match_serial"] else "NO")
            )
        for tenant in sorted(data["tenants"]):
            stats = data["tenants"][tenant]
            lines.append(
                f"  {tenant}: {stats['requests']} requests, "
                f"p50 {stats['p50_ms']:.2f} ms, p99 {stats['p99_ms']:.2f} ms"
            )
        lanes = ", ".join(
            f"{endpoint} {fraction:.0%}"
            for endpoint, fraction in sorted(data["lane_utilization"].items())
        )
        if lanes:
            lines.append(f"lane utilization: {lanes}")
        return "\n".join(lines)


def _serial_baseline(
    federation, queries: dict[str, str], network_config
) -> tuple[dict[str, float], dict[str, list]]:
    """Warm per-query serial cost and result, on a private engine.

    Each distinct query runs twice — the first execution warms the probe
    and plan caches, the second is the steady-state cost a one-at-a-time
    mediator would pay per arrival.  Using warm costs makes the baseline
    conservative (it favors the serial mediator).
    """
    engine = LusailEngine(
        federation,
        network_config=network_config,
        caches=EngineCaches(),
        timeout_ms=None,
    )
    engine.tracer = Tracer(enabled=False)
    engine.registry = MetricsRegistry()
    costs: dict[str, float] = {}
    results: dict[str, list] = {}
    for name in sorted(queries):
        engine.execute(queries[name], raise_on_failure=True)
        outcome = engine.execute(queries[name], raise_on_failure=True)
        costs[name] = outcome.metrics.virtual_ms
        results[name] = outcome.result.rows
    return costs, results


def _verify_serial(records, serial_rows: dict[str, list]) -> bool:
    """Row-for-row identity of served results vs. serial execution.

    Served rows are shared list objects (cache entries), so each
    distinct ``(name, rows-object)`` pair is compared once as a bag.
    """
    checked: dict[tuple[str, int], bool] = {}
    for record in records:
        if not record.ok or record.result is None:
            continue
        key = (record.name, id(record.result.rows))
        verdict = checked.get(key)
        if verdict is None:
            expected = serial_rows.get(record.name)
            verdict = expected is not None and sorted(
                map(repr, record.result.rows)
            ) == sorted(map(repr, expected))
            checked[key] = verdict
        if not verdict:
            return False
    return True


def run_traffic(
    federation,
    queries: dict[str, str],
    config: TrafficConfig | None = None,
    serve_config: ServeConfig | None = None,
    network_config: NetworkConfig | None = None,
    registry: MetricsRegistry | None = None,
) -> tuple[TrafficReport, list, QueryServer]:
    """Replay a generated arrival stream; returns (report, records, server)."""
    config = config or TrafficConfig()
    serve_config = serve_config or ServeConfig()
    network_config = network_config or local_cluster_config()
    registry = registry if registry is not None else MetricsRegistry()
    arrivals = generate_arrivals(queries, config)

    serial_costs, serial_rows = _serial_baseline(federation, queries, network_config)
    baseline_ms = sum(serial_costs[request.name] for request in arrivals)

    fault_plan = None
    resilience = None
    if config.fault_profile != "none":
        fault_plan = fault_profile(config.fault_profile, seed=config.seed)
        resilience = default_chaos_policy()
    server = QueryServer(
        federation,
        config=serve_config,
        network_config=network_config,
        registry=registry,
        fault_plan=fault_plan,
        resilience=resilience,
    )
    records = server.run(arrivals)

    completed = [record for record in records if record.ok]
    makespan = max((record.finish_ms for record in records), default=0.0)
    latencies = sorted(record.latency_ms for record in completed)
    paths = {"cache": 0, "attach": 0, "executed": 0}
    for record in records:
        paths[record.path] += 1
    per_tenant: dict[str, dict] = {}
    for tenant in sorted({record.tenant for record in records}):
        tenant_latencies = sorted(
            record.latency_ms for record in completed if record.tenant == tenant
        )
        per_tenant[tenant] = {
            "requests": sum(1 for record in records if record.tenant == tenant),
            "completed": len(tenant_latencies),
            "p50_ms": _percentile(tenant_latencies, 0.50),
            "p99_ms": _percentile(tenant_latencies, 0.99),
        }
    verified = None
    if config.verify_against_serial:
        verified = _verify_serial(records, serial_rows)

    cache = server.result_cache
    report = TrafficReport(
        {
            "workload": {
                "requests": config.requests,
                "tenants": config.tenants,
                "seed": config.seed,
                "zipf_s": config.zipf_s,
                "mean_gap_ms": config.mean_gap_ms,
                "burst_period_ms": config.burst_period_ms,
                "burst_factor": config.burst_factor,
                "fault_profile": config.fault_profile,
                "queries": len(queries),
            },
            "serving": {
                "max_inflight": serve_config.max_inflight,
                "per_tenant_inflight": serve_config.per_tenant_inflight,
                "result_cache": serve_config.result_cache,
                "attach_identical": serve_config.attach_identical,
                "share_subqueries": serve_config.share_subqueries,
            },
            "totals": {
                "completed": len(completed),
                "failed": len(records) - len(completed),
                "makespan_ms": makespan,
                "throughput_per_s": (
                    len(completed) / (makespan / 1000.0) if makespan > 0 else 0.0
                ),
                "baseline_serial_ms": baseline_ms,
                "speedup": baseline_ms / makespan if makespan > 0 else 0.0,
                "results_match_serial": verified,
            },
            "paths": paths,
            "latency_ms": {
                "p50": _percentile(latencies, 0.50),
                "p99": _percentile(latencies, 0.99),
                "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
                "max": latencies[-1] if latencies else 0.0,
            },
            "tenants": per_tenant,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "invalidations": cache.invalidations,
                "entries": len(cache),
            },
            "mqo": {
                "subquery_hits": server.mqo_subquery_hits,
                "query_attached": paths["attach"],
            },
            "lane_utilization": server.lanes.utilization(total_ms=makespan),
        }
    )
    return report, records, server
