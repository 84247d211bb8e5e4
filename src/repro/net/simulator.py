"""Deterministic virtual-time network simulator.

The paper's evaluation is dominated by two quantities: the **number of
remote (HTTP) requests** and the **volume of intermediate results**
shipped between endpoints and the mediator (Fig 3).  Instead of real
sockets, every remote call goes through this simulator, which:

* charges each request a round-trip latency from the region matrix plus
  per-row endpoint-evaluation and transfer costs, and
* serializes requests per endpoint on a virtual "lane" (one worker
  thread per endpoint — the paper's Elastic Request Handler ideal case)
  while letting requests to *different* endpoints overlap freely.

Engines carry a clock cursor (``now``) and advance it with the values
returned from :meth:`VirtualNetwork.request`.  Sequential code (bound
joins) chains completion times; parallel fan-out takes the max.  The
result is a deterministic response-time model that preserves the paper's
serial-vs-parallel structure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import InjectedFaultError, RequestTimeoutError
from repro.net import regions as regions_module
from repro.net.metrics import QueryMetrics, RequestRecord


@dataclass(frozen=True)
class NetworkConfig:
    """Cost parameters for the virtual network.

    ``row_transfer_ms`` models serialization + transfer per result row;
    ``eval_base_ms`` and ``eval_row_ms`` model the endpoint's query
    processing; ``request_overhead_ms`` models HTTP/connection overhead
    on top of the raw RTT.
    """

    mediator_region: str = regions_module.LOCAL
    request_overhead_ms: float = 0.3
    row_transfer_ms: float = 0.01
    eval_base_ms: float = 0.5
    eval_row_ms: float = 0.005
    #: Transfer time per payload byte (the inverse of bandwidth).
    #: 1 Gb Ethernet moves ~125 KB per millisecond.
    byte_transfer_ms: float = 1.0 / 125_000.0
    #: Fallback per-row payload estimate when the caller does not
    #: measure the actual serialized size.
    response_bytes_per_row: int = 120
    #: Concurrent outstanding requests the mediator can sustain (the
    #: Elastic Request Handler's worker pool).  With more endpoints than
    #: slots, probe fan-out serializes in waves — the mild growth the
    #: paper's Fig 10(b,c) shows for source selection at 256 endpoints.
    mediator_slots: int = 16

    def rtt(self, endpoint_region: str) -> float:
        return regions_module.rtt_ms(self.mediator_region, endpoint_region)


def local_cluster_config() -> NetworkConfig:
    """The paper's in-house cluster: sub-millisecond LAN, 1 Gb Ethernet."""
    return NetworkConfig(mediator_region=regions_module.LOCAL)


def geo_distributed_config(mediator_region: str = regions_module.CENTRAL_US) -> NetworkConfig:
    """The paper's Azure federation: WAN latencies, ~10 MB/s throughput."""
    return NetworkConfig(
        mediator_region=mediator_region,
        request_overhead_ms=1.0,
        row_transfer_ms=0.05,
        eval_base_ms=0.5,
        eval_row_ms=0.005,
        byte_transfer_ms=1.0 / 10_000.0,
    )


class LaneBook:
    """Shared booking state: per-endpoint lanes + mediator worker slots.

    One :class:`VirtualNetwork` per query owns a private book, so lane
    congestion never leaks across sequential executions.  The serving
    layer (:mod:`repro.serve`) instead hands *one* book to every
    concurrent query's network, which is exactly what makes N in-flight
    queries contend for the same endpoint lanes in virtual time.
    """

    __slots__ = ("lane_free_ms", "slot_free_ms")

    def __init__(self, mediator_slots: int = 16):
        self.lane_free_ms: dict[str, float] = {}
        self.slot_free_ms: list[float] = [0.0] * max(1, mediator_slots)


class VirtualNetwork:
    """Per-query network state: endpoint lanes plus metrics.

    A fresh instance is created for every federated query execution so
    that lane congestion does not leak across queries.  When given a
    :class:`~repro.obs.registry.MetricsRegistry`, every request also
    feeds the shared per-endpoint counters (labeled by engine and
    request kind) — purely additive accounting that never affects
    virtual time.

    An optional :class:`~repro.faults.plan.FaultInjector` makes the
    network imperfect: injected latency stretches request durations,
    and injected failures (transient errors, outages) surface as
    :class:`~repro.exceptions.InjectedFaultError` *after* the failed
    attempt's cost has been charged to the endpoint's lane.  Without an
    injector the request path is byte-for-byte the fault-free model.
    """

    def __init__(
        self,
        config: NetworkConfig,
        metrics: QueryMetrics,
        registry=None,
        engine: str = "",
        injector=None,
        lanes: LaneBook | None = None,
    ):
        self.config = config
        self.metrics = metrics
        self.registry = registry
        self.engine = engine
        self.injector = injector
        #: Booking state; pass a shared book to make several networks
        #: (= several concurrent queries) contend for the same lanes.
        self.lanes = lanes if lanes is not None else LaneBook(config.mediator_slots)

    def request(
        self,
        endpoint_name: str,
        endpoint_region: str,
        kind: str,
        ready_at_ms: float,
        result_rows: int,
        request_bytes: int,
        response_bytes: int | None = None,
        cached: bool = False,
        timeout_ms: float | None = None,
    ) -> float:
        """Schedule one remote request; returns its completion time (ms).

        ``ready_at_ms`` is when the mediator issues the request.  The
        request starts once the endpoint's lane is free (thread-per-
        endpoint serialization) and costs RTT + evaluation + transfer.
        Cache hits complete instantly and are recorded but not charged.

        ``timeout_ms`` bounds a single request's duration: past it the
        mediator abandons the request (``RequestTimeoutError``), freeing
        its worker slot while the endpoint's lane stays busy until the
        natural completion.  An attached fault injector may stretch the
        duration or fail the request (``InjectedFaultError``); failed
        attempts are recorded with ``rows=0`` and their virtual cost
        charged.
        """
        if cached:
            self.metrics.record(
                RequestRecord(
                    kind=kind,
                    endpoint=endpoint_name,
                    start_ms=ready_at_ms,
                    end_ms=ready_at_ms,
                    rows=0,
                    request_bytes=0,
                    response_bytes=0,
                    cached=True,
                )
            )
            if self.registry is not None:
                self.registry.inc(
                    "requests_cached_total",
                    engine=self.engine,
                    endpoint=endpoint_name,
                    kind=kind,
                )
            return ready_at_ms

        config = self.config
        if response_bytes is None:
            response_bytes = result_rows * config.response_bytes_per_row
        # A request needs a mediator worker slot and the endpoint's lane.
        lanes = self.lanes
        slot_free = lanes.slot_free_ms
        slot_index = min(range(len(slot_free)), key=slot_free.__getitem__)
        start = max(
            ready_at_ms,
            lanes.lane_free_ms.get(endpoint_name, 0.0),
            slot_free[slot_index],
        )
        # Committed baselines compare virtual times to the float ulp:
        # re-associating this sum would change them.
        duration = (
            config.rtt(endpoint_region)
            + config.request_overhead_ms
            + config.eval_base_ms
            + result_rows * (config.eval_row_ms + config.row_transfer_ms)
            + (request_bytes + response_bytes) * config.byte_transfer_ms
        )

        fault = None
        if self.injector is not None:
            decision = self.injector.decide(endpoint_name, kind, start)
            if decision.fail == "outage":
                # Connection refused: one round trip, no evaluation.
                fault = decision.fail
                duration = config.rtt(endpoint_region) + config.request_overhead_ms
            else:
                fault = decision.fail
                duration = duration * decision.latency_multiplier + decision.latency_extra_ms
            if decision.events and self.registry is not None:
                for event in decision.events:
                    self.registry.inc(
                        "faults_injected_total",
                        engine=self.engine,
                        endpoint=endpoint_name,
                        fault=event,
                    )

        status = "ok" if fault is None else "error"
        end = start + duration
        lane_end = end
        if timeout_ms is not None and duration > timeout_ms:
            # The mediator gives up first: its worker slot frees at the
            # timeout, but the endpoint keeps processing the request.
            status = "timeout"
            end = start + timeout_ms
        failed = status != "ok"
        lanes.lane_free_ms[endpoint_name] = lane_end
        lanes.slot_free_ms[slot_index] = end
        self.metrics.record(
            RequestRecord(
                kind=kind,
                endpoint=endpoint_name,
                start_ms=start,
                end_ms=end,
                rows=0 if failed else result_rows,
                request_bytes=request_bytes,
                response_bytes=0 if failed else response_bytes,
                status=status,
            )
        )
        if self.registry is not None:
            registry = self.registry
            labels = {"engine": self.engine, "endpoint": endpoint_name, "kind": kind}
            registry.inc("requests_total", **labels)
            if failed:
                registry.inc("requests_failed_total", status=status, **labels)
            else:
                registry.inc("rows_shipped_total", result_rows, **labels)
                registry.inc("bytes_shipped_total", request_bytes + response_bytes, **labels)
            registry.observe(
                "request_virtual_ms", end - start, endpoint=endpoint_name, kind=kind
            )
            registry.inc(
                "lane_busy_virtual_ms_total",
                lane_end - start,
                engine=self.engine,
                endpoint=endpoint_name,
            )
        if status == "timeout":
            raise RequestTimeoutError(
                f"request to endpoint {endpoint_name} exceeded "
                f"{timeout_ms:.1f}ms at t={end:.1f}ms",
                endpoint=endpoint_name,
                at_ms=end,
            )
        if failed:
            raise InjectedFaultError(
                f"injected {fault} fault at endpoint {endpoint_name} (t={end:.1f}ms)",
                endpoint=endpoint_name,
                at_ms=end,
                fault=fault,
            )
        return end

    def lane_free_at(self, endpoint_name: str) -> float:
        """When the endpoint's lane next becomes idle."""
        return self.lanes.lane_free_ms.get(endpoint_name, 0.0)


@dataclass
class MediatorCostModel:
    """Virtual-time costs for work done at the mediator itself.

    ``row_ms`` prices one row of mediator work: a scan row, or one unit
    of the paper's JoinCost (Sec V-B), which the join kernels measure
    with each side's rows divided by the threads holding it (the
    Elastic Request Handler's partitions).
    """

    row_ms: float = 0.0005

    def scan_ms(self, rows: int) -> float:
        return rows * self.row_ms
