"""Lane-sharing client machinery for concurrent query execution.

:class:`ServingNetwork` is a :class:`~repro.net.simulator.VirtualNetwork`
whose booking state is the *server's* shared :class:`~repro.net.LaneBook`
and whose request path is gated by the server's cooperative scheduler:
before booking lane time, the issuing worker parks and waits for its
turn, which the scheduler grants strictly in global virtual-time order.
That single rule is what makes N concurrent queries deterministic — the
interleaving of lane reservations depends only on virtual timestamps
(ties broken by admission order), never on OS thread scheduling.

All timestamps here live on the **global** serving clock: an engine
starts its private clock at 0, so every ``ready_at_ms`` is clamped to
the query's admission time before booking.

:class:`ServingClient` additionally shares *subquery* SELECT results
across concurrently admitted queries (in-flight cross-query MQO): the
first query to issue a canonically-equivalent subquery against an
endpoint pays for the request; later queries attach to the shipped
response — the encoded result itself, seen through their own projection
header, nothing copied or decoded — and only wait until the producer's
response has arrived.
"""

from __future__ import annotations

from repro.endpoint.client import FederationClient
from repro.net import metrics as metrics_module
from repro.net.metrics import RequestRecord
from repro.net.simulator import VirtualNetwork
from repro.sparql.ast import SelectQuery
from repro.sparql.result import SelectResult

__all__ = ["ServingClient", "ServingNetwork"]


class ServingNetwork(VirtualNetwork):
    """A VirtualNetwork that books on shared lanes under a scheduler gate."""

    def __init__(self, *args, server=None, ticket=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.server = server
        self.ticket = ticket

    def request(self, endpoint_name, endpoint_region, kind, ready_at_ms, *args, **kwargs):
        # Engine-local time -> global serving time.  The engine's clock
        # starts at 0; nothing it does can predate its own admission.
        ready = max(ready_at_ms, self.ticket.admitted_ms)
        if not kwargs.get("cached"):
            if self.ticket.turn_held:
                # The caller (subquery sharing) already acquired the
                # turn for this booking; consume it instead of parking.
                self.ticket.turn_held = False
            else:
                self.server.gate(self.ticket, ready)
        return super().request(endpoint_name, endpoint_region, kind, ready, *args, **kwargs)


class ServingClient(FederationClient):
    """FederationClient whose network shares lanes and subquery results."""

    def __init__(self, server, ticket, **kwargs):
        super().__init__(**kwargs)
        self.server = server
        self.ticket = ticket
        fault_plan = kwargs.get("fault_plan")
        self.network = ServingNetwork(
            kwargs["config"],
            self.metrics,
            registry=self.registry,
            engine=self.engine,
            injector=fault_plan.injector() if fault_plan is not None else None,
            lanes=server.lanes,
            server=server,
            ticket=ticket,
        )

    def select(
        self,
        endpoint_name: str,
        query: SelectQuery,
        at_ms: float,
        kind: str = metrics_module.SELECT,
    ) -> tuple[SelectResult, float]:
        server = self.server
        if not server.config.share_subqueries:
            return super().select(endpoint_name, query, at_ms, kind=kind)
        ticket = self.ticket
        endpoint = self.federation.get(endpoint_name)
        key = server.subquery_key(query)
        ready = max(at_ms, ticket.admitted_ms)
        # Acquire the turn BEFORE consulting the share registry: every
        # request with an earlier global ready time has then already
        # booked (and registered), so an in-flight equivalent subquery
        # is never missed by run-to-block scheduling.
        server.gate(ticket, ready)
        shared = server.shared_select(endpoint_name, key, endpoint.store.version)
        if shared is not None:
            produced, done_ms = shared
            end = max(ready, done_ms)
            # No lane time: the producer's request ships one response
            # that feeds every attached query.  Recorded as a cached
            # request so request counters stay honest.
            self.metrics.record(
                RequestRecord(
                    kind=kind,
                    endpoint=endpoint_name,
                    start_ms=ready,
                    end_ms=end,
                    rows=0,
                    request_bytes=0,
                    response_bytes=0,
                    cached=True,
                )
            )
            self.registry.inc(
                "serve_mqo_subquery_hits_total",
                engine=self.engine,
                endpoint=endpoint_name,
            )
            return produced.view(query.projected_variables()), end
        # Miss: this query is the producer.  The turn acquired above is
        # handed to the booking inside the base select path.
        ticket.turn_held = True
        try:
            result, end = super().select(endpoint_name, query, ready, kind=kind)
        finally:
            ticket.turn_held = False
        # Register only successful responses — a failed attempt must
        # never feed other queries.
        server.register_select(endpoint_name, key, endpoint.store.version, result, end)
        return result, end
