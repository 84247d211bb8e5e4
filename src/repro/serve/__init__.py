"""Concurrent multi-tenant query serving (see ``docs/serving.md``).

The serving layer turns the repo's one-query-at-a-time engines into a
deterministic concurrent mediator: an admission-controlled cooperative
scheduler multiplexes N in-flight queries over shared per-endpoint lanes
in virtual time, with per-tenant quotas and deficit-round-robin
fairness, a skeleton-keyed result cache with store-version invalidation,
and in-flight cross-query MQO that lets one endpoint request feed
multiple waiting queries.  None of it is configurable: the quotas are
module constants of :mod:`repro.serve.server` and every sharing layer is
always on.  :func:`repro.harness.traffic.generate_arrivals` builds the
seeded arrival streams :meth:`QueryServer.run` replays; the performance
ledger's ``serve_churn`` workload measures the layer.
"""

from repro.serve.cache import CachedResult, ResultCache, result_key, shared_result
from repro.serve.client import ServingClient, ServingNetwork
from repro.serve.server import QueryRequest, QueryServer, ServedQuery

__all__ = [
    "CachedResult",
    "QueryRequest",
    "QueryServer",
    "ResultCache",
    "ServedQuery",
    "ServingClient",
    "ServingNetwork",
    "result_key",
    "shared_result",
]
