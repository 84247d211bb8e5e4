"""Seeded arrival streams for the serving layer.

:func:`generate_arrivals` turns a named query mix and a
:class:`TrafficConfig` into a bursty, Zipf-skewed open-loop arrival
stream of :class:`~repro.serve.QueryRequest` values for
:meth:`repro.serve.QueryServer.run`.  The stream is a pure function of
``(queries, config)``: the same inputs produce the same list, element
for element.  The performance ledger's ``serve_churn`` workload replays
one such stream.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from repro.serve import QueryRequest

__all__ = ["TrafficConfig", "generate_arrivals"]

#: Square-wave burst alternation period (virtual ms).
BURST_PERIOD_MS = 400.0
#: Arrival-rate multiplier during the burst half of each period.
BURST_FACTOR = 4.0


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


def generate_arrivals(
    queries: dict[str, str], config: TrafficConfig
) -> list[QueryRequest]:
    """The seeded open-loop arrival stream.

    Query names are drawn Zipf-skewed by rank (sorted name order =
    rank order); interarrival gaps are exponential with the rate
    modulated by a square wave (:data:`BURST_FACTOR` during the first
    half of every :data:`BURST_PERIOD_MS`); tenants are assigned
    uniformly.  All randomness comes from one ``random.Random`` seeded
    from ``config.seed``, so the stream is reproducible bit-for-bit.
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
        in_burst = (now // BURST_PERIOD_MS) % 2.0 == 0.0
        rate = BURST_FACTOR if in_burst else 1.0
        now += rng.expovariate(rate / config.mean_gap_ms)
        name = names[bisect_left(weights, rng.random() * total_weight)]
        tenant = f"tenant{rng.randrange(config.tenants)}"
        arrivals.append(
            QueryRequest(at_ms=now, tenant=tenant, name=name, text=queries[name])
        )
    return arrivals
