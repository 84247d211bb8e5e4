"""Request accounting for federated query execution.

Every remote call an engine makes is recorded here: what kind of request
(ASK probe, locality check, COUNT statistic, subquery SELECT, bound-join
block), which endpoint served it, how many rows/bytes moved, and how much
virtual time it took.  The benchmark harness reads these counters to
regenerate the paper's request-count and response-time plots.

Cache hits never touch the network; every aggregator excludes them by
default through one shared filter (:meth:`QueryMetrics.iter_records`),
matching how the paper counts requests with warmed caches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Request kinds, used for per-phase breakdowns.
ASK = "ask"
CHECK = "check"
COUNT = "count"
SELECT = "select"
BOUND = "bound"
STATS = "stats"
#: One whole-query partial-evaluation round: the mediator ships the full
#: branch plan to an endpoint and gets back local-complete matches plus
#: compact partial (fragment) matches in a single request.
PARTIAL = "partial"

REQUEST_KINDS = (ASK, CHECK, COUNT, SELECT, BOUND, STATS, PARTIAL)

#: Planner metadata kinds: requests that ship no result rows, only the
#: information needed to plan (source-selection ASKs, locality checks,
#: COUNT statistics, characteristic-set summary fetches).
METADATA_KINDS = (ASK, CHECK, COUNT, STATS)


@dataclass
class RequestRecord:
    """One remote request, as the simulator observed it."""

    kind: str
    endpoint: str
    start_ms: float
    end_ms: float
    rows: int
    request_bytes: int
    response_bytes: int
    cached: bool = False
    #: ``ok`` | ``error`` (injected fault) | ``timeout`` (per-request
    #: budget).  Failed attempts ship no rows but are still requests.
    status: str = "ok"

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def failed(self) -> bool:
        return self.status != "ok"


@dataclass
class QueryMetrics:
    """Aggregated measurements for a single federated query execution."""

    records: list[RequestRecord] = field(default_factory=list)
    virtual_ms: float = 0.0
    wall_ms: float = 0.0
    phase_ms: dict[str, float] = field(default_factory=dict)
    mediator_rows: int = 0
    result_rows: int = 0
    status: str = "ok"
    #: Request retries the resilience layer performed.
    retries: int = 0
    #: Endpoints whose contribution was dropped in partial-results mode
    #: (completeness metadata; duplicates collapsed by the property below).
    dropped_endpoints: list[str] = field(default_factory=list)

    def record(self, record: RequestRecord) -> None:
        self.records.append(record)

    @property
    def complete(self) -> bool:
        """False when partial-results degradation dropped any endpoint."""
        return not self.dropped_endpoints

    # ------------------------------------------------------------ queries

    def iter_records(
        self, *kinds: str, include_cached: bool = False, start: int = 0
    ) -> Iterator[RequestRecord]:
        """The single cached-requests filter every aggregator goes through.

        Cache hits are excluded unless ``include_cached``; ``kinds``
        restricts to the given request kinds; ``start`` skips records
        before a :meth:`mark` (for windowed span accounting).
        """
        wanted = set(kinds) if kinds else None
        for record in self.records[start:]:
            if not include_cached and record.cached:
                continue
            if wanted is not None and record.kind not in wanted:
                continue
            yield record

    def request_count(self, *kinds: str, include_cached: bool = False) -> int:
        """Number of remote requests, optionally filtered by kind."""
        return sum(1 for __ in self.iter_records(*kinds, include_cached=include_cached))

    def failed_request_count(self, *kinds: str) -> int:
        """Requests that failed (injected fault or per-request timeout)."""
        return sum(1 for record in self.iter_records(*kinds) if record.failed)

    def metadata_request_count(self, include_cached: bool = False) -> int:
        """Planner metadata requests (ASK / check / COUNT / stats fetches).

        The "metadata requests per query" line in the profile CLI and
        the >=5x charset-statistics reduction test are built on this count.
        """
        return self.request_count(*METADATA_KINDS, include_cached=include_cached)

    def requests_by_kind(self, include_cached: bool = False) -> Counter:
        return Counter(
            record.kind for record in self.iter_records(include_cached=include_cached)
        )

    def rows_shipped(self, *kinds: str, include_cached: bool = False) -> int:
        return sum(
            record.rows
            for record in self.iter_records(*kinds, include_cached=include_cached)
        )

    def bytes_shipped(self, include_cached: bool = False) -> int:
        return sum(
            record.request_bytes + record.response_bytes
            for record in self.iter_records(include_cached=include_cached)
        )

    # ----------------------------------------------------- span accounting

    def mark(self) -> int:
        """A cursor into the record list; pair with the ``*_since`` helpers
        to attribute requests/rows to one traced stage."""
        return len(self.records)

    def requests_since(self, mark: int, include_cached: bool = False) -> int:
        return sum(1 for __ in self.iter_records(include_cached=include_cached, start=mark))

    def rows_since(self, mark: int) -> int:
        return sum(record.rows for record in self.iter_records(start=mark))

    def endpoint_summary(self) -> dict[str, dict]:
        """Per-endpoint rollup: kind counts, cache hits, rows, bytes, and
        total virtual busy time (the profile command's summary table)."""
        summary: dict[str, dict] = {}
        for record in self.records:
            stats = summary.setdefault(
                record.endpoint,
                {"by_kind": Counter(), "cached": 0, "rows": 0, "bytes": 0, "busy_ms": 0.0},
            )
            if record.cached:
                stats["cached"] += 1
                continue
            stats["by_kind"][record.kind] += 1
            stats["rows"] += record.rows
            stats["bytes"] += record.request_bytes + record.response_bytes
            stats["busy_ms"] += record.duration_ms
        return summary

    def lane_busy_ms(self) -> dict[str, float]:
        """Virtual busy time per endpoint lane, as the mediator saw it.

        Cache hits are instantaneous and excluded; failed and timed-out
        requests still occupied the lane for their observed duration.
        """
        busy: dict[str, float] = {}
        for record in self.iter_records():
            busy[record.endpoint] = busy.get(record.endpoint, 0.0) + record.duration_ms
        return busy

    def lane_utilization(self, total_ms: float | None = None) -> dict[str, float]:
        """Busy fraction per endpoint lane over the query's lifetime.

        The denominator defaults to this query's ``virtual_ms`` span;
        pass ``total_ms`` to normalize against a workload makespan
        instead (how the serving harness reports shared-lane pressure).
        """
        if total_ms is None:
            total_ms = self.virtual_ms
        busy = self.lane_busy_ms()
        if total_ms <= 0.0:
            return {endpoint: 0.0 for endpoint in sorted(busy)}
        return {endpoint: busy[endpoint] / total_ms for endpoint in sorted(busy)}

    # ------------------------------------------------------------- phases

    def add_phase(self, phase: str, duration_ms: float) -> None:
        self.phase_ms[phase] = self.phase_ms.get(phase, 0.0) + duration_ms

    def merge(self, other: "QueryMetrics") -> None:
        """Fold another metrics object into this one (multi-query runs)."""
        self.records.extend(other.records)
        self.virtual_ms += other.virtual_ms
        self.wall_ms += other.wall_ms
        self.mediator_rows = max(self.mediator_rows, other.mediator_rows)
        self.result_rows += other.result_rows
        self.retries += other.retries
        self.dropped_endpoints.extend(other.dropped_endpoints)
        for phase, duration in other.phase_ms.items():
            self.add_phase(phase, duration)


def total_requests(metrics_list: Iterable[QueryMetrics], include_cached: bool = False) -> int:
    return sum(
        metrics.request_count(include_cached=include_cached) for metrics in metrics_list
    )
