"""Caches for remote probe results and compiled query plans.

The paper: "To take advantage of previously submitted ASK queries, Lusail
caches their results in a hash table", and Fig 10(b,c) measures response
time with and without caching ASK *and* check queries.  FedX caches its
source-selection ASKs the same way, and SAPE's COUNT statistics are also
cacheable.

Keys are ``(endpoint_name, query AST)``; AST nodes are immutable and
hashable, so no serialization is needed.  A probe entry also holds the
store version it was probed at and the triple patterns the probe reads,
and a lookup serves it only while no later write could match one of
them (:meth:`ProbeCache.get_current`, which reads
:meth:`repro.store.TripleStore.last_write`): a write to another
predicate, or to another ``rdf:type`` class, keeps the entry.

Both cache kinds share one LRU eviction policy (:class:`LRUCache`):
probe caches are bounded so the chaos / bench harnesses no longer leak,
and the per-endpoint :class:`PlanCache` keeps the most recently used
compiled plans, keyed on the query skeleton with VALUES rows stripped
(see :func:`repro.sparql.plan.split_parameters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable


#: Sentinel distinguishing "not cached" from a cached falsy value
#: (ASK probes legitimately cache ``False``).
MISSING = object()

#: Default bound for probe caches.  Far above what one paper workload
#: touches, but a hard ceiling under long chaos/bench loops.
DEFAULT_PROBE_CACHE_CAPACITY = 8192

#: Default bound for per-endpoint plan caches.  A federation sees few
#: distinct skeletons (one per delayed subquery / probe shape), so this
#: is generous; it exists to bound adversarial workloads.
DEFAULT_PLAN_CACHE_CAPACITY = 256


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Backed by dict insertion order: a hit reinserts the key at the back,
    eviction pops the front.  ``capacity=None`` means unbounded;
    ``capacity=0`` disables storage entirely (every get misses).
    Hit / miss / eviction counters are public attributes.
    """

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity
        self._table: dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """Cached value, or :data:`MISSING`.  Counts hit/miss statistics."""
        table = self._table
        value = table.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
            # Move to most-recently-used position.
            del table[key]
            table[key] = value
        return value

    def put(self, key: Hashable, value: object) -> None:
        capacity = self.capacity
        if capacity == 0:
            return
        table = self._table
        if key in table:
            del table[key]
        elif capacity is not None and len(table) >= capacity:
            del table[next(iter(table))]
            self.evictions += 1
        table[key] = value

    def peek(self, key: Hashable):
        """Cached value or :data:`MISSING` — no counters, no LRU touch.

        The observability layer uses this to inspect cached state
        without perturbing the hit/miss statistics that the traced-vs-
        untraced invariance guarantee depends on.
        """
        return self._table.get(key, MISSING)

    def discard(self, key: Hashable) -> None:
        self._table.pop(key, None)

    def clear(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._table


class ProbeCache(LRUCache):
    """An LRU cache for one kind of probe result (ASK / check / COUNT)."""

    def __init__(
        self, enabled: bool = True, capacity: int | None = DEFAULT_PROBE_CACHE_CAPACITY
    ):
        super().__init__(capacity=capacity)
        self.enabled = enabled

    def get(self, key: Hashable):
        if not self.enabled:
            return MISSING
        return super().get(key)

    def put(self, key: Hashable, value: object) -> None:
        if self.enabled:
            super().put(key, value)

    def get_current(self, key: Hashable, store):
        """The probe answer cached under ``key``, or :data:`MISSING`.

        Entries are ``(version, patterns, answer)``: the answer was
        probed at store ``version`` and reads only triples matching
        ``patterns``.  It is served while ``store.last_write(patterns)``
        has not passed ``version``; a stale entry is dropped here and
        counted as a miss, not a hit.
        """
        entry = self.get(key)
        if entry is MISSING:
            return MISSING
        version, patterns, answer = entry
        if store.written_since(patterns, version):
            self.discard(key)
            self.hits -= 1
            self.misses += 1
            return MISSING
        return answer


class PlanCache(LRUCache):
    """Per-endpoint cache of compiled physical plans.

    Keys are query *skeletons* (VALUES rows stripped), so every
    bound-join block of the same subquery hits one entry.  A cached plan
    is only served while its store version still matches — a mutated
    store invalidates the entry (counted in ``invalidations`` and as a
    miss, since the caller must recompile).
    """

    def __init__(self, capacity: int | None = DEFAULT_PLAN_CACHE_CAPACITY):
        super().__init__(capacity=capacity)
        self.invalidations = 0

    def get_plan(self, key: Hashable):
        """The cached, still-valid plan for ``key``, or :data:`MISSING`."""
        plan = self.get(key)
        if plan is MISSING:
            return MISSING
        if not plan.valid:
            self.discard(key)
            self.invalidations += 1
            # The hit counter already advanced; correct it to a miss so
            # hit rates reflect compilations actually avoided.
            self.hits -= 1
            self.misses += 1
            return MISSING
        return plan

    def peek_plan(self, key: Hashable):
        """Like :meth:`get_plan` but counter-neutral (see :meth:`peek`)."""
        plan = self.peek(key)
        if plan is MISSING or not plan.valid:
            return MISSING
        return plan

    def clear(self) -> None:
        super().clear()
        self.invalidations = 0


@dataclass
class EngineCaches:
    """The cache set a federation engine keeps across queries."""

    ask: ProbeCache = field(default_factory=ProbeCache)
    check: ProbeCache = field(default_factory=ProbeCache)
    count: ProbeCache = field(default_factory=ProbeCache)
    #: Characteristic-set summaries keyed by endpoint name.  Entries are
    #: validated against the endpoint's ``store.version`` on every use
    #: (the simulator's stand-in for an ETag'd HEAD request), so a stale
    #: summary is re-fetched rather than served.
    stats: ProbeCache = field(default_factory=ProbeCache)
    #: Join-value digests keyed by ``(endpoint, predicate, position)``.
    #: Validated against ``store.version`` like the stats summaries, so
    #: partial-evaluation pruning never uses a stale fingerprint set.
    digest: ProbeCache = field(default_factory=ProbeCache)

    @classmethod
    def disabled(cls) -> "EngineCaches":
        return cls(
            ask=ProbeCache(enabled=False),
            check=ProbeCache(enabled=False),
            count=ProbeCache(enabled=False),
            stats=ProbeCache(enabled=False),
            digest=ProbeCache(enabled=False),
        )

    def clear(self) -> None:
        self.ask.clear()
        self.check.clear()
        self.count.clear()
        self.stats.clear()
        self.digest.clear()
