"""Caches for remote probe results and compiled query plans.

The paper: "To take advantage of previously submitted ASK queries, Lusail
caches their results in a hash table", and Fig 10(b,c) measures response
time with and without caching ASK *and* check queries.  FedX caches its
source-selection ASKs the same way, and SAPE's COUNT statistics are also
cacheable.

Keys are ``(endpoint_name, query AST)``; AST nodes are immutable and
hashable, so no serialization is needed.  Every entry (statistics
summaries and join digests too) pins the store state it was fetched at
and the triple patterns it reads, and is served only while
:meth:`repro.store.TripleStore.current` says so
(:meth:`ProbeCache.get_current`): a write to another predicate or
``rdf:type`` class keeps a probe entry, and an endpoint replaced by a
same-named one retires all of its predecessor's.  Compiled plans pin
their store's state the same way.

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

    def _stale(self):
        """Count the hit :meth:`get` made on a stale entry as a miss."""
        self.hits -= 1
        self.misses += 1
        return MISSING

    def __len__(self) -> int:
        return len(self._table)


class ProbeCache(LRUCache):
    """An LRU cache for one kind of metadata answer (ASK / check / COUNT,
    summaries, digests)."""

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

        Entries are ``(pin, patterns, answer)``, served while
        ``store.current(pin, patterns)``; a stale one counts as a miss
        and stays until the fresh answer replaces it.  A pin of None
        means the answer carries its own ``pin``: a charset summary,
        which its endpoint refreshes in place for every holder.
        """
        entry = self.get(key)
        if entry is MISSING:
            return MISSING
        if not _current(entry, store):
            return self._stale()
        return entry[2]

    def peek_current(self, key: Hashable, store):
        """Like :meth:`get_current` but counter-neutral (see :meth:`peek`)."""
        entry = self.peek(key)
        if entry is MISSING or not _current(entry, store):
            return MISSING
        return entry[2]


def _current(entry: tuple, store) -> bool:
    pin, patterns, answer = entry
    return store.current(answer.pin if pin is None else pin, patterns)


class PlanCache(LRUCache):
    """Per-endpoint cache of compiled physical plans.

    Keys are query *skeletons* (VALUES rows stripped), so every
    bound-join block of the same subquery hits one entry.  A plan is
    served while the store state it pins is current
    (:attr:`CompiledPlan.valid`); after any write it is dropped, counted
    in ``invalidations`` and as a miss.
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
            return self._stale()
        return plan

    def peek_plan(self, key: Hashable):
        """Like :meth:`get_plan` but counter-neutral (see :meth:`peek`)."""
        plan = self.peek(key)
        if plan is MISSING or not plan.valid:
            return MISSING
        return plan


@dataclass
class EngineCaches:
    """The cache set a federation engine keeps across queries.  Every
    entry is ``(pin, patterns, answer)``, served only while the
    endpoint's store says ``current(pin, patterns)``."""

    #: ASK / check / COUNT probes: an entry reads the probe's patterns.
    ask: ProbeCache = field(default_factory=ProbeCache)
    check: ProbeCache = field(default_factory=ProbeCache)
    count: ProbeCache = field(default_factory=ProbeCache)
    #: Characteristic-set summaries keyed by endpoint name, and join
    #: digests keyed by ``(endpoint, predicate, position)``: an entry
    #: reads the whole store (patterns None), so any write retires it
    #: (the simulator's stand-in for an ETag'd HEAD request) until a
    #: fresh fetch; a summary is current again once any holder's fetch
    #: has refreshed it in place.
    stats: ProbeCache = field(default_factory=ProbeCache)
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
