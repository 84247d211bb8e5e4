"""Mediator result cache for the serving layer.

Entries are keyed on the query's **canonical plan skeleton**
(:func:`repro.sparql.skeleton.canonicalize_query`): two query texts that
differ only in variable naming share one cache slot, while embedded
constants remain part of the key as lifted VALUES data.  Queries the
canonicalizer declines (top-level VALUES) fall back to the raw query AST
as key — AST nodes are hashable, so no serialization is needed.

Every entry also pins the federation's ``membership_version`` and the
store state of each federation member that contributed to the result,
and keeps the triple patterns of the *parsed* query (the canonical key
lifts constants into VALUES, which would lose an ``rdf:type`` class).
A lookup re-validates lazily: an entry stays valid while each pinned
store says ``current(pin, patterns)``
(:meth:`repro.store.TripleStore.current`), so a write invalidates
exactly the entries that touched that endpoint *and* read a predicate
(or ``rdf:type`` class) the write matches — counted per endpoint in the
metrics registry (``serve_result_cache_invalidations_total``).  An
endpoint joining or leaving retires every entry (label ``endpoint="*"``):
an answer pinned to the members it touched cannot know what a newcomer
holds.  The check is modelled as free, like an ETag'd conditional
request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparql.ast import Query, SelectQuery
from repro.sparql.result import SelectResult
from repro.sparql.skeleton import canonicalize_query
from repro.store.triple_store import StoreState

__all__ = ["CachedResult", "ResultCache", "result_key", "shared_result"]


def shared_result(vars: tuple, rows: list):
    """A :class:`SelectResult` that adopts ``rows`` without copying.

    Cache hits hand the same row list to every consumer; the constructor
    copy would turn a dictionary lookup into an O(rows) operation per
    hit.  Consumers must treat the rows as read-only (engine code never
    mutates received rows).
    """
    result = SelectResult(vars, ())
    result.rows = rows
    return result


def result_key(query: Query) -> tuple[tuple, tuple]:
    """Cache key and positional projection for a parsed query.

    Returns ``(key, projected)``: a hashable canonical key and the
    query's *own* projected variables, positionally aligned with the
    rows any entry under that key stores.  Rows are positional, so a
    consumer restores a shared result by pairing the cached rows with
    its own projection header.
    """
    canonical = canonicalize_query(query)
    if canonical is None:
        projected: tuple = (
            query.projected_variables() if isinstance(query, SelectQuery) else ()
        )
        return ("raw", query), projected
    return ("skeleton", canonical.query), canonical.projected


@dataclass
class CachedResult:
    """One cached result: positional rows + the store states it pins."""

    rows: list
    #: ``(endpoint_name, store state)`` for every federation member
    #: that contributed to (or was probed for) this result.
    endpoint_pins: tuple[tuple[str, StoreState], ...]
    #: The federation's ``membership_version`` when the entry was stored.
    membership_version: int
    #: The triple patterns the query reads; None: any write to a pinned
    #: store retires the entry.
    patterns: tuple | None = None


class ResultCache:
    """Skeleton-keyed result cache, validated by the writes its entries'
    patterns could match."""

    def __init__(self, registry=None):
        self.entries: dict[tuple, CachedResult] = {}
        self.registry = registry
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------ metrics

    def _count(self, name: str, **labels) -> None:
        if self.registry is not None:
            self.registry.inc(name, **labels)

    # ------------------------------------------------------------- lookup

    def _stale_endpoint(self, entry: CachedResult, federation) -> str | None:
        """The first endpoint written, since the entry was pinned, in a way
        its patterns could match; ``*`` when an endpoint joined or left."""
        if entry.membership_version != federation.membership_version:
            return "*"
        for name, pin in entry.endpoint_pins:
            if not federation.get(name).store.current(pin, entry.patterns):
                return name
        return None

    def lookup(self, key: tuple, federation) -> CachedResult | None:
        """A still-valid entry, or None (counted as a miss).

        Validation is lazy: the entry's pinned store states are checked
        against the live federation's stores on every hit, and a
        stale entry is dropped (counted as an invalidation *and* a miss)
        right here.
        """
        entry = self.entries.get(key)
        if entry is not None:
            stale = self._stale_endpoint(entry, federation)
            if stale is None:
                self.hits += 1
                self._count("serve_result_cache_hits_total")
                return entry
            del self.entries[key]
            self.invalidations += 1
            self._count("serve_result_cache_invalidations_total", endpoint=stale)
        self.misses += 1
        self._count("serve_result_cache_misses_total")
        return None

    def store(
        self, key: tuple, rows: list, endpoints, federation, patterns=None
    ) -> CachedResult:
        """Cache ``rows`` pinned to the current states of ``endpoints``;
        ``patterns`` are the triple patterns the query reads (None: any
        write to those endpoints retires the entry)."""
        entry = CachedResult(
            rows=rows,
            endpoint_pins=tuple(
                (name, federation.get(name).store.state)
                for name in sorted(endpoints)
                if name in federation
            ),
            membership_version=federation.membership_version,
            patterns=None if patterns is None else tuple(patterns),
        )
        self.entries[key] = entry
        return entry

    # -------------------------------------------------------- invalidation

    def sweep(self, federation) -> int:
        """Drop every entry a write since its pin could change.

        The lazy per-lookup check already guarantees correctness; the
        sweep exists for explicit maintenance (and bounds memory after a
        bulk load).  Returns the number of entries dropped.
        """
        stale_keys = []
        for key, entry in self.entries.items():
            stale = self._stale_endpoint(entry, federation)
            if stale is not None:
                stale_keys.append((key, stale))
        for key, stale in stale_keys:
            del self.entries[key]
            self.invalidations += 1
            self._count("serve_result_cache_invalidations_total", endpoint=stale)
        return len(stale_keys)
