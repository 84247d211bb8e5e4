"""Mediator result cache for the serving layer.

Entries are keyed on the query's **canonical plan skeleton**
(:func:`repro.sparql.skeleton.canonicalize_query`): two query texts that
differ only in variable naming share one cache slot, while embedded
constants remain part of the key as lifted VALUES data.  Queries the
canonicalizer declines (top-level VALUES) fall back to the raw query AST
as key — AST nodes are hashable, so no serialization is needed.

Every entry also pins the ``store.version`` of each federation member
that contributed to the result.  A lookup re-validates those versions
lazily, so a store mutation anywhere in the federation invalidates
exactly the entries whose key includes that endpoint — counted per
endpoint in the metrics registry (``serve_result_cache_invalidations_total``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparql.ast import Query, SelectQuery
from repro.sparql.result import SelectResult
from repro.sparql.skeleton import canonicalize_query

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
    """One cached result: positional rows + the store versions it pins."""

    rows: list
    #: ``(endpoint_name, store_version)`` for every federation member
    #: that contributed to (or was probed for) this result.
    endpoint_versions: tuple[tuple[str, int], ...]

    def touches(self, endpoint_name: str) -> bool:
        return any(name == endpoint_name for name, __ in self.endpoint_versions)


class ResultCache:
    """Skeleton-keyed result cache with store-version invalidation."""

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
        """The first endpoint whose pinned store version no longer holds."""
        for name, version in entry.endpoint_versions:
            if name not in federation:
                return name
            if federation.get(name).store.version != version:
                return name
        return None

    def lookup(self, key: tuple, federation) -> CachedResult | None:
        """A still-valid entry, or None (counted as a miss).

        Validation is lazy: the entry's pinned store versions are checked
        against the live federation on every hit, and a stale entry is
        dropped (counted as an invalidation *and* a miss) right here.
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

    def store(self, key: tuple, rows: list, endpoints, federation) -> CachedResult:
        """Cache ``rows`` pinned to the current versions of ``endpoints``."""
        entry = CachedResult(
            rows=rows,
            endpoint_versions=tuple(
                (name, federation.get(name).store.version)
                for name in sorted(endpoints)
                if name in federation
            ),
        )
        self.entries[key] = entry
        return entry

    # -------------------------------------------------------- invalidation

    def sweep(self, federation) -> int:
        """Drop every entry whose pinned versions went stale.

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
