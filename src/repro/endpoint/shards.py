"""Parallel shard lanes for one endpoint (opt-in, fork-based).

The default sharded execution path is *in-process*: the endpoint chunks
a compiled pipeline's input rows and runs the chunks serially
(:meth:`repro.sparql.plan.CompiledPlan.execute_select_sharded`), which
models the lane structure deterministically at zero risk.  This module
adds the real-parallelism variant: a small ``multiprocessing`` fork pool
whose workers each hold a copy-on-write snapshot of the endpoint and
evaluate one VALUES chunk of a bound-join request.

The pool is deliberately narrow:

* **fork snapshot** — workers inherit the endpoint's store at pool
  creation; any later mutation (``store.version`` bump) invalidates the
  pool, and the endpoint re-forks lazily.  A worker's dictionary is a
  private copy that may intern terms (VALUES constants) the parent
  never saw, so nothing crosses the process boundary as ids: requests
  ship *term-level* queries and workers answer with *term rows* — the
  one response path that is not id columns.
* **eligible queries only** — a leading VALUES block over a flat
  BGP/FILTER body, with no solution modifiers and no result limit.
  Chunking the VALUES rows and concatenating worker results in chunk
  order is then exactly the serial row order; anything else falls back
  to the in-process path.
"""

from __future__ import annotations

import multiprocessing
from time import perf_counter

from repro.sparql.ast import (
    BGP,
    Filter,
    GroupPattern,
    Query,
    SelectQuery,
    ValuesPattern,
)

__all__ = ["ShardPool", "fork_shardable", "split_values_rows"]

#: Handed to forked workers via copy-on-write memory, never pickled.
_FORK_ENDPOINT = None


def _run_chunk(query):
    """Worker body: evaluate one VALUES chunk on the forked snapshot.

    The worker's endpoint copy inherited ``shards``/``parallel`` from the
    parent; drop both so the chunk runs single-lane (daemonic pool
    workers may not fork grandchildren, and the chunk is one lane's
    share already).
    """
    endpoint = _FORK_ENDPOINT
    endpoint.shards = 1
    endpoint.parallel = False
    started = perf_counter()
    result = endpoint.select(query)
    return result.vars, result.rows, perf_counter() - started


def fork_shardable(query: Query) -> bool:
    """True when VALUES-chunked parallel evaluation is order-exact.

    Requires a leading non-empty VALUES block (the bound-join shape)
    over plain BGP / FILTER elements, and no solution modifiers: those
    are the queries whose result is the in-order concatenation of
    per-chunk results.  EXISTS filters are fine (per-row); OPTIONAL /
    UNION / sub-SELECT and DISTINCT / ORDER / LIMIT / aggregation are
    not.
    """
    if not isinstance(query, SelectQuery):
        return False
    if (
        query.distinct
        or query.order_by
        or query.limit is not None
        or query.offset
        or query.aggregate is not None
    ):
        return False
    elements = query.where.elements
    if not elements or not isinstance(elements[0], ValuesPattern):
        return False
    if not elements[0].rows:
        return False
    return all(isinstance(el, (BGP, Filter)) for el in elements[1:])


def split_values_rows(query: SelectQuery, shards: int) -> list[SelectQuery]:
    """Split the leading VALUES block into contiguous per-shard queries."""
    values = query.where.elements[0]
    rows = values.rows
    shards = min(shards, len(rows))
    size, extra = divmod(len(rows), shards)
    chunks: list[SelectQuery] = []
    start = 0
    for index in range(shards):
        end = start + size + (1 if index < extra else 0)
        where = GroupPattern(
            (ValuesPattern(values.vars, rows[start:end]), *query.where.elements[1:])
        )
        chunks.append(
            SelectQuery(
                where=where,
                select_vars=query.select_vars,
                distinct=query.distinct,
                aggregate=query.aggregate,
                order_by=query.order_by,
                limit=query.limit,
                offset=query.offset,
            )
        )
        start = end
    return chunks


class ShardPool:
    """A fork pool pinned to one endpoint's current store snapshot."""

    def __init__(self, endpoint, shards: int):
        global _FORK_ENDPOINT
        self.shards = shards
        self.store_version = endpoint.store.version
        context = multiprocessing.get_context("fork")
        # Workers fork during Pool construction and inherit the module
        # global by copy-on-write; reset it immediately so the parent
        # holds no hidden reference.
        _FORK_ENDPOINT = endpoint
        try:
            self._pool = context.Pool(processes=shards)
        finally:
            _FORK_ENDPOINT = None

    def valid_for(self, endpoint) -> bool:
        """False once the endpoint mutated past the forked snapshot."""
        return endpoint.store.version == self.store_version

    def execute(self, query: SelectQuery):
        """(vars, rows, shard_stats) for an eligible query.

        Rows are the in-order concatenation of per-chunk worker results,
        identical to the serial evaluation.
        """
        chunks = split_values_rows(query, self.shards)
        futures = [self._pool.apply_async(_run_chunk, (chunk,)) for chunk in chunks]
        vars_out: tuple = ()
        rows: list = []
        stats: list[dict] = []
        for index, (chunk, future) in enumerate(zip(chunks, futures)):
            chunk_vars, chunk_rows, seconds = future.get()
            vars_out = chunk_vars
            rows.extend(chunk_rows)
            stats.append(
                {
                    "shard": index,
                    "shards": len(chunks),
                    "input_rows": len(chunk.where.elements[0].rows),
                    "output_rows": len(chunk_rows),
                    "seconds": seconds,
                }
            )
        return vars_out, rows, stats

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()
