"""The Elastic Request Handler (paper Sec III / Fig 4).

Lusail assigns one worker thread per relevant endpoint (the "ideal
case"), bounded by the pool size.  In this reproduction the threads are
virtual: the handler decides how many partitions each subquery's result
is split across — the quantity the join cost model divides by — while
the virtual network's per-endpoint lanes provide the
thread-per-endpoint timing behaviour.
"""

from __future__ import annotations

#: Elastic Request Handler worker threads per mediator machine.
POOL_SIZE = 8

#: Rows per partition chunk when splitting large relations.
CHUNK_ROWS = 64


def partitions_for(sources: tuple[str, ...], rows: int, machines: int) -> int:
    """Partitions of a fetched relation on the mediator.

    At least one per collecting endpoint thread; large relations are
    additionally chunked across idle pool workers so hash joins can
    parallelize (the paper's inter-operator parallelism).  The pool
    holds :data:`POOL_SIZE` workers per mediator machine.
    """
    by_size = rows // CHUNK_ROWS + 1
    return max(1, min(POOL_SIZE * max(1, machines), max(len(sources), by_size)))
