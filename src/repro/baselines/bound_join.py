"""FedX-style block bound joins.

The bound join ships the current intermediate solutions to the next
operand's endpoints in blocks (FedX's block nested-loop join, default
block size 15), one request per block per endpoint, **serially across
blocks** — "only one join step is processed at a time" (paper Sec II).
This is the mechanism whose request count scales with the intermediate
result size and produces the blow-up of the paper's Fig 3.
"""

from __future__ import annotations

from repro.core.decomposition.subquery import Subquery
from repro.endpoint.client import FederationClient
from repro.net import metrics as metrics_module
from repro.rdf.terms import Variable
from repro.relational.relation import Relation
from repro.sparql.ast import ValuesPattern

#: FedX's default bound-join block size.
DEFAULT_BLOCK_SIZE = 15


def evaluate_operand(
    client: FederationClient,
    operand: Subquery,
    projection: tuple[Variable, ...],
    at_ms: float,
    estimated_rows: float | None = None,
) -> tuple[Relation, float]:
    """Evaluate an operand unbound at all its sources (first join step).

    ``estimated_rows`` is the caller's index-based cardinality estimate
    (SPLENDID's VoID numbers); when given, the estimate-vs-actual pair
    is recorded in the EXPLAIN ANALYZE audit.
    """
    query = operand.to_select(projection)
    relation = Relation(projection, partitions=max(1, len(operand.sources)))
    finish = at_ms
    mark = client.metrics.mark()
    with client.tracer.span("operand", t0=at_ms, endpoints=list(operand.sources)) as span:
        if estimated_rows is not None:
            span.set(estimated_cardinality=estimated_rows)
        for endpoint in operand.sources:
            result, end = client.select(endpoint, query, at_ms)
            finish = max(finish, end)
            relation.rows.extend(result)
        if estimated_rows is not None and client.audit.enabled:
            client.audit.record(
                "void_estimate",
                estimated_rows,
                len(relation),
                span=span,
                mode="hash",
            )
        span.set(
            rows=len(relation), requests=client.metrics.requests_since(mark)
        ).end(finish)
    return relation, finish


def bound_join(
    client: FederationClient,
    current: Relation,
    operand: Subquery,
    projection: tuple[Variable, ...],
    at_ms: float,
    block_size: int = DEFAULT_BLOCK_SIZE,
    estimated_rows: float | None = None,
) -> tuple[Relation, float]:
    """One bound-join step: bind shared vars of ``current`` into ``operand``.

    Returns the *joined* relation.  When there are no shared variables the
    operand is evaluated unbound and cross-joined.

    ``estimated_rows`` is the caller's index-based estimate of the
    operand's extent; when given, it is audited against the rows the
    bound requests actually shipped back.
    """
    shared = tuple(
        sorted(set(current.vars) & operand.variables(), key=lambda v: v.name)
    )
    if not shared or not current.rows:
        fetched, end = evaluate_operand(
            client, operand, projection, at_ms, estimated_rows=estimated_rows
        )
        return current.join(fetched), end

    bindings = current.project(shared).distinct()
    binding_rows = [row for row in bindings.rows if None not in row]
    out_vars = current.vars + tuple(v for v in projection if v not in set(current.vars))
    joined = Relation(out_vars, partitions=max(1, len(operand.sources)))
    now = at_ms
    mark = client.metrics.mark()
    blocks = 0
    fetched_total = 0
    with client.tracer.span(
        "bound_join",
        t0=at_ms,
        bindings=len(binding_rows),
        block_size=block_size,
        endpoints=list(operand.sources),
    ) as span:
        if estimated_rows is not None:
            span.set(estimated_cardinality=estimated_rows)
        for start in range(0, len(binding_rows), block_size):
            block = binding_rows[start:start + block_size]
            query = operand.to_select(projection, values=ValuesPattern(shared, block))
            block_end = now
            fetched = Relation(projection, partitions=max(1, len(operand.sources)))
            for endpoint in operand.sources:
                result, end = client.select(
                    endpoint, query, now, kind=metrics_module.BOUND
                )
                block_end = max(block_end, end)
                fetched.rows.extend(result)
            # Serial across blocks: the next block is issued only after this
            # one completed (FedX's synchronous pipeline).
            now = block_end
            blocks += 1
            fetched_total += len(fetched)
            client.registry.inc("bound_join_blocks_total", engine=client.engine)
            block_joined = current.join(fetched)
            joined.rows.extend(block_joined.project(out_vars).rows)
        if estimated_rows is not None and client.audit.enabled:
            client.audit.record(
                "void_estimate",
                estimated_rows,
                fetched_total,
                span=span,
                mode="bind",
            )
        span.set(
            blocks=blocks,
            rows=len(joined),
            requests=client.metrics.requests_since(mark),
        ).end(now)
    return joined, now
