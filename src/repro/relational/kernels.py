"""Columnar join kernels for the mediator relation algebra.

The mediator stores relations column-major (one list of int ids per
variable, ``None`` marking unbound positions — see
:mod:`repro.relational.relation`).  This module holds the data-movement
kernels those relations dispatch to:

* a **fast path** for fully-bound join keys: a dict of build-side row
  indexes and a C-level probe over the key columns — no per-row tuple
  merging and no per-pair compatibility dict.  The left join gathers its
  output columns; the inner join stops at the **runs**
  (:class:`JoinRuns`: each matching probe row against its bucket of
  build rows) and allocates nothing per output row.  Runs have two
  readers: ``flatten`` builds the id columns, by index gathers, when a
  kernel or mutator first asks for them, and ``rows`` writes the term
  rows of a final answer straight from the runs, decoding the join's
  inputs instead of its output.  Measured and rejected (see
  ``docs/architecture.md``, "Runs"): flattening by per-bucket value
  slices (faster at fan-out 24, slower at the fan-out 1 most joins
  have), one ``zip`` per singleton run, and a lazy final answer;
* a **general path** that keeps full SPARQL compatibility semantics
  (an unbound key is compatible with anything), taken only when a key
  column actually contains ``None``;
* cross-product, left-join, union, project and distinct kernels with the
  same columnar layout.

Every kernel runs under the active :class:`KernelRuntime`: it enforces
``max_mediator_rows`` *while emitting* (a too-large join aborts mid-probe
with :class:`~repro.exceptions.MemoryLimitError` instead of after
materializing the result — the runs-returning join before it has
allocated anything per output row), accumulates :class:`KernelCounters` for the
metrics registry, and records per-join :class:`JoinOpStats` so schedulers
can charge ``join_cost_units`` from measured kernel work.

Kernels are duck-typed over relations (``.vars`` / ``.columns`` /
``len()`` / ``.partitions``) so this module stays import-free of
:mod:`repro.relational.relation`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat

from repro.exceptions import MemoryLimitError

#: A column: ids (or ``None`` for unbound) for one variable, row-aligned.
Column = list


# --------------------------------------------------------------- runtime


@dataclass
class KernelCounters:
    """Work counters the kernels accumulate per installed runtime."""

    build_rows: int = 0
    probe_rows: int = 0
    rows_emitted: int = 0
    fast_dispatches: int = 0
    general_dispatches: int = 0

    def items(self):
        yield "mediator_kernel_build_rows_total", self.build_rows
        yield "mediator_kernel_probe_rows_total", self.probe_rows
        yield "mediator_kernel_rows_emitted_total", self.rows_emitted
        yield "mediator_kernel_fast_dispatches_total", self.fast_dispatches
        yield "mediator_kernel_general_dispatches_total", self.general_dispatches


@dataclass
class JoinOpStats:
    """Measured work of the most recent join/left-join kernel call."""

    kind: str  # "fast" | "general" | "cross"
    build_rows: int
    probe_rows: int
    rows_out: int
    build_partitions: int = 1
    probe_partitions: int = 1

    def cost_units(self) -> float:
        """The paper's JoinCost from *measured* kernel row counts."""
        return self.build_rows / max(1, self.build_partitions) + self.probe_rows / max(
            1, self.probe_partitions
        )


@dataclass
class KernelRuntime:
    """Ambient limits and sinks for the columnar kernels.

    ``max_rows`` is enforced streaming: kernels raise
    :class:`MemoryLimitError` as soon as an output crosses it, marking
    ``metrics.status`` (when a metrics object is attached) so the engine
    reports OOM exactly like the post-hoc guards used to.
    """

    max_rows: int | None = None
    counters: KernelCounters = field(default_factory=KernelCounters)
    metrics: object | None = None
    last_join: JoinOpStats | None = None

    def overflow(self, rows: int) -> None:
        if self.metrics is not None:
            self.metrics.status = "oom"
        raise MemoryLimitError(
            f"mediator intermediate results exceeded {self.max_rows} rows "
            "(aborted mid-join)",
            rows=rows,
        )


_RUNTIME_STACK: list[KernelRuntime] = [KernelRuntime()]


def last_join_cost() -> float:
    """Measured cost units of the most recent join under the active runtime."""
    stats = _RUNTIME_STACK[-1].last_join
    return stats.cost_units() if stats is not None else 0.0


@contextmanager
def kernel_runtime(
    max_rows: int | None = None,
    counters: KernelCounters | None = None,
    metrics: object | None = None,
):
    """Install a runtime for the duration of a query/branch execution."""
    runtime = KernelRuntime(
        max_rows=max_rows,
        counters=counters if counters is not None else KernelCounters(),
        metrics=metrics,
    )
    _RUNTIME_STACK.append(runtime)
    try:
        yield runtime
    finally:
        _RUNTIME_STACK.pop()


# --------------------------------------------------------------- helpers


def _key_columns(relation, shared) -> list[Column]:
    vars = relation.vars
    columns = relation.columns
    return [columns[vars.index(var)] for var in shared]


def _out_permutation(left_vars, right_vars, out_vars):
    """Map each output variable to (from_left, source column index)."""
    left_pos = {var: index for index, var in enumerate(left_vars)}
    right_pos = {var: index for index, var in enumerate(right_vars)}
    permutation = []
    for var in out_vars:
        if var in left_pos:
            permutation.append((True, left_pos[var]))
        else:
            permutation.append((False, right_pos[var]))
    return permutation


def _gather(column: Column, indexes) -> Column:
    return [column[i] for i in indexes]


def _iter_id_rows(relation):
    columns = relation.columns
    if not columns:
        return (() for __ in range(len(relation)))
    return zip(*columns)


def _rows_to_columns(rows: list, width: int) -> list[Column]:
    if not rows:
        return [[] for __ in range(width)]
    return [list(column) for column in zip(*rows)]


# ----------------------------------------------------------------- runs


@dataclass(slots=True)
class JoinRuns:
    """An inner hash join's output, still grouped the way the probe found
    it: one *run* per matching probe row — that row against its bucket of
    build rows — and nothing materialised per output row.

    Runs have two readers.  :meth:`flatten` builds the id columns (what
    every kernel and mutator reads; the store drops the runs then), and
    :meth:`rows` writes value rows straight from the runs, translating
    each *input* column once instead of each output column.
    :meth:`project` narrows ``sources`` and stays lazy.  The input
    columns are shared with the joined relations, read-only; rows those
    relations are given later lie past every index and mask the runs
    hold, and are never read.
    """

    build_columns: list[Column]
    probe_columns: list[Column]
    #: key -> build row indexes.
    index: dict
    #: Per matching probe row: its key, its bucket, the bucket's size.
    hit_keys: list
    hit_buckets: list[list[int]]
    counts: list[int]
    #: Truthy per probe row that matched; ``None`` when every row did.
    hits: list | None
    #: Per output variable: (from_probe, source column index).
    sources: list[tuple[bool, int]]
    length: int

    def project(self, positions) -> "JoinRuns":
        """The same runs over the output columns at ``positions``."""
        sources = self.sources
        # Spelled out: ``dataclasses.replace`` costs more than a 5 x 5 join.
        return JoinRuns(
            self.build_columns,
            self.probe_columns,
            self.index,
            self.hit_keys,
            self.hit_buckets,
            self.counts,
            self.hits,
            [sources[position] for position in positions],
            self.length,
        )

    def flatten(self) -> list[Column]:
        """The output as id columns: one index gather per column."""
        sources = self.sources
        sides = {from_probe for from_probe, __ in sources}
        build_indexes = probe_indexes = ()
        if False in sides:
            build_indexes = list(chain.from_iterable(self.hit_buckets))
        hits, counts = self.hits, self.counts
        # Every probe row matched exactly once: its columns are the output's.
        aligned = hits is None and self.length == len(counts)
        if True in sides and not aligned:
            positions = count() if hits is None else compress(count(), hits)
            probe_indexes = list(chain.from_iterable(map(repeat, positions, counts)))
        columns: list[Column] = []
        for from_probe, source in sources:
            if not from_probe:
                columns.append(_gather(self.build_columns[source], build_indexes))
            elif aligned:
                columns.append(self.probe_columns[source][: len(counts)])
            else:
                columns.append(_gather(self.probe_columns[source], probe_indexes))
        return columns

    def rows(self, translate) -> list[tuple]:
        """The output as row tuples of ``translate``d values.

        ``translate`` maps a column of ids to the values to write (the
        codec's decode; ``iter`` yields id rows).  Singleton runs —
        ``length`` equals the number of runs, the key / foreign-key join
        — are no longer than the inputs: their flattened columns are
        translated and zipped, one value per run.  Wider runs translate
        each *input* column once and zip every bucket's build values
        against the repeated probe values.
        """
        sources = self.sources
        if not sources:
            return [()] * self.length
        counts = self.counts
        if self.length == len(counts):
            return list(zip(*map(translate, self.flatten())))
        hits = self.hits
        slices = {}
        probe_values = {}
        for from_probe, source in sources:
            if from_probe:
                if source not in probe_values:
                    column = self.probe_columns[source]
                    if hits is not None:
                        column = list(compress(column, hits))
                    probe_values[source] = list(translate(column))
            elif source not in slices:
                values = list(translate(self.build_columns[source]))
                slices[source] = {
                    key: [values[i] for i in bucket] for key, bucket in self.index.items()
                }
        # ``counts`` bounds every iterator: the hit keys may alias a probe
        # key column that has grown since.
        return list(
            chain.from_iterable(
                map(
                    zip,
                    *(
                        map(repeat, probe_values[source], counts)
                        if from_probe
                        else map(slices[source].__getitem__, islice(self.hit_keys, len(counts)))
                        for from_probe, source in sources
                    ),
                )
            )
        )


# ----------------------------------------------------------- inner join


def join(left, right, shared, out_vars) -> "tuple[list[Column] | JoinRuns, int]":
    """Natural join kernel; returns (output, output length), the output
    as :class:`JoinRuns` from the fast path and as columns otherwise."""
    runtime = _RUNTIME_STACK[-1]
    if not shared:
        return _cross_join(left, right, out_vars, runtime)

    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    build_keys = _key_columns(build, shared)
    probe_keys = _key_columns(probe, shared)
    counters = runtime.counters
    counters.build_rows += len(build)
    counters.probe_rows += len(probe)

    if any(None in column for column in build_keys) or any(
        None in column for column in probe_keys
    ):
        columns, length = _general_join(left, right, shared, out_vars, runtime)
        kind = "general"
        counters.general_dispatches += 1
    else:
        columns = _fast_join(build, probe, build_keys, probe_keys, out_vars, runtime)
        length = columns.length  # the output stays as runs
        kind = "fast"
        counters.fast_dispatches += 1
    counters.rows_emitted += length
    runtime.last_join = JoinOpStats(
        kind=kind,
        build_rows=len(build),
        probe_rows=len(probe),
        rows_out=length,
        build_partitions=build.partitions,
        probe_partitions=probe.partitions,
    )
    return columns, length


def _fast_join(build, probe, build_keys, probe_keys, out_vars, runtime) -> "JoinRuns":
    """Fully-bound keys: dict-of-row-indexes build, a C-level probe, and
    no allocation per output row — the result stays as runs."""
    index: dict = {}
    if len(build_keys) == 1:
        build_iter = enumerate(build_keys[0])
        keys = probe_keys[0]
    else:
        build_iter = enumerate(zip(*build_keys))
        keys = list(zip(*probe_keys))
    for row_index, key in build_iter:
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row_index]
        else:
            bucket.append(row_index)

    buckets = list(map(index.get, keys))
    hits = None
    if not all(buckets):
        # A bucket is never empty and a miss is ``None``: the probe's
        # buckets are its hit mask.
        hits = buckets
        keys = list(compress(keys, hits))
        buckets = list(compress(buckets, hits))
    counts = list(map(len, buckets))
    length = sum(counts)
    limit = runtime.max_rows
    if limit is not None and length > limit:
        # The running total at which a row-at-a-time probe would have stopped.
        runtime.overflow(next(total for total in accumulate(counts) if total > limit))

    # Probe side first, so that is where a shared variable reads: a probe
    # column can flatten to a plain copy, a build column never does.
    sources = _out_permutation(probe.vars, build.vars, out_vars)
    return JoinRuns(
        build.columns, probe.columns, index, keys, buckets, counts, hits, sources, length
    )


def _general_join(left, right, shared, out_vars, runtime) -> tuple[list[Column], int]:
    """Row-at-a-time fallback with full compatibility semantics."""
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    table, wildcard_rows = _build_hash_table(build, shared)
    build_rows = list(_iter_id_rows(build))
    probe_key_indexes = [probe.vars.index(var) for var in shared]
    build_vars, probe_vars = build.vars, probe.vars

    rows: list[tuple] = []
    limit = runtime.max_rows
    for probe_row in _iter_id_rows(probe):
        key = tuple(probe_row[i] for i in probe_key_indexes)
        if None in key:
            # Unbound join key: compatible with every build row.
            candidates = build_rows
        elif wildcard_rows:
            candidates = list(table.get(key, ())) + wildcard_rows
        else:
            # No wildcard build rows: probe the table directly, without
            # allocating a fresh candidate list per probe row.
            candidates = table.get(key, ())
        for build_row in candidates:
            merged = _merge_compatible(
                build_vars, build_row, probe_vars, probe_row, out_vars
            )
            if merged is not None:
                rows.append(merged)
        if limit is not None and len(rows) > limit:
            runtime.overflow(len(rows))
    return _rows_to_columns(rows, len(out_vars)), len(rows)


def _cross_join(left, right, out_vars, runtime) -> tuple[list[Column], int]:
    """No shared variables: cross product via two index gathers."""
    left_len, right_len = len(left), len(right)
    total = left_len * right_len
    counters = runtime.counters
    build_len, probe_len = (
        (left_len, right_len) if left_len <= right_len else (right_len, left_len)
    )
    counters.build_rows += build_len
    counters.probe_rows += probe_len
    if runtime.max_rows is not None and total > runtime.max_rows:
        runtime.overflow(total)
    left_indexes = [i for i in range(left_len) for __ in range(right_len)]
    right_indexes = list(range(right_len)) * left_len
    left_columns, right_columns = left.columns, right.columns
    columns = [
        _gather(left_columns[source], left_indexes)
        if from_left
        else _gather(right_columns[source], right_indexes)
        for from_left, source in _out_permutation(left.vars, right.vars, out_vars)
    ]
    counters.rows_emitted += total
    build_first = left_len <= right_len
    runtime.last_join = JoinOpStats(
        kind="cross",
        build_rows=build_len,
        probe_rows=probe_len,
        rows_out=total,
        build_partitions=left.partitions if build_first else right.partitions,
        probe_partitions=right.partitions if build_first else left.partitions,
    )
    return columns, total


# ------------------------------------------------------------ left join


def left_join(left, right, shared, out_vars, condition=None) -> tuple[list[Column], int]:
    """SPARQL OPTIONAL kernel: keep left rows with no match, pad ``None``.

    ``condition`` is the left join's FILTER, compiled over id rows laid
    out as ``out_vars``: a compatible pair it rejects is no match, so a
    left row whose partners all fail is padded once, like one with none.
    """
    runtime = _RUNTIME_STACK[-1]
    counters = runtime.counters
    pad_width = len(out_vars) - len(left.vars)

    if not shared and condition is None:
        if not len(right):
            columns = [list(column) for column in left.columns]
            columns.extend([None] * len(left) for __ in range(pad_width))
            counters.rows_emitted += len(left)
            runtime.last_join = JoinOpStats(
                kind="cross",
                build_rows=0,
                probe_rows=len(left),
                rows_out=len(left),
                build_partitions=right.partitions,
                probe_partitions=left.partitions,
            )
            return columns, len(left)
        return _cross_join(left, right, out_vars, runtime)

    counters.build_rows += len(right)
    counters.probe_rows += len(left)
    left_keys = _key_columns(left, shared)
    right_keys = _key_columns(right, shared)

    # No shared variable and a condition: every pair is a candidate,
    # which the general path's empty key already says.
    if (
        not shared
        or any(None in column for column in left_keys)
        or any(None in column for column in right_keys)
    ):
        counters.general_dispatches += 1
        columns, length = _general_left_join(
            left, right, shared, out_vars, runtime, condition
        )
        kind = "general"
    else:
        counters.fast_dispatches += 1
        columns, length = _fast_left_join(
            left, right, left_keys, right_keys, out_vars, runtime, condition
        )
        kind = "fast"
    counters.rows_emitted += length
    runtime.last_join = JoinOpStats(
        kind=kind,
        build_rows=len(right),
        probe_rows=len(left),
        rows_out=length,
        build_partitions=right.partitions,
        probe_partitions=left.partitions,
    )
    return columns, length


def _fast_left_join(
    left, right, left_keys, right_keys, out_vars, runtime, condition
) -> tuple[list[Column], int]:
    index: dict = {}
    if len(right_keys) == 1:
        for row_index, key in enumerate(right_keys[0]):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row_index]
            else:
                bucket.append(row_index)
        left_iter = enumerate(left_keys[0])
    else:
        for row_index, key in enumerate(zip(*right_keys)):
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row_index]
            else:
                bucket.append(row_index)
        left_iter = enumerate(zip(*left_keys))

    left_pos = {var: i for i, var in enumerate(left.vars)}
    right_pos = {var: i for i, var in enumerate(right.vars)}
    if condition is not None:
        # With bound keys the joined row is the left row plus the right
        # row's own variables, which is how ``out_vars`` is laid out.
        left_rows = list(_iter_id_rows(left))
        own = [right.columns[right_pos[var]] for var in out_vars[len(left.vars) :]]
        own_rows = list(zip(*own)) if own else [()] * len(right)

    left_indexes: list[int] = []
    right_indexes: list[int] = []  # -1 marks an unmatched (padded) left row
    get = index.get
    limit = runtime.max_rows
    for left_index, key in left_iter:
        bucket = get(key)
        if bucket is not None and condition is not None:
            left_row = left_rows[left_index]
            bucket = [i for i in bucket if condition(left_row + own_rows[i])]
        if bucket:
            left_indexes.extend([left_index] * len(bucket))
            right_indexes.extend(bucket)
        else:
            left_indexes.append(left_index)
            right_indexes.append(-1)
        if limit is not None and len(left_indexes) > limit:
            runtime.overflow(len(left_indexes))

    columns: list[Column] = []
    for var in out_vars:
        if var in left_pos:
            column = left.columns[left_pos[var]]
            columns.append([column[i] for i in left_indexes])
        else:
            column = right.columns[right_pos[var]]
            columns.append([column[i] if i >= 0 else None for i in right_indexes])
    return columns, len(left_indexes)


def _general_left_join(
    left, right, shared, out_vars, runtime, condition
) -> tuple[list[Column], int]:
    table, wildcard_rows = _build_hash_table(right, shared)
    right_rows = list(_iter_id_rows(right))
    left_key_indexes = [left.vars.index(var) for var in shared]
    pad = (None,) * (len(out_vars) - len(left.vars))
    left_vars, right_vars = left.vars, right.vars

    rows: list[tuple] = []
    limit = runtime.max_rows
    for left_row in _iter_id_rows(left):
        key = tuple(left_row[i] for i in left_key_indexes)
        if None in key:
            candidates = right_rows
        elif wildcard_rows:
            candidates = list(table.get(key, ())) + wildcard_rows
        else:
            candidates = table.get(key, ())
        matched = False
        for right_row in candidates:
            merged = _merge_compatible(
                left_vars, left_row, right_vars, right_row, out_vars
            )
            if merged is not None and (condition is None or condition(merged)):
                rows.append(merged)
                matched = True
        if not matched:
            rows.append(left_row + pad)
        if limit is not None and len(rows) > limit:
            runtime.overflow(len(rows))
    return _rows_to_columns(rows, len(out_vars)), len(rows)


# --------------------------------------------------------------- algebra


def union(left, right, out_vars) -> tuple[list[Column], int]:
    """Multiset union, aligning schemas (missing vars become unbound)."""
    runtime = _RUNTIME_STACK[-1]
    left_len, right_len = len(left), len(right)
    total = left_len + right_len
    if runtime.max_rows is not None and total > runtime.max_rows:
        runtime.overflow(total)
    left_pos = {var: i for i, var in enumerate(left.vars)}
    right_pos = {var: i for i, var in enumerate(right.vars)}
    columns: list[Column] = []
    for var in out_vars:
        left_part = (
            list(left.columns[left_pos[var]]) if var in left_pos else [None] * left_len
        )
        if var in right_pos:
            left_part.extend(right.columns[right_pos[var]])
        else:
            left_part.extend([None] * right_len)
        columns.append(left_part)
    runtime.counters.rows_emitted += total
    return columns, total


def project(relation, variables) -> tuple[list[Column], int]:
    """Column selection; unknown variables become all-``None`` columns."""
    length = len(relation)
    positions = {var: i for i, var in enumerate(relation.vars)}
    columns = [
        list(relation.columns[positions[var]]) if var in positions else [None] * length
        for var in variables
    ]
    return columns, length


def distinct(relation) -> tuple[list[Column], int]:
    """Order-preserving deduplication over id rows."""
    columns = relation.columns
    if len(columns) == 1:
        # dict preserves insertion order; single-column keys need no tuple.
        kept = list(dict.fromkeys(columns[0]))
        return [kept], len(kept)
    seen: set = set()
    keep: list[int] = []
    add = seen.add
    for index, row in enumerate(_iter_id_rows(relation)):
        if row not in seen:
            add(row)
            keep.append(index)
    if not columns:
        return [], min(len(relation), 1)
    return [[column[i] for i in keep] for column in columns], len(keep)


# ------------------------------------------------------------- internals


def _build_hash_table(relation, shared):
    """Hash id rows by join key; unbound-key rows go to a wildcard list."""
    key_indexes = [relation.vars.index(var) for var in shared]
    table: dict[tuple, list[tuple]] = {}
    wildcard_rows: list[tuple] = []
    for row in _iter_id_rows(relation):
        key = tuple(row[i] for i in key_indexes)
        if None in key:
            wildcard_rows.append(row)
        else:
            table.setdefault(key, []).append(row)
    return table, wildcard_rows


def _merge_compatible(left_vars, left_row, right_vars, right_row, out_vars):
    """Merge two id rows if compatible on every shared variable."""
    merged: dict = dict(zip(left_vars, left_row))
    for var, value in zip(right_vars, right_row):
        existing = merged.get(var)
        if existing is None:
            merged[var] = value
        elif value is not None and existing != value:
            return None
    return tuple(merged.get(var) for var in out_vars)
