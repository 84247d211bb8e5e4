"""Compiled physical plans for the endpoint query engine.

Lusail's hot path hammers endpoints with *repeated query skeletons*:
block-wise bound joins re-issue the same subquery once per VALUES block,
and check / COUNT probes share shapes across pattern pairs.  Deriving
pattern order, filter placement and projection wiring per request would
be pure overhead, so this module compiles a query **once** into an
explicit operator pipeline that can be executed many times:

* the BGP probe sequence is fixed at compile time by greedy
  statistics-driven ordering (:func:`pick_next_pattern`);
* FILTERs are compiled by :mod:`repro.sparql.expressions` into closures
  over id rows and pushed down to the earliest operator at which all
  their variables are *certainly* bound; pure equality comparisons
  against non-numeric constants run directly in id space;
* OPTIONAL / UNION / sub-SELECT compile to composed sub-plans;
* ORDER BY (a compiled sort key over the *pre-projection* row, SPARQL
  §15), projection, DISTINCT and LIMIT/OFFSET form the pipeline tail;
* top-level VALUES clauses compile to **parameter slots**: an endpoint
  can strip the rows off a bound-join request
  (:func:`split_parameters`), look the remaining skeleton up in its
  plan cache, and bind the new block into the already-compiled plan.

Operators exchange *positional id rows*: tuples aligned to a
compile-time variable schema, with ``None`` marking an unbound slot
(OPTIONAL / UNDEF).  All joins and comparisons are on dictionary ids;
terms are decoded only where an expression operator inspects a value.
The final :class:`~repro.sparql.result.SelectResult` stays encoded too —
id columns plus the store's dictionary — and decodes only if a caller
asks for its ``rows``.

Each operator has one body, ``run_batches``: row lists in, non-empty
row lists out.  Plans differ only in how far they are drained.  A batch
plan moves one list through each operator (the bound-join hot path) and
is drained whole.  In a lazy plan (ASK, EXISTS, LIMIT without ORDER BY)
probes read index streams in chunks of 1, 2, 4, … up to
:data:`LAZY_CHUNK_LIMIT` matches and hand on each chunk, so draining
stops after the first batch (:meth:`_GroupPlan.matches`) or at LIMIT.

Compiled plans are pinned to the store's data ``version``: pattern order
and statistics choices are only valid while the data is unchanged, so
caches must drop plans whose :attr:`CompiledPlan.valid` is False.

Nothing here is interpretive per row or per request.  The group
interpreter in :mod:`repro.sparql.evaluator` is the correctness oracle
only — this module does not import it — and property tests assert
compiled results match it on randomized queries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import itemgetter
from typing import Iterator, Sequence

from repro.exceptions import EvaluationError
from repro.rdf.terms import Variable, typed_literal
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    AskQuery,
    BGP,
    BooleanOp,
    ExistsExpr,
    Expression,
    Filter,
    GroupPattern,
    Not,
    OptionalPattern,
    Query,
    SelectQuery,
    SubSelect,
    UnionPattern,
    ValuesPattern,
)
from repro.sparql.expressions import compile_filter, compile_order_key
from repro.sparql.result import SelectResult
from repro.store.triple_store import TripleStore

#: An id row: ints (bound), None (unbound), positions fixed by a schema.
IdRow = tuple
#: The seed relation: one empty row over the empty schema.
_SEED = ((),)
#: The largest chunk a lazy probe reads: chunks start at one match, so
#: the first solution costs one per probe, and double from there.
LAZY_CHUNK_LIMIT = 64


# --------------------------------------------------------------------------
# Parameter slots: VALUES rows in/out of a query skeleton


def split_parameters(query: Query) -> tuple[Query, tuple]:
    """Strip top-level VALUES rows out of ``query``.

    Returns ``(skeleton, params)`` where the skeleton replaces every
    VALUES clause directly under the WHERE group with an empty-row
    placeholder and ``params`` holds the stripped row blocks in order.
    The skeleton is the plan-cache key: every bound-join block issued
    for the same subquery shares it.
    """
    where = query.where
    if not any(isinstance(el, ValuesPattern) for el in where.elements):
        return query, ()
    elements: list = []
    params: list[tuple] = []
    for element in where.elements:
        if isinstance(element, ValuesPattern):
            params.append(element.rows)
            elements.append(ValuesPattern(element.vars, ()))
        else:
            elements.append(element)
    return _replace_where(query, GroupPattern(elements)), tuple(params)


def _replace_where(query: Query, where: GroupPattern) -> Query:
    if isinstance(query, AskQuery):
        return AskQuery(where)
    return SelectQuery(
        where=where,
        select_vars=query.select_vars,
        distinct=query.distinct,
        aggregate=query.aggregate,
        order_by=query.order_by,
        limit=query.limit,
        offset=query.offset,
    )


# --------------------------------------------------------------------------
# Execution context: per-execution state over a shared compiled plan


class _ExecutionContext:
    """Mutable per-execution state; the compiled plan itself is immutable.

    Holds the encoded parameter blocks and per-operator scratch state
    (materialized sub-selects).  Expressions need nothing from it: their
    closures are part of the plan.
    """

    __slots__ = ("store", "dictionary", "param_rows", "_state")

    def __init__(self, store: TripleStore, param_rows: tuple = ()):
        self.store = store
        self.dictionary = store.dictionary
        self.param_rows = param_rows
        self._state: dict[int, dict] = {}

    def state(self, op) -> dict:
        state = self._state.get(id(op))
        if state is None:
            state = self._state[id(op)] = {}
        return state


# --------------------------------------------------------------------------
# Pattern ordering


def pick_next_pattern(
    store: TripleStore, patterns: Sequence[TriplePattern], bound: set[Variable]
) -> int:
    """Greedy ordering: prefer patterns connected to bound variables,
    then lower estimated cardinality, then fewer variables.

    The plan compiler runs it once per BGP at compile time; the oracle
    interpreter re-runs it per request — both must order identically.
    """
    best_index = 0
    best_key: tuple | None = None
    for index, pattern in enumerate(patterns):
        connected = bool(pattern.variables() & bound) or not bound
        estimate = estimate_pattern(store, pattern, bound)
        key = (0 if connected else 1, estimate, pattern.selectivity_class())
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
    return best_index


def estimate_pattern(
    store: TripleStore, pattern: TriplePattern, bound: set[Variable]
) -> int:
    """Cardinality estimate treating bound variables as constants."""
    s = pattern.subject if not isinstance(pattern.subject, Variable) else None
    p = pattern.predicate if not isinstance(pattern.predicate, Variable) else None
    o = pattern.object if not isinstance(pattern.object, Variable) else None
    if isinstance(pattern.subject, Variable) and pattern.subject in bound:
        # A bound join variable will be a constant at match time; assume
        # it is as selective as a concrete subject.
        return 1 + (store.predicate_count(p) if p is not None else 0) // max(
            1, store.distinct_subjects(p) if p is not None else 1
        )
    if s is None and o is None:
        if p is None:
            return len(store)
        return store.predicate_count(p)
    return store.count(s, p, o)


# --------------------------------------------------------------------------
# Operators


def _drain(batches) -> list:
    """Every row of ``batches`` in one list; a lone batch is returned as
    is, without a copy."""
    batches = list(batches)
    return batches[0] if len(batches) == 1 else list(chain.from_iterable(batches))


def _merge_into(out: list, row: IdRow, pad: list, candidates, pairs) -> None:
    """Append ``row``, widened by ``pad``, joined with each compatible
    candidate row: a ``(column, target)`` pair copies the candidate's
    column into the target slot, and ``None`` on either side (unbound)
    matches anything."""
    for candidate in candidates:
        merged = list(row) + pad
        for col, target in pairs:
            value = candidate[col]
            if value is None:
                continue
            existing = merged[target]
            if existing is None:
                merged[target] = value
            elif existing != value:
                break
        else:
            out.append(tuple(merged))


class _ProbeOp:
    """One triple-pattern index probe, compiled against the row schema.

    Each position is a constant id, a slot of an already-bound column,
    or a fresh output column.  ``maybe_pending`` lists bound slots whose
    column is nullable (OPTIONAL / UNDEF upstream): a ``None`` there
    means the match must be written back into the slot.  In the default
    (cached) mode, matches are memoized per lookup key **on the plan
    itself** — the plan is pinned to one store version, so memos can
    never go stale within its lifetime, and bound-join blocks that share
    join-variable values (same advisor, same course) reuse them across
    executions.  In ``lazy`` mode the probe reads the index iterator in
    growing chunks and hands rows on after each, so ASK / LIMIT /
    EXISTS consumers stop after the first match.
    """

    #: Match memos are cleared past this many distinct lookup keys; a
    #: plain clear keeps the hot path branch-free (no LRU bookkeeping).
    MATCH_CACHE_LIMIT = 65536

    __slots__ = (
        "consts",
        "slots",
        "new_positions",
        "eq_checks",
        "maybe_pending",
        "lazy",
        "base",
        "estimate",
        "pattern_text",
        "_n_new",
        "_first_new",
        "_extract",
        "_match_cache",
    )

    def __init__(self, consts, slots, new_positions, eq_checks, maybe_pending, lazy, base):
        self.consts = consts
        self.slots = slots
        self.new_positions = tuple(new_positions)
        self.eq_checks = eq_checks
        self.maybe_pending = maybe_pending
        self.lazy = lazy
        #: Width of the rows this probe reads; its fresh columns follow.
        self.base = base
        # Compile-time ordering estimate (expected matches per input
        # row) and the source pattern, kept for the EXPLAIN ANALYZE
        # probe-order audit; filled in by the compiler's BGP walk.
        self.estimate: int | None = None
        self.pattern_text = ""
        self._n_new = len(self.new_positions)
        self._first_new = self.new_positions[0] if self.new_positions else None
        self._extract = itemgetter(*self.new_positions) if self._n_new >= 2 else None
        self._match_cache: dict | None = None if lazy else {}

    def _stream(self, match_ids, s, p, o):
        """The index matches of one lookup, repeated variables checked."""
        matches = match_ids(s, p, o)
        eq_checks = self.eq_checks
        if eq_checks:
            matches = (m for m in matches if all(m[i] == m[j] for i, j in eq_checks))
        return matches

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        s_const, p_const, o_const = self.consts
        s_slot, p_slot, o_slot = self.slots
        match_ids = ctx.store.match_ids
        maybe_pending = self.maybe_pending
        new_positions = self.new_positions
        n_new = self._n_new
        first_new = self._first_new
        extract = self._extract
        match_cache = self._match_cache
        stream = None  # a lazy probe's open index stream
        for rows in batches:
            out: list = []
            for row in rows:
                s = s_const if s_slot is None else row[s_slot]
                p = p_const if p_slot is None else row[p_slot]
                o = o_const if o_slot is None else row[o_slot]
                if match_cache is None:
                    stream = self._stream(match_ids, s, p, o)
                    size = 1
                    matches = list(islice(stream, size))
                    if not matches:
                        continue
                else:
                    key = (s, p, o)
                    matches = match_cache.get(key)
                    if matches is None:
                        matches = list(self._stream(match_ids, s, p, o))
                        if len(match_cache) >= self.MATCH_CACHE_LIMIT:
                            match_cache.clear()
                        match_cache[key] = matches
                    if not matches:
                        continue
                pending = maybe_pending and [
                    (i, slot) for i, slot in maybe_pending if row[slot] is None
                ]
                # One pass per match list: the memoised list, or each
                # chunk of a lazy stream — 1, 2, 4, … matches up to
                # LAZY_CHUNK_LIMIT — handed on as soon as it is read.
                while True:
                    if pending:
                        for match in matches:
                            patched = list(row)
                            for i, slot in pending:
                                value = match[i]
                                existing = patched[slot]
                                if existing is None:
                                    patched[slot] = value
                                elif existing != value:
                                    break
                            else:
                                out.append(
                                    tuple(patched) + tuple(match[i] for i in new_positions)
                                )
                    elif n_new == 1:
                        out.extend([row + (m[first_new],) for m in matches])
                    elif n_new == 0:
                        out.extend([row] * len(matches))
                    elif n_new == 3:
                        out.extend([row + m for m in matches])
                    else:
                        out.extend([row + extract(m) for m in matches])
                    if stream is None:
                        break
                    if out:
                        yield out
                        out = []
                    size = min(2 * size, LAZY_CHUNK_LIMIT)
                    matches = list(islice(stream, size))
                    if not matches:
                        break
            if out:
                yield out

    def describe(self) -> str:
        return "probe(lazy)" if self.lazy else "probe"


def _range_finder(store: TripleStore, op: _ProbeOp, position: int):
    """``row -> (values, lo, hi)``: the ascending ids that can stand at
    ``position`` (0 subject, 2 object) of ``op``'s pattern once its
    constant predicate and its other position — the *key*, a constant or
    a column of ``row`` — are fixed.  One store lookup per distinct key
    (:meth:`TripleStore.subject_range` / ``object_range``)."""
    lookup = store.subject_range if position == 0 else store.object_range
    predicate = op.consts[1]
    key_slot = op.slots[2 - position]
    if key_slot is None:
        found = lookup(predicate, op.consts[2 - position])
        return lambda row: found
    ranges: dict = {}

    def find(row):
        key = row[key_slot]
        found = ranges.get(key)
        if found is None:
            found = ranges[key] = lookup(predicate, key)
        return found

    return find


def _span(found: tuple) -> int:
    """Length of a ``(values, lo, hi)`` candidate range."""
    return found[2] - found[1]


class _SemiJoinOp(_ProbeOp):
    """A probe that binds nothing new, run as a semi-join.

    The compiler picks this kernel from the probe's shape alone: constant
    predicate, subject and object each a constant or a certainly bound
    column (at least one column, none twice), in a pipeline that runs
    list-at-a-time (:attr:`_Compiler.batch`).  Such a
    probe only keeps or drops rows, so it filters its input list in
    order: one sorted run range per distinct key, one ``bisect`` per row
    inside it — no match lists, nothing memoised.  Of two columns the
    later-bound one is tested: it varies fastest down a pipeline, which
    leaves the fewest distinct keys to look up.
    """

    __slots__ = ("test_position", "test_slot")

    def __init__(self, consts, slots, base):
        super().__init__(consts, slots, (), (), (), False, base)
        s_slot, _, o_slot = slots
        tests_subject = o_slot is None or (s_slot is not None and s_slot > o_slot)
        self.test_position = 0 if tests_subject else 2
        self.test_slot = slots[self.test_position]

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        test_slot = self.test_slot
        for rows in batches:
            find = _range_finder(ctx.store, self, self.test_position)
            out: list = []
            for row in rows:
                values, lo, hi = find(row)
                value = row[test_slot]
                at = bisect_left(values, value, lo, hi)
                if at < hi and values[at] == value:
                    out.append(row)
            if out:
                yield out

    def describe(self) -> str:
        return "semijoin"


class _IntersectOp:
    """One variable bound by several patterns at once.

    Fuses a probe that binds exactly one new variable with the
    semi-joins on that variable that directly follow it (:func:`_fuse`).
    Per input row every member pattern names an ascending candidate
    range for the variable; the step walks the smallest and tests the
    others, most selective first, by ``bisect`` — the variable-at-a-time
    step of a leapfrog join.  All ranges being ascending, it emits
    exactly the rows expand-then-check emits, in the same order.
    ``members`` stay runnable one by one: the probe audit reports them
    per pattern.
    """

    __slots__ = ("members", "_positions")

    def __init__(self, members):
        self.members = tuple(members)
        first, *checks = self.members
        self._positions = (first.new_positions[0], *(op.test_position for op in checks))

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        for rows in batches:
            finders = [
                _range_finder(ctx.store, member, position)
                for member, position in zip(self.members, self._positions)
            ]
            out: list = []
            for row in rows:
                (values, lo, hi), *others = sorted([find(row) for find in finders], key=_span)
                found = values[lo:hi]
                for other, start, stop in others:
                    if not found:
                        break
                    # Candidates ascend, so the tested range only shrinks:
                    # nothing in it lies above the last candidate, and each
                    # search starts where the previous one ended.
                    stop = bisect_right(other, found[-1], start, stop)
                    found = [
                        value
                        for value in found
                        if (start := bisect_left(other, value, start, stop)) < stop
                        and other[start] == value
                    ]
                out.extend([row + (value,) for value in found])
            if out:
                yield out

    def describe(self) -> str:
        return f"intersect[{' & '.join(op.pattern_text for op in self.members)}]"


def _fuse(ops: list) -> list:
    """Fold each probe that binds one variable (constant predicate, the
    third position a constant or a certainly bound column), plus the
    semi-joins on that variable right behind it, into an
    :class:`_IntersectOp`.  Runs on the final operator list, so a filter
    placed between two probes keeps them apart and sees the rows it saw
    before."""
    fused: list = []
    index = 0
    while index < len(ops):
        op = ops[index]
        index += 1
        if (
            isinstance(op, _ProbeOp)
            and op.consts[1] is not None
            and op.new_positions in ((0,), (2,))
            and not op.eq_checks
            and not op.maybe_pending
        ):
            end = index
            while (
                end < len(ops)
                and isinstance(ops[end], _SemiJoinOp)
                and ops[end].test_slot == op.base
            ):
                end += 1
            if end > index:
                op = _IntersectOp([op, *ops[index:end]])
                index = end
        fused.append(op)
    return fused


class _ValuesOp:
    """A VALUES join.  Fixed rows are encoded once at compile time; a
    parameter slot reads the per-execution block from the context.  When
    VALUES leads the pipeline and binds only fresh columns — the
    bound-join hot path — the encoded block passes through untouched.
    """

    __slots__ = ("slot", "fixed_rows", "pairs", "n_new", "passthrough")

    def __init__(self, slot, fixed_rows, targets, n_new, passthrough):
        self.slot = slot
        self.fixed_rows = fixed_rows
        #: ``(value column, row slot)`` per VALUES variable.
        self.pairs = tuple(enumerate(targets))
        self.n_new = n_new
        self.passthrough = passthrough

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        vrows = self.fixed_rows if self.slot is None else ctx.param_rows[self.slot]
        pairs = self.pairs
        pad = [None] * self.n_new
        for rows in batches:
            if self.passthrough:
                # The usual shape: VALUES leads the pipeline, seeded by
                # the single empty row — the encoded block IS the output.
                out = list(vrows * len(rows))
            else:
                out = []
                for row in rows:
                    _merge_into(out, row, pad, vrows, pairs)
            if out:
                yield out

    def describe(self) -> str:
        return "values(param)" if self.slot is not None else "values"


class _FilterOp:
    """A FILTER as a closure over the id row, built by
    :func:`repro.sparql.expressions.compile_filter` when the plan was
    compiled: variables are slot reads, an error drops the row.
    ``label`` names the kernel the compile step chose: ``filter``, or
    ``id_eq(=)`` / ``id_eq(!=)`` for one comparison of ids."""

    __slots__ = ("passes", "label")

    def __init__(self, passes, label: str = "filter"):
        self.passes = passes
        self.label = label

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        passes = self.passes
        for rows in batches:
            out = list(filter(passes, rows))
            if out:
                yield out

    def describe(self) -> str:
        return self.label


class _ExistsFilterOp:
    """``FILTER [NOT] EXISTS { ... }`` via a compiled lazy sub-plan:
    each row seeds the sub-plan and only its first batch is taken."""

    __slots__ = ("plan", "negated")

    def __init__(self, plan, negated):
        self.plan = plan
        self.negated = negated

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        matches = self.plan.matches
        negated = self.negated
        for rows in batches:
            out = [row for row in rows if matches(ctx, row) != negated]
            if out:
                yield out

    def describe(self) -> str:
        tag = "not_exists" if self.negated else "exists"
        return f"{tag}[{', '.join(self.plan.describe())}]"


class _OptionalOp:
    """Left join: each row runs the sub-plan; on no match the row is
    padded with ``None`` for the sub-plan's fresh columns."""

    __slots__ = ("plan", "pad")

    def __init__(self, plan, pad):
        self.plan = plan
        self.pad = pad

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        run = self.plan.run_batches
        pad = self.pad
        for rows in batches:
            out: list = []
            for row in rows:
                matched = _drain(run(ctx, ([row],)))
                if matched:
                    out.extend(matched)
                else:
                    out.append(row + pad)
            if out:
                yield out

    def describe(self) -> str:
        return f"optional[{', '.join(self.plan.describe())}]"


class _UnionOp:
    """Multiset union, branch-major like the evaluator: the input is
    materialized once, then each branch consumes it in turn.  Branch
    output rows are remapped onto the union schema when needed."""

    __slots__ = ("branches",)

    def __init__(self, branches):
        self.branches = branches

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        rows = _drain(batches)
        if not rows:
            return
        for plan, out_map in self.branches:
            for brows in plan.run_batches(ctx, (rows,)):
                if out_map is not None:
                    brows = [
                        tuple(None if i is None else brow[i] for i in out_map) for brow in brows
                    ]
                yield brows

    def describe(self) -> str:
        inner = " | ".join(", ".join(plan.describe()) for plan, _ in self.branches)
        return f"union[{inner}]"


class _GroupOp:
    """A nested group graph pattern as one operator."""

    __slots__ = ("plan",)

    def __init__(self, plan):
        self.plan = plan

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        return self.plan.run_batches(ctx, batches)

    def describe(self) -> str:
        return f"group[{', '.join(self.plan.describe())}]"


class _SubSelectOp:
    """Join with an uncorrelated sub-SELECT.  The inner plan runs once
    per execution; a hash index on the shared (key) columns is built
    alongside, mirroring the evaluator's per-query sub-select cache.
    Inner rows with an unbound key column (OPTIONAL / UNDEF inside the
    sub-select) stay out of the index: they are compatible with any
    outer key, so every outer row also scans them."""

    __slots__ = ("core", "key_slots", "key_cols", "targets", "n_new")

    def __init__(self, core, key_slots, key_cols, targets, n_new):
        self.core = core
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.targets = targets
        self.n_new = n_new

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        key_slots = self.key_slots
        targets = self.targets
        pad = [None] * self.n_new
        state = ctx.state(self)
        for rows in batches:
            if not state:
                inner_rows = self.core.id_result(ctx)
                index: dict = {}
                loose: list = []
                for irow in inner_rows:
                    key = tuple(irow[c] for c in self.key_cols)
                    if None in key:
                        loose.append(irow)
                    else:
                        index.setdefault(key, []).append(irow)
                state["inner"] = (inner_rows, index, loose)
            inner_rows, index, loose = state["inner"]
            out: list = []
            for row in rows:
                key = tuple(row[i] for i in key_slots)
                if None in key:
                    candidates = inner_rows
                else:
                    candidates = chain(index.get(key, ()), loose)
                _merge_into(out, row, pad, candidates, targets)
            if out:
                yield out

    def describe(self) -> str:
        return "subselect"


class _GroupPlan:
    """A compiled group: an operator chain plus its output schema and
    the set of columns certainly bound in every output row."""

    __slots__ = ("ops", "out_schema", "out_certain")

    def __init__(self, ops, out_schema, out_certain):
        self.ops = ops
        self.out_schema = out_schema
        self.out_certain = out_certain

    def run_batches(self, ctx: _ExecutionContext, batches) -> Iterator[list]:
        for op in self.ops:
            batches = op.run_batches(ctx, batches)
        return iter(batches)

    def matches(self, ctx: _ExecutionContext, row: IdRow) -> bool:
        """Whether ``row`` extends to a solution: the plan is drained to
        its first batch, which no operator yields empty."""
        return next(self.run_batches(ctx, ([row],)), None) is not None

    def describe(self) -> list[str]:
        return [op.describe() for op in self.ops]


def _distinct_rows(rows) -> Iterator[IdRow]:
    seen: set = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


# --------------------------------------------------------------------------
# Compiler


class _Compiler:
    """Compiles AST pattern nodes to operator chains.

    Tracks two facts per column while walking the group: the schema
    (column order, fixed by the same greedy pattern ordering the
    evaluator uses) and *certainty* — whether every surviving row is
    guaranteed a non-None value in that column.  Certainty is what makes
    filter pushdown safe: a filter may run as soon as all its variables
    are certainly bound, because from that operator on its verdict can
    never change.
    """

    def __init__(
        self, store: TripleStore, lazy: bool = False, nullable=frozenset(), batch: bool = True
    ):
        self.store = store
        self.dictionary = store.dictionary
        self.lazy = lazy
        #: Whether the compiled operators receive whole row lists.  The
        #: semi-join and intersect kernels pay one range lookup per
        #: distinct key per batch, which only a long list amortises: lazy
        #: plans move small chunks and OPTIONAL sub-plans one row at a
        #: time, where the generic probe's plan-lifetime memo is the
        #: better kernel.
        self.batch = batch and not lazy
        #: ``(parameter slot, column)`` pairs whose bound blocks may hold
        #: UNDEF; every other parameter column is certainly bound.
        self.nullable = nullable

    # ------------------------------------------------------------- groups

    def compile_group(
        self,
        group: GroupPattern,
        in_schema: tuple,
        in_certain: frozenset,
        param_slots: dict[int, int] | None = None,
    ) -> _GroupPlan:
        schema: list[Variable] = list(in_schema)
        certain: set[Variable] = set(in_certain)
        ops: list = []
        # timeline[k] = the certainly-bound set *before* operator k;
        # a filter whose variables are all in timeline[k] is pushed to
        # run just before operator k.
        timeline: list[set[Variable]] = [set(certain)]
        filters: list[Filter] = []
        for element in group.elements:
            if isinstance(element, Filter):
                filters.append(element)
            elif isinstance(element, BGP):
                self._compile_bgp(element, schema, certain, ops, timeline)
            elif isinstance(element, GroupPattern):
                sub = self.compile_group(element, tuple(schema), frozenset(certain))
                ops.append(_GroupOp(sub))
                schema[:] = sub.out_schema
                certain = set(sub.out_certain)
                timeline.append(set(certain))
            elif isinstance(element, OptionalPattern):
                sub = _Compiler(self.store, self.lazy, batch=False).compile_group(
                    element.pattern, tuple(schema), frozenset(certain)
                )
                new = sub.out_schema[len(schema):]
                ops.append(_OptionalOp(sub, (None,) * len(new)))
                schema.extend(new)
                # A left join adds columns but never certainty.
                timeline.append(set(certain))
            elif isinstance(element, UnionPattern):
                op, out_schema, out_certain = self._compile_union(
                    element, tuple(schema), frozenset(certain)
                )
                ops.append(op)
                schema[:] = out_schema
                certain = set(out_certain)
                timeline.append(set(certain))
            elif isinstance(element, ValuesPattern):
                slot = None if param_slots is None else param_slots.get(id(element))
                self._compile_values(element, slot, schema, certain, ops)
                timeline.append(set(certain))
            elif isinstance(element, SubSelect):
                self._compile_subselect(element, schema, certain, ops)
                timeline.append(set(certain))
            else:
                raise EvaluationError(f"cannot compile pattern node {element!r}")
        final_ops = self._place_filters(
            ops, timeline, filters, tuple(schema), frozenset(certain)
        )
        return _GroupPlan(tuple(_fuse(final_ops)), tuple(schema), frozenset(certain))

    # ---------------------------------------------------------------- BGP

    def _compile_bgp(self, element, schema, certain, ops, timeline) -> None:
        remaining = list(element.triples)
        # Ordering treats every schema column as bound, exactly as the
        # evaluator treats every solution key; ties and estimates use
        # the shared pick_next_pattern so both engines order alike.
        bound = set(schema)
        while remaining:
            index = pick_next_pattern(self.store, remaining, bound)
            pattern = remaining.pop(index)
            op = self._compile_probe(pattern, schema, certain)
            op.estimate = estimate_pattern(self.store, pattern, bound)
            op.pattern_text = pattern.n3()
            ops.append(op)
            bound |= pattern.variables()
            timeline.append(set(certain))

    def _compile_probe(self, pattern: TriplePattern, schema, certain) -> _ProbeOp:
        slot_of = {var: i for i, var in enumerate(schema)}
        base = len(schema)
        consts: list = [None, None, None]
        slots: list = [None, None, None]
        new_positions: list[int] = []
        eq_checks: list[tuple[int, int]] = []
        first_new: dict[Variable, int] = {}
        for index, position in enumerate(pattern.positions()):
            if isinstance(position, Variable):
                slot = slot_of.get(position)
                if slot is not None:
                    slots[index] = slot
                elif position in first_new:
                    eq_checks.append((first_new[position], index))
                else:
                    first_new[position] = index
                    new_positions.append(index)
                    schema.append(position)
            else:
                # encode (not lookup): a term absent from the data gets a
                # fresh id that matches nothing in the indexes, which is
                # exactly the evaluator's dead-pattern outcome — and the
                # id stays valid for the plan's whole cached lifetime.
                consts[index] = self.dictionary.encode(position)
        maybe_pending = tuple(
            (index, slot)
            for index, slot in ((0, slots[0]), (1, slots[1]), (2, slots[2]))
            if slot is not None and schema[slot] not in certain
        )
        # After the probe every pattern variable is bound in every
        # surviving row: consts matched, slots substituted or patched,
        # fresh columns filled from the match.
        certain.update(pattern.variables())
        if (
            self.batch
            and not new_positions
            and not maybe_pending
            and consts[1] is not None
            and slots[0] != slots[2]
        ):
            op = _SemiJoinOp(tuple(consts), tuple(slots), base)
        else:
            op = _ProbeOp(
                tuple(consts),
                tuple(slots),
                tuple(new_positions),
                tuple(eq_checks),
                maybe_pending,
                self.lazy,
                base,
            )
        return op

    # ------------------------------------------------------------- VALUES

    def _compile_values(self, element, slot, schema, certain, ops) -> None:
        targets: list[int] = []
        local: dict[Variable, int] = {}
        base = len(schema)
        new_vars: list[Variable] = []
        for var in element.vars:
            index = local.get(var)
            if index is None:
                slot_of = {v: i for i, v in enumerate(schema)}
                index = slot_of.get(var)
            if index is None:
                index = len(schema)
                new_vars.append(var)
                schema.append(var)
            local[var] = index
            targets.append(index)
        if slot is None:
            encode = self.dictionary.encode
            fixed_rows = tuple(
                tuple(None if value is None else encode(value) for value in row)
                for row in element.rows
            )
            # A column with no UNDEF makes its variable certain.
            for j, var in enumerate(element.vars):
                if all(row[j] is not None for row in fixed_rows):
                    certain.add(var)
        else:
            fixed_rows = ()
            certain.update(
                var
                for j, var in enumerate(element.vars)
                if (slot, j) not in self.nullable
            )
        passthrough = base == 0 and targets == list(range(len(element.vars)))
        ops.append(
            _ValuesOp(slot, fixed_rows, tuple(targets), len(new_vars), passthrough)
        )

    # -------------------------------------------------------------- UNION

    def _compile_union(self, element, in_schema, in_certain):
        compiled = [
            self.compile_group(branch, in_schema, in_certain)
            for branch in element.branches
        ]
        out_schema = list(in_schema)
        known = set(in_schema)
        for sub in compiled:
            for var in sub.out_schema[len(in_schema):]:
                if var not in known:
                    known.add(var)
                    out_schema.append(var)
        branches = []
        for sub in compiled:
            if list(sub.out_schema) == out_schema:
                out_map = None
            else:
                pos = {var: i for i, var in enumerate(sub.out_schema)}
                out_map = tuple(pos.get(var) for var in out_schema)
            branches.append((sub, out_map))
        # Certain only if certain down every branch.
        out_certain = set(compiled[0].out_certain)
        for sub in compiled[1:]:
            out_certain &= sub.out_certain
        return _UnionOp(tuple(branches)), out_schema, out_certain

    # ---------------------------------------------------------- SubSelect

    def _compile_subselect(self, element, schema, certain, ops) -> None:
        core = _Compiler(self.store, lazy=False).compile_select(element.query)
        inner_vars = core.projected
        key_vars = tuple(
            sorted(set(schema) & set(inner_vars), key=lambda v: v.name)
        )
        slot_of = {var: i for i, var in enumerate(schema)}
        inner_pos = {var: i for i, var in enumerate(inner_vars)}
        key_slots = tuple(slot_of[v] for v in key_vars)
        key_cols = tuple(inner_pos[v] for v in key_vars)
        targets = []
        n_new = 0
        for col, var in enumerate(inner_vars):
            target = slot_of.get(var)
            if target is None:
                target = len(schema)
                schema.append(var)
                n_new += 1
            targets.append((col, target))
        for var in inner_vars:
            if var in core.certain_projected:
                certain.add(var)
        ops.append(_SubSelectOp(core, key_slots, key_cols, tuple(targets), n_new))

    # ------------------------------------------------------------ filters

    def _place_filters(self, ops, timeline, filters, schema, certain_final):
        parts: list[Expression] = []
        for filter_node in filters:
            parts.extend(_split_conjunction(filter_node.expression))
        placements: list[list] = [[] for _ in range(len(ops) + 1)]
        for expression in parts:
            op, position = self._compile_filter(
                expression, schema, timeline, certain_final
            )
            placements[position].append(op)
        final: list = []
        for index, op in enumerate(ops):
            final.extend(placements[index])
            final.append(op)
        final.extend(placements[len(ops)])
        return final

    def _compile_filter(self, expression, schema, timeline, certain_final):
        end = len(timeline) - 1
        # EXISTS (and !EXISTS) keep group-end semantics: they see the
        # complete row, and a compiled lazy sub-plan takes only the
        # first inner solution per row.
        exists = _as_exists(expression)
        if exists is not None:
            pattern, negated = exists
            sub = self._compile_exists(pattern, schema, certain_final)
            return _ExistsFilterOp(sub, negated), end
        slot_of = {var: i for i, var in enumerate(schema)}
        passes, kind, anchored = compile_filter(
            expression, slot_of, self.dictionary, self._exists_hook(schema, certain_final)
        )
        if anchored:
            # BOUND / nested EXISTS verdicts depend on *when* they run;
            # only the group end sees the complete row.
            return _FilterOp(passes), end
        variables = expression.variables()
        for position, known in enumerate(timeline):
            if variables <= known:
                return _FilterOp(passes, kind), position
        # Never certainly bound: evaluate at group end, where a
        # still-unbound variable is an expression error and drops the row.
        return _FilterOp(passes), end

    def _compile_exists(self, pattern, schema, certain) -> _GroupPlan:
        return _Compiler(self.store, lazy=True).compile_group(pattern, schema, certain)

    def _exists_hook(self, schema, certain):
        """The ``exists`` hook for an expression over ``schema`` rows: an
        EXISTS nested inside it compiles to the lazy take-first sub-plan
        a top-level one gets.  The sub-plan runs under a context of its
        own that lives as long as the plan, like the probes' match
        memos: nested groups hold no parameter slot, so nothing in it
        depends on the execution."""

        def nested_exists(node: ExistsExpr):
            sub = self._compile_exists(node.pattern, schema, certain)
            ctx = _ExecutionContext(self.store)
            negated = node.negated
            return lambda row: sub.matches(ctx, row) != negated

        return nested_exists

    # ------------------------------------------------------------- SELECT

    def compile_select(
        self, query: SelectQuery, param_slots: dict[int, int] | None = None
    ) -> "_SelectCore":
        plan = self.compile_group(query.where, (), frozenset(), param_slots)
        schema = plan.out_schema
        if query.aggregate is not None:
            aggregate = query.aggregate
            agg_slot = None
            if aggregate.variable is not None and aggregate.variable in schema:
                agg_slot = schema.index(aggregate.variable)
            return _SelectCore(
                plan,
                projected=(aggregate.alias,),
                aggregate=aggregate,
                agg_slot=agg_slot,
                limit=query.limit,
                offset=query.offset,
                certain_projected=frozenset((aggregate.alias,)),
            )
        projected = query.projected_variables()
        pos = {var: i for i, var in enumerate(schema)}
        proj_map = tuple(pos.get(var) for var in projected)
        identity = proj_map == tuple(range(len(schema)))
        # ORDER BY sorts the pipeline's rows, before projection, so a key
        # may read a variable the SELECT list drops (SPARQL §15).
        order_key = None
        if query.order_by:
            order_key = compile_order_key(
                query.order_by, pos, self.dictionary, self._exists_hook(schema, plan.out_certain)
            )
        return _SelectCore(
            plan,
            projected=projected,
            proj_map=proj_map,
            identity=identity,
            distinct=query.distinct,
            order_key=order_key,
            limit=query.limit,
            offset=query.offset,
            certain_projected=frozenset(
                var for var in projected if var in plan.out_certain
            ),
        )

    def compile_ask(
        self, query: AskQuery, param_slots: dict[int, int] | None = None
    ) -> "_SelectCore":
        return _SelectCore(self.compile_group(query.where, (), frozenset(), param_slots))


def _split_conjunction(expression: Expression) -> list[Expression]:
    """Flatten top-level && into independent filters.

    Safe at the top of a FILTER: ``a && b`` keeps a row only when both
    operands are true — a false or erroring operand drops it either way
    — which is exactly two consecutive FILTERs.
    """
    if isinstance(expression, BooleanOp) and expression.op == "&&":
        parts: list[Expression] = []
        for operand in expression.operands:
            parts.extend(_split_conjunction(operand))
        return parts
    return [expression]


def _as_exists(expression: Expression):
    """(pattern, negated) if the expression is (possibly negated) EXISTS."""
    if isinstance(expression, ExistsExpr):
        return expression.pattern, expression.negated
    if isinstance(expression, Not) and isinstance(expression.operand, ExistsExpr):
        inner = expression.operand
        return inner.pattern, not inner.negated
    return None


# --------------------------------------------------------------------------
# Pipeline tail: aggregation / projection / DISTINCT / ORDER BY / slice


def _gather(rows: list, slots) -> list[list]:
    """One column per slot of ``rows`` (``None`` slot: all unbound)."""
    return [
        [None] * len(rows) if slot is None else list(map(itemgetter(slot), rows))
        for slot in slots
    ]


class _SelectCore:
    """The compiled WHERE pipeline plus the solution-modifier tail."""

    __slots__ = (
        "plan",
        "aggregate",
        "agg_slot",
        "projected",
        "proj_map",
        "identity",
        "distinct",
        "order_key",
        "limit",
        "offset",
        "certain_projected",
        "no_tail",
    )

    def __init__(
        self,
        plan,
        projected=(),
        proj_map=(),
        identity=False,
        aggregate=None,
        agg_slot=None,
        distinct=False,
        order_key=None,
        limit=None,
        offset=0,
        certain_projected=frozenset(),
    ):
        self.plan = plan
        self.aggregate = aggregate
        self.agg_slot = agg_slot
        self.projected = projected
        self.proj_map = proj_map
        self.identity = identity
        self.distinct = distinct
        #: ORDER BY as a sort key over *pipeline* rows
        #: (:func:`~repro.sparql.expressions.compile_order_key`), or ``None``.
        self.order_key = order_key
        self.limit = limit
        self.offset = offset
        self.certain_projected = certain_projected
        #: Nothing behind the pipeline: its rows are the result's rows.
        self.no_tail = not (
            aggregate is not None
            or distinct
            or order_key is not None
            or limit is not None
            or offset
        )

    def _project(self, rows) -> Iterator[IdRow]:
        """Pipeline rows onto the projected schema, streaming."""
        if self.identity:
            return rows
        proj_map = self.proj_map
        return (
            tuple(None if i is None else row[i] for i in proj_map) for row in rows
        )

    def _aggregate_rows(self, ctx: _ExecutionContext, rows: list) -> list:
        """COUNT tail over raw (unprojected) pipeline rows."""
        aggregate = self.aggregate
        if aggregate.variable is None:
            count = len(rows)
        elif self.agg_slot is None:
            count = 0
        else:
            slot = self.agg_slot
            values = [row[slot] for row in rows if row[slot] is not None]
            count = len(set(values)) if aggregate.distinct else len(values)
        return [(ctx.dictionary.encode(typed_literal(count)),)]

    def _finish(self, rows, max_rows: int | None) -> list:
        """DISTINCT / slice tail over projected rows.  It streams, so
        LIMIT (and the endpoint's result_limit via ``max_rows``) stops a
        lazy pipeline early."""
        if self.distinct:
            rows = _distinct_rows(rows)
        stop = self.limit
        if max_rows is not None:
            stop = max_rows if stop is None else min(stop, max_rows)
        if self.offset or stop is not None:
            rows = islice(
                rows, self.offset, None if stop is None else self.offset + stop
            )
        return list(rows)

    def id_result(self, ctx: _ExecutionContext, max_rows: int | None = None) -> list:
        """The projected id rows, in SPARQL's clause order: ORDER BY,
        projection, DISTINCT, OFFSET / LIMIT."""
        batches = self.plan.run_batches(ctx, (_SEED,))
        if self.aggregate is not None:
            # The count is a one-row solution sequence: OFFSET / LIMIT
            # apply to it like to any other.
            return self._finish(self._aggregate_rows(ctx, _drain(batches)), max_rows)
        # Rows are drained only as far as the tail reads them, so LIMIT
        # stops a lazy plan early.
        rows = chain.from_iterable(batches)
        if self.order_key is not None:
            rows = sorted(rows, key=self.order_key)
        return self._finish(self._project(rows), max_rows)

    def id_columns(
        self, ctx: _ExecutionContext, max_rows: int | None = None
    ) -> tuple[list[list], int]:
        """The result column-major: one id list per projected variable,
        plus the row count.

        With nothing behind the pipeline (no aggregate / DISTINCT /
        ORDER BY / slice / row cap) the columns are gathered straight
        from the pipeline's rows; no projected row tuple is ever built.
        """
        if self.no_tail and max_rows is None:
            rows = _drain(self.plan.run_batches(ctx, (_SEED,)))
            return _gather(rows, self.proj_map), len(rows)
        rows = self.id_result(ctx, max_rows)
        return _gather(rows, range(len(self.projected))), len(rows)

    def ask(self, ctx: _ExecutionContext) -> bool:
        return self.plan.matches(ctx, ())


# --------------------------------------------------------------------------
# Public API


class CompiledPlan:
    """A query compiled against one store, executable many times.

    ``params`` to the execute methods supplies one block of term rows
    per parameter slot (top-level VALUES clause, in order); omitted, the
    rows the query was compiled with are used.  :attr:`core` assumes
    every parameter column is bound; a block whose rows contain UNDEF
    runs a variant compiled, on first need, for exactly the columns that
    hold one (:meth:`_bind`).
    """

    __slots__ = (
        "store",
        "query",
        "core",
        "_nullable_cores",
        "param_specs",
        "default_params",
        "store_version",
        "is_ask",
    )

    def __init__(self, store, query, core, param_specs, default_params, is_ask):
        self.store = store
        self.query = query
        self.core = core
        self._nullable_cores: dict[frozenset, _SelectCore] = {}
        self.param_specs = param_specs
        self.default_params = default_params
        self.store_version = store.version
        self.is_ask = is_ask

    @property
    def valid(self) -> bool:
        """False once the store mutated after compilation."""
        return self.store.version == self.store_version

    def explain(self) -> list[str]:
        """Operator chain of the WHERE pipeline, for tests and debugging."""
        return self.core.plan.describe()

    def audit_probes(self, params=None) -> list[dict]:
        """Estimate-vs-actual audit of the top-level probe chain.

        Re-runs the WHERE pipeline op by op with materialized
        intermediates and reports, per probe, the compiler's ordering
        estimate against the measured matches-per-input-row.  Pure
        local re-execution: no store mutation, no cache-counter
        traffic, so the EXPLAIN ANALYZE layer can call it without
        perturbing plan-cache statistics or virtual time.
        """
        core, ctx = self._bind(params)
        records: list[dict] = []
        rows = list(_SEED)
        # An intersect step is audited member by member: one record per
        # pattern, with the rows each pattern saw on its own.
        steps = [
            step
            for op in core.plan.ops
            for step in (op.members if isinstance(op, _IntersectOp) else (op,))
        ]
        for op in steps:
            n_in = len(rows)
            if not n_in:
                break
            rows = _drain(op.run_batches(ctx, (rows,)))
            if isinstance(op, _ProbeOp) and op.estimate is not None:
                records.append(
                    {
                        "pattern": op.pattern_text,
                        "estimated": float(op.estimate),
                        "actual": len(rows) / n_in,
                        "input_rows": n_in,
                        "output_rows": len(rows),
                    }
                )
        return records

    # ---------------------------------------------------------- execution

    def execute(self, params=None, max_rows: int | None = None):
        if self.is_ask:
            return self.execute_ask(params)
        return self.execute_select(params, max_rows=max_rows)

    def execute_select(self, params=None, max_rows: int | None = None) -> SelectResult:
        """The encoded result: id columns plus the store's dictionary."""
        core, ctx = self._bind(params)
        columns, length = core.id_columns(ctx, max_rows)
        return SelectResult.encoded(core.projected, columns, length, self.store.dictionary)

    def execute_ask(self, params=None) -> bool:
        core, ctx = self._bind(params)
        return core.ask(ctx)

    # ------------------------------------------------------------- params

    def _resolve_params(self, params) -> tuple:
        if params is None:
            return self.default_params
        params = tuple(tuple(tuple(row) for row in block) for block in params)
        if len(params) != len(self.param_specs):
            raise EvaluationError(
                f"plan expects {len(self.param_specs)} parameter blocks, "
                f"got {len(params)}"
            )
        for vars, block in zip(self.param_specs, params):
            for row in block:
                if len(row) != len(vars):
                    raise EvaluationError(
                        f"parameter row arity {len(row)} != {len(vars)}"
                    )
        return params

    def _bind(self, params) -> tuple["_SelectCore", _ExecutionContext]:
        """The core that fits ``params`` and a context over its encoding.

        Which parameter columns hold UNDEF is read off the block itself:
        none selects :attr:`core`; otherwise those columns key a variant
        that treats just them as possibly unbound.
        """
        params = self._resolve_params(params)
        dictionary = self.store.dictionary
        if not any(None in row for block in params for row in block):
            encode = dictionary.encode
            rows = tuple(
                tuple(tuple(map(encode, row)) for row in block) for block in params
            )
            return self.core, _ExecutionContext(self.store, rows)
        nullable = frozenset(
            (slot, j)
            for slot, block in enumerate(params)
            for row in block
            for j, value in enumerate(row)
            if value is None
        )
        core = self._nullable_cores.get(nullable)
        if core is None:
            core = _compile_core(self.store, self.query, nullable)
            self._nullable_cores[nullable] = core
        encode_row = dictionary.encode_row
        rows = tuple(tuple(map(encode_row, block)) for block in params)
        return core, _ExecutionContext(self.store, rows)


def _compile_core(store: TripleStore, query: Query, nullable=frozenset()) -> _SelectCore:
    """Compile ``query`` with its top-level VALUES as parameter slots."""
    param_slots: dict[int, int] = {}
    for element in query.where.elements:
        if isinstance(element, ValuesPattern):
            param_slots[id(element)] = len(param_slots)
    if isinstance(query, AskQuery):
        # ASK wants one solution: stream every probe.
        return _Compiler(store, True, nullable).compile_ask(query, param_slots)
    if isinstance(query, SelectQuery):
        # LIMIT without ORDER BY / aggregation can stop the pipeline as
        # soon as enough rows exist, so probes stream instead of
        # memoizing full match lists.
        lazy = (
            query.limit is not None
            and not query.order_by
            and query.aggregate is None
        )
        return _Compiler(store, lazy, nullable).compile_select(query, param_slots)
    raise EvaluationError(f"unsupported query type {type(query).__name__}")


def compile_query(store: TripleStore, query: Query) -> CompiledPlan:
    """Compile ``query`` into a reusable physical plan over ``store``.

    Top-level VALUES clauses become parameter slots; their current rows
    become the plan's default parameters, so ``compile_query(q).execute()``
    is a drop-in for ``evaluate(store, q)``.
    """
    slots = [el for el in query.where.elements if isinstance(el, ValuesPattern)]
    return CompiledPlan(
        store,
        query,
        _compile_core(store, query),
        tuple(el.vars for el in slots),
        tuple(el.rows for el in slots),
        isinstance(query, AskQuery),
    )
