"""Group-pattern interpretation over a :class:`~repro.store.TripleStore`:
the correctness oracle for the compiled endpoint plans.

Nothing in production imports this module (a tier-1 test walks ``src/``
to check it): endpoints answer every request through
:mod:`repro.sparql.plan`.  It stays under ``src/`` only because
:mod:`repro.sparql` re-exports :func:`evaluate_select` /
:func:`evaluate_ask` / :func:`evaluate` for the performance ledger's
answer check and for the tests, which compare compiled plans and all
five federated engines against it.

What is interpreted here is *group structure*, re-derived on every
request: basic graph patterns by index nested-loop joins in the greedy
order of :func:`~repro.sparql.plan.pick_next_pattern`, FILTER at the end
of its group, OPTIONAL as a left join, UNION as multiset union, VALUES
as an inline relation, sub-SELECT evaluated once and joined, then
ORDER BY / projection / DISTINCT / LIMIT / OFFSET and COUNT.
*Expression* semantics are not: FILTER tests and ORDER BY keys are the
closures of :mod:`repro.sparql.expressions`, the same ones the plans
run, compiled against the variables of the expression at hand.

Solutions are ``dict[Variable, int]`` over the store's dictionary ids
(unbound variables absent); terms are decoded once, when the
:class:`~repro.sparql.result.SelectResult` is built.
"""

from __future__ import annotations

from repro.exceptions import EvaluationError
from repro.rdf.terms import Variable, typed_literal
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    AskQuery,
    BGP,
    ExistsExpr,
    Expression,
    Filter,
    GroupPattern,
    OptionalPattern,
    PatternNode,
    Query,
    SelectQuery,
    SubSelect,
    UnionPattern,
    ValuesPattern,
)
from repro.sparql.expressions import compile_filter, compile_order_key
from repro.sparql.plan import pick_next_pattern
from repro.sparql.result import SelectResult
from repro.store.triple_store import TripleStore

#: Solution shape: variables bound to dictionary ids.
IdSolution = dict[Variable, int]


class _Evaluator:
    """Evaluates one query against one store, in id space."""

    def __init__(self, store: TripleStore):
        self.store = store
        self.dictionary = store.dictionary
        # Sub-SELECTs are uncorrelated with the outer bindings except
        # through the join on shared variables, so each is evaluated
        # once per query (an EXISTS re-enters its group per solution).
        self._subselect_cache: dict[SelectQuery, list[list[tuple]]] = {}
        # VALUES rows are encoded once per block, not once per solution.
        self._values_cache: dict[ValuesPattern, list[list[tuple]]] = {}
        # A FILTER compiles once per query: OPTIONAL re-enters its group
        # once per outer solution.
        self._filters: dict[Expression, tuple] = {}

    # ----------------------------------------------------------- patterns

    def eval_group(self, group: GroupPattern, solutions: list[IdSolution]) -> list[IdSolution]:
        """Evaluate a group graph pattern given incoming id solutions."""
        filters: list[Filter] = []
        current = solutions
        for element in group.elements:
            if isinstance(element, Filter):
                filters.append(element)
            else:
                current = self._eval_element(element, current)
        for filter_node in filters:
            variables, passes = self._compiled_filter(filter_node.expression)
            current = [
                solution
                for solution in current
                if passes(tuple(map(solution.get, variables)))
            ]
        return current

    def _eval_element(self, element: PatternNode, solutions: list[IdSolution]) -> list[IdSolution]:
        if isinstance(element, BGP):
            return self._eval_bgp(list(element.triples), solutions)
        if isinstance(element, GroupPattern):
            return self.eval_group(element, solutions)
        if isinstance(element, OptionalPattern):
            return self._eval_optional(element, solutions)
        if isinstance(element, UnionPattern):
            merged: list[IdSolution] = []
            for branch in element.branches:
                merged.extend(self.eval_group(branch, solutions))
            return merged
        if isinstance(element, ValuesPattern):
            return self._join_values(element, solutions)
        if isinstance(element, SubSelect):
            return self._join_subselect(element, solutions)
        raise EvaluationError(f"cannot evaluate pattern node {element!r}")

    # ---------------------------------------------------------------- BGP

    def _eval_bgp(self, patterns: list[TriplePattern], solutions: list[IdSolution]) -> list[IdSolution]:
        if not patterns:
            return solutions
        # Run the whole BGP on positional id rows: variables become column
        # slots once, so the per-candidate work inside `_extend_rows` is
        # pure tuple indexing and int comparison — no per-pattern dict
        # copies.  Convert back to keyed solutions only at the boundary.
        schema: list[Variable] = []
        seen: set[Variable] = set()
        for solution in solutions:
            for var in solution:
                if var not in seen:
                    seen.add(var)
                    schema.append(var)
        rows = [tuple(solution.get(var) for var in schema) for solution in solutions]
        remaining = list(patterns)
        bound_vars = set(seen)
        while remaining:
            index = pick_next_pattern(self.store, remaining, bound_vars)
            pattern = remaining.pop(index)
            schema, rows = self._extend_rows(pattern, schema, rows)
            bound_vars |= pattern.variables()
            if not rows:
                return []
        return [
            {var: value for var, value in zip(schema, row) if value is not None}
            for row in rows
        ]

    def _extend_rows(
        self, pattern: TriplePattern, schema: list[Variable], rows: list[tuple]
    ) -> tuple[list[Variable], list[tuple]]:
        """Join one triple pattern into positional id rows over ``schema``.

        The pattern is compiled once against the schema: each position
        becomes a constant id, a slot of an already-bound variable, or a
        fresh output column.  A concrete term missing from the dictionary
        cannot occur in the data, so the pattern is dead.
        """
        lookup = self.dictionary.lookup
        slot_of = {var: index for index, var in enumerate(schema)}
        out_schema = list(schema)
        consts: list[int | None] = [None, None, None]
        slots: list[int | None] = [None, None, None]
        new_positions: list[int] = []  # triple components that bind new columns
        eq_checks: list[tuple[int, int]] = []  # repeated fresh variable in-pattern
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
                    out_schema.append(position)
            else:
                term_id = lookup(position)
                if term_id is None:
                    return out_schema, []
                consts[index] = term_id
        s_const, p_const, o_const = consts
        s_slot, p_slot, o_slot = slots
        # Memoize index lookups on the lookup key: many rows share the
        # same join-variable values (e.g. a VALUES block binding one
        # variable to few distinct terms).
        match_ids = self.store.match_ids
        match_cache: dict[tuple, list[tuple]] = {}
        extended: list[tuple] = []
        for row in rows:
            s = s_const if s_slot is None else row[s_slot]
            p = p_const if p_slot is None else row[p_slot]
            o = o_const if o_slot is None else row[o_slot]
            key = (s, p, o)
            matches = match_cache.get(key)
            if matches is None:
                matches = list(match_ids(s, p, o))
                if eq_checks:
                    matches = [
                        m for m in matches if all(m[i] == m[j] for i, j in eq_checks)
                    ]
                match_cache[key] = matches
            # A bound slot holding None means this row leaves that
            # variable unbound (e.g. VALUES UNDEF): the match must be
            # written back into the slot, not just appended.
            pending = [
                (index, slot)
                for index, slot in ((0, s_slot), (1, p_slot), (2, o_slot))
                if slot is not None and row[slot] is None
            ]
            if not pending:
                # Bound slots were substituted into the index lookup, so
                # every match is consistent with them by construction.
                for match in matches:
                    extended.append(row + tuple(match[i] for i in new_positions))
            else:
                for match in matches:
                    patched = list(row)
                    consistent = True
                    for index, slot in pending:
                        value = match[index]
                        existing = patched[slot]
                        if existing is None:
                            patched[slot] = value
                        elif existing != value:
                            consistent = False
                            break
                    if consistent:
                        extended.append(
                            tuple(patched) + tuple(match[i] for i in new_positions)
                        )
        return out_schema, extended

    # ----------------------------------------------------------- OPTIONAL

    def _eval_optional(
        self, element: OptionalPattern, solutions: list[IdSolution]
    ) -> list[IdSolution]:
        result: list[IdSolution] = []
        for solution in solutions:
            matches = self.eval_group(element.pattern, [dict(solution)])
            if matches:
                result.extend(matches)
            else:
                result.append(solution)
        return result

    # ------------------------------------------------------------- VALUES

    def _join_values(self, element: ValuesPattern, solutions: list[IdSolution]) -> list[IdSolution]:
        rows = self._values_cache.get(element)
        if rows is None:
            # VALUES terms come from the query text, not the data, so they
            # are interned: a fresh id still never equals any data id, and
            # the row can be projected out even when it joins nothing.
            # UNDEF binds nothing: it is left out of the row.
            encode = self.dictionary.encode
            rows = self._values_cache[element] = [
                [(var, encode(term)) for var, term in zip(element.vars, row) if term is not None]
                for row in element.rows
            ]
        return _join(solutions, rows)

    # ---------------------------------------------------------- SubSelect

    def _join_subselect(self, element: SubSelect, solutions: list[IdSolution]) -> list[IdSolution]:
        rows = self._subselect_cache.get(element.query)
        if rows is None:
            vars, id_rows = self._select_id_result(element.query)
            rows = self._subselect_cache[element.query] = [
                [(var, value) for var, value in zip(vars, row) if value is not None]
                for row in id_rows
            ]
        return _join(solutions, rows)

    # ------------------------------------------------------------- SELECT

    def _select_id_result(
        self, query: SelectQuery
    ) -> tuple[tuple[Variable, ...], list[tuple[int | None, ...]]]:
        """Evaluate a SELECT fully in id space: schema plus id rows.

        Applies aggregation, or ORDER BY, projection, DISTINCT and
        OFFSET/LIMIT in that order.  DISTINCT and COUNT DISTINCT compare
        ids — the dictionary is injective, so id equality *is* term
        equality.
        """
        solutions = self.eval_group(query.where, [{}])

        if query.aggregate is not None:
            aggregate = query.aggregate
            if aggregate.variable is None:
                count = len(solutions)
            else:
                values = [s[aggregate.variable] for s in solutions if aggregate.variable in s]
                count = len(set(values)) if aggregate.distinct else len(values)
            # The count is a one-row solution sequence under OFFSET / LIMIT.
            stop = None if query.limit is None else query.offset + query.limit
            rows = [(self.dictionary.encode(typed_literal(count)),)]
            return (aggregate.alias,), rows[query.offset : stop]

        if query.order_by:
            # ORDER BY sees the whole solution, before projection (§15).
            variables, slots = _layout(
                condition.expression for condition in query.order_by
            )
            key = compile_order_key(
                query.order_by, slots, self.dictionary, self._exists_hook(variables)
            )
            solutions = sorted(
                solutions, key=lambda solution: key(tuple(map(solution.get, variables)))
            )

        projected = query.projected_variables()
        rows = [tuple(solution.get(variable) for variable in projected) for solution in solutions]

        if query.distinct:
            rows = list(dict.fromkeys(rows))
        if query.offset:
            rows = rows[query.offset:]
        if query.limit is not None:
            rows = rows[: query.limit]
        return projected, rows

    # ------------------------------------------------------------ filters

    def _compiled_filter(self, expression: Expression) -> tuple:
        """``(variables, passes)``: the expression's closure over an id
        row laid out by ``variables`` (read off a solution per call)."""
        found = self._filters.get(expression)
        if found is None:
            variables, slots = _layout([expression])
            compiled = compile_filter(
                expression, slots, self.dictionary, self._exists_hook(variables)
            )
            found = self._filters[expression] = (variables, compiled.passes)
        return found

    def _exists_hook(self, variables: tuple[Variable, ...]):
        """EXISTS by interpretation: the row — laid out by ``variables``,
        a superset of the pattern's own — seeds the inner group."""

        def compile_exists(node: ExistsExpr):
            def exists(row: tuple) -> bool:
                seed = {
                    variable: value
                    for variable, value in zip(variables, row)
                    if value is not None
                }
                return bool(self.eval_group(node.pattern, [seed])) != node.negated

            return exists

        return compile_exists


def _join(solutions: list[IdSolution], rows: list[list[tuple]]) -> list[IdSolution]:
    """Nested-loop join of ``solutions`` with rows of ``(variable, id)``
    pairs under SPARQL compatibility: a variable bound on both sides
    must agree.  The plans' hash index on the shared variables is what
    this oracle checks, not what it needs."""
    joined = []
    for solution in solutions:
        for pairs in rows:
            merged = dict(solution)
            if all(merged.setdefault(var, value) == value for var, value in pairs):
                joined.append(merged)
    return joined


def _layout(expressions) -> tuple[tuple[Variable, ...], dict[Variable, int]]:
    """A row layout covering every variable of ``expressions``."""
    found: set[Variable] = set()
    for expression in expressions:
        found |= expression.variables()
    variables = tuple(sorted(found, key=lambda variable: variable.name))
    return variables, {variable: slot for slot, variable in enumerate(variables)}


# --------------------------------------------------------------------------
# Public entry points


def evaluate_select(store: TripleStore, query: SelectQuery) -> SelectResult:
    """Evaluate a SELECT query and materialize the result.

    The whole pipeline runs in id space; this is the single place where
    ids are decoded back to terms — the endpoint's encode/decode boundary.
    """
    evaluator = _Evaluator(store)
    projected, id_rows = evaluator._select_id_result(query)
    decode_row = store.dictionary.decode_row
    return SelectResult(projected, [decode_row(row) for row in id_rows])


def evaluate_ask(store: TripleStore, query: AskQuery) -> bool:
    """Evaluate an ASK query."""
    return bool(_Evaluator(store).eval_group(query.where, [{}]))


def evaluate(store: TripleStore, query: Query):
    """Evaluate any supported query; returns SelectResult or bool."""
    if isinstance(query, SelectQuery):
        return evaluate_select(store, query)
    if isinstance(query, AskQuery):
        return evaluate_ask(store, query)
    raise EvaluationError(f"unsupported query type {type(query).__name__}")
