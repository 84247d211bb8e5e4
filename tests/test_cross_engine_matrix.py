"""The full correctness matrix: every engine x every benchmark workload.

Each cell asserts exact (bag-semantics) agreement with the centralized
union-graph oracle.  This is the broadest single guarantee in the suite:
all five engines implement the same query semantics over all four
benchmark families.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.baselines import AnapsidEngine, FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets import bio2rdf, lubm, qfed, queries_largerdf, queries_lubm
from repro.sparql import evaluate_select, parse_query
from tests.conftest import oracle_rows
from tests.test_examples import load_example

ENGINES = {
    "Lusail": LusailEngine,
    "FedX": FedXEngine,
    "HiBISCuS": HibiscusEngine,
    "SPLENDID": SplendidEngine,
    "ANAPSID": AnapsidEngine,
}


@pytest.fixture(scope="module")
def workloads(lubm2, qfed_federation, largerdf_federation):
    bio_federation = bio2rdf.build_federation(seed=7)
    lubm_texts = dict(queries_lubm.queries())
    lubm_texts.update(lubm.queries())
    lubm_texts["nested-group"] = _UB + (
        "SELECT ?x ?y ?c ?u WHERE { { ?x ub:advisor ?y "
        "{ ?y ub:teacherOf ?c . ?x ub:takesCourse ?c } } "
        "OPTIONAL { ?y ub:doctoralDegreeFrom ?u } }"
    )
    return {
        "lubm": (lubm2, lubm_texts),
        "qfed": (qfed_federation, {**qfed.queries(), "Drug": qfed.drug_query()}),
        "largerdf": (largerdf_federation, queries_largerdf.paper_selection()),
        "bio2rdf": (bio_federation, bio2rdf.queries()),
    }


@pytest.fixture(scope="module")
def oracles(workloads):
    cache: dict[tuple[str, str], tuple[Counter, Counter | None, int]] = {}
    for family, (federation, texts) in workloads.items():
        union = federation.union_store()
        for name, text in texts.items():
            query = parse_query(text)
            exact = Counter(evaluate_select(union, query).rows)
            if query.limit is not None and not query.order_by:
                # LIMIT without ORDER BY: any `limit` valid rows are a
                # correct answer; keep the unlimited row set for the
                # subset check.
                from repro.sparql.ast import SelectQuery

                unlimited = SelectQuery(
                    where=query.where,
                    select_vars=query.select_vars,
                    distinct=query.distinct,
                    aggregate=query.aggregate,
                    order_by=query.order_by,
                    limit=None,
                    offset=0,
                )
                full = Counter(evaluate_select(union, unlimited).rows)
                cache[(family, name)] = (exact, full, query.limit)
            else:
                cache[(family, name)] = (exact, None, 0)
    return cache


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("family", ["lubm", "qfed", "largerdf", "bio2rdf"])
def test_engine_matches_oracle_on_family(engine_name, family, workloads, oracles):
    federation, texts = workloads[family]
    engine = ENGINES[engine_name](federation)
    mismatches = []
    for name, text in texts.items():
        outcome = engine.execute(text)
        if not outcome.ok:
            mismatches.append(f"{name}: {outcome.status} ({outcome.error})")
            continue
        exact, full, limit = oracles[(family, name)]
        got = Counter(outcome.result.rows)
        if full is not None:
            # LIMIT without ORDER BY: correct iff `limit` rows (or all,
            # if fewer exist), each drawn from the unlimited answer.
            expected_count = min(limit, sum(full.values()))
            ok = sum(got.values()) == expected_count and all(
                full.get(row, 0) >= count for row, count in got.items()
            )
        else:
            ok = got == exact
        if not ok:
            mismatches.append(
                f"{name}: {len(outcome.result)} rows vs oracle {sum(exact.values())}"
            )
    assert not mismatches, f"{engine_name} on {family}: {mismatches}"


_UB = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
#: One body every endpoint answers alone (a student's own courses) and
#: one whose join crosses endpoints (advisors' degrees from elsewhere).
_COUNT_BODIES = {
    "local": "?x ub:advisor ?y . ?x ub:takesCourse ?z",
    "crossing": "?x ub:advisor ?y . ?y ub:doctoralDegreeFrom ?z",
}
_COUNT_FORMS = ["COUNT(*)", "COUNT(?y)", "COUNT(DISTINCT ?y)"]
#: LUBM Q5's shape: the last join fans out (one university, all of its
#: graduate students), so the mediator hands ``_finalize`` a relation
#: still held as join runs.
_FANOUT_BODY = (
    "?y a ub:FullProfessor . ?y ub:doctoralDegreeFrom ?u . ?z ub:subOrganizationOf ?u . "
    "?x ub:memberOf ?z . ?x a ub:GraduateStudent"
)
_BODIES = {**_COUNT_BODIES, "fanout": _FANOUT_BODY}


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("form", _COUNT_FORMS)
@pytest.mark.parametrize("body", sorted(_COUNT_BODIES))
def test_count_is_applied_once_at_the_mediator(engine_name, form, body, lubm2):
    text = f"{_UB}SELECT ({form} AS ?n) WHERE {{ {_COUNT_BODIES[body]} }}"
    expected = oracle_rows(lubm2, text)
    assert len(expected) == 1 and int(expected[0][0].value) > 0
    outcome = ENGINES[engine_name](lubm2).execute(text)
    assert outcome.ok, outcome.error
    assert [v.name for v in outcome.result.vars] == ["n"]
    assert outcome.result.rows == expected


def test_count_forms_differ_and_empty_counts_zero(lubm2):
    """DISTINCT and bound-only counting are visible in the data, and a
    pattern no endpoint holds counts to one ``0`` row, not to no row."""
    counts = {}
    for form in _COUNT_FORMS + ["COUNT(?nowhere)"]:
        text = f"{_UB}SELECT ({form} AS ?n) WHERE {{ {_COUNT_BODIES['crossing']} }}"
        counts[form] = int(LusailEngine(lubm2).execute(text).result.rows[0][0].value)
    assert counts["COUNT(*)"] == counts["COUNT(?y)"] > counts["COUNT(DISTINCT ?y)"] > 0
    assert counts["COUNT(?nowhere)"] == 0
    text = f"{_UB}SELECT (COUNT(*) AS ?n) WHERE {{ ?x ub:noSuchPredicate ?y }}"
    for engine in ENGINES.values():
        assert engine(lubm2).execute(text).result.rows == oracle_rows(lubm2, text)


#: Run in a fresh interpreter: every engine on random federations with a
#: BGP+OPTIONAL query (seed 6 is where HiBISCuS' pruning order used to
#: follow set iteration) and on the paper example; prints one outcome per
#: (engine, query) as JSON.
_OUTCOME_SCRIPT = """
import json
from collections import Counter
from repro.baselines import AnapsidEngine, FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailEngine
from repro.datasets.random_federation import (
    build_random_federation, build_random_optional_query,
)
from tests.conftest import QA, build_paper_federation

cases = [("paper", build_paper_federation(), QA)]
for seed in (3, 6, 11):
    federation = build_random_federation(seed)
    query = build_random_optional_query(seed, len(federation.names()))
    cases.append((f"random{seed}", federation, query))
outcomes = {}
for engine_class in (LusailEngine, FedXEngine, HibiscusEngine, SplendidEngine, AnapsidEngine):
    for name, federation, query in cases:
        outcome = engine_class(federation).execute(query)
        metrics = outcome.metrics
        rows = Counter(
            tuple("" if term is None else term.n3() for term in row)
            for row in outcome.result.rows
        )
        outcomes[f"{engine_class.name}/{name}"] = [
            outcome.status,
            repr(metrics.virtual_ms),
            sorted(metrics.requests_by_kind().items()),
            metrics.rows_shipped(),
            metrics.bytes_shipped(),
            sorted(rows.items()),
        ]
print(json.dumps(outcomes, sort_keys=True))
"""


def test_outcomes_do_not_depend_on_the_interpreter_hash_seed():
    """Requests, rows and virtual time are a function of query and data:
    the same mini-matrix in four fresh interpreters gives one outcome per
    (engine, query)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = []
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", _OUTCOME_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(completed.stdout))
    assert all(outcome[0] == "ok" for outcome in runs[0].values())
    for other in runs[1:]:
        differing = [key for key in runs[0] if runs[0][key] != other[key]]
        assert not differing, f"outcomes differ between interpreter runs: {differing}"


# --------------------------------------------------------------------------
# OFFSET / LIMIT: one window over the final solution sequence


def _sliced(body: str, head: str, tail: str) -> str:
    return f"{_UB}SELECT {head} WHERE {{ {_BODIES[body]} }} {tail}"


_WINDOWS = {"neither": "", "limit": "LIMIT 7", "offset": "OFFSET 5", "both": "LIMIT 7 OFFSET 5"}


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_window_is_the_oracles_rows_in_order(engine_name, window, lubm2):
    text = _sliced("crossing", "?x ?y ?z", f"ORDER BY ?x ?y ?z {_WINDOWS[window]}")
    expected = oracle_rows(lubm2, text)
    full = len(oracle_rows(lubm2, _sliced("crossing", "?x ?y ?z", "")))
    assert len(expected) == {"neither": full, "limit": 7, "offset": full - 5, "both": 7}[window]
    outcome = ENGINES[engine_name](lubm2).execute(text)
    assert outcome.ok, outcome.error
    assert outcome.result.rows == expected


def _finalize_decodes(engine, text, monkeypatch):
    """Execute ``text``; the outcome, one ``(seam, rows)`` per bulk row
    builder call ``_finalize`` made — ``decode_columns`` or, for a
    relation still held as join runs, ``decode_runs`` — and the number
    of calls made outside it (bound-join bindings decode too)."""
    from repro.planning.base_engine import FederatedEngine
    from repro.store.dictionary import TermDictionary

    decoded = []
    outside = []
    finalizing = []  # non-empty inside _finalize
    decode_columns, decode_runs = TermDictionary.decode_columns, TermDictionary.decode_runs
    finalize = FederatedEngine._finalize

    def counting_columns(self, columns):
        (decoded if finalizing else outside).append(("columns", len(columns[0])))
        return decode_columns(self, columns)

    def counting_runs(self, runs):
        (decoded if finalizing else outside).append(("runs", runs.length))
        return decode_runs(self, runs)

    def marking(self, relation, normalized):
        finalizing.append(True)
        try:
            return finalize(self, relation, normalized)
        finally:
            finalizing.pop()

    monkeypatch.setattr(TermDictionary, "decode_columns", counting_columns)
    monkeypatch.setattr(TermDictionary, "decode_runs", counting_runs)
    monkeypatch.setattr(FederatedEngine, "_finalize", marking)
    outcome = engine.execute(text)
    monkeypatch.undo()
    return outcome, decoded, len(outside)


def _window_of(full: list, window: str) -> list:
    stop = {"neither": None, "limit": 7, "offset": None, "both": 12}[window]
    return full[5 if "OFFSET" in _WINDOWS[window] else 0 : stop]


@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_only_the_returned_window_is_decoded(window, lubm2, monkeypatch):
    """``_finalize`` hands the bulk decoder the rows it returns — not
    the relation behind the OFFSET, not the rows past the LIMIT.  The
    query is local to each endpoint, so its answer is the two responses
    untranslated: one decode per response the window reaches, each by
    its endpoint's dictionary, and none before ``_finalize``."""
    engine = LusailEngine(lubm2)
    full = engine.execute(_sliced("crossing", "?x ?y ?z", "")).result.rows
    assert len(full) > 20
    outcome, decoded, outside = _finalize_decodes(
        engine, _sliced("crossing", "?x ?y ?z", _WINDOWS[window]), monkeypatch
    )
    expected = _window_of(full, window)
    assert outcome.result.rows == expected
    assert outside == 0
    assert {seam for seam, __ in decoded} == {"columns"}
    assert sum(rows for __, rows in decoded) == len(expected)


@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_a_window_over_join_runs_decodes_only_the_window(window, lubm2, monkeypatch):
    """The same when the final relation is still join runs: the whole
    answer is written from the runs, a window is one slice of the
    flattened id columns — never the 180 rows for 7 of them."""
    engine = LusailEngine(lubm2)
    full = engine.execute(_sliced("fanout", "?y ?u ?x", "")).result.rows
    assert len(full) > 20
    outcome, decoded, __ = _finalize_decodes(
        engine, _sliced("fanout", "?y ?u ?x", _WINDOWS[window]), monkeypatch
    )
    expected = _window_of(full, window)
    assert outcome.result.rows == expected
    assert decoded == [("runs" if window == "neither" else "columns", len(expected))]


# --------------------------------------------------------------------------
# A fan-out > 1 final join: the run writer beside every path that flattens


_FANOUT_FORMS = {
    "plain": ("?y ?u ?x", ""),
    "distinct": ("DISTINCT ?u ?x", ""),
    "order_by": ("?y ?u ?x", "ORDER BY ?x ?y ?u"),
    "limit": ("?y ?u ?x", "LIMIT 10"),
    "count": ("(COUNT(DISTINCT ?x) AS ?n)", ""),
}


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("form", sorted(_FANOUT_FORMS))
def test_fanout_final_join_matches_the_oracle(engine_name, form, lubm2):
    head, tail = _FANOUT_FORMS[form]
    text = _sliced("fanout", head, tail)
    outcome = ENGINES[engine_name](lubm2).execute(text)
    assert outcome.ok, outcome.error
    rows = outcome.result.rows
    if form == "limit":
        full = Counter(oracle_rows(lubm2, _sliced("fanout", head, "")))
        assert len(rows) == 10 and not Counter(rows) - full
    elif form == "order_by":
        assert rows == oracle_rows(lubm2, text)
    else:
        assert Counter(rows) == Counter(oracle_rows(lubm2, text))
        assert len(rows) > (1 if form != "count" else 0)


def test_the_fanout_answer_reaches_finalize_as_runs(lubm2, monkeypatch):
    """What makes the matrix above a test of the run writer: Lusail's
    last join on this body leaves more rows than runs."""
    from repro.planning.base_engine import FederatedEngine

    seen = []
    finalize = FederatedEngine._finalize

    def spying(self, relation, normalized):
        seen.append(relation.rows.runs)
        return finalize(self, relation, normalized)

    monkeypatch.setattr(FederatedEngine, "_finalize", spying)
    outcome = LusailEngine(lubm2).execute(_sliced("fanout", "?y ?u ?x", ""))
    (runs,) = seen
    assert runs is not None and runs.length == len(outcome.result) > len(runs.counts) > 0


# --------------------------------------------------------------------------
# COUNT under OFFSET / LIMIT: the modifiers apply to the one counted row


_COUNT_WINDOWS = {"LIMIT 0": 0, "LIMIT 1": 1, "OFFSET 1": 0, "LIMIT 1 OFFSET 1": 0}


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("window", sorted(_COUNT_WINDOWS))
@pytest.mark.parametrize("body", sorted(_COUNT_BODIES))
def test_count_row_is_windowed_like_any_solution(engine_name, window, body, lubm2):
    counted = LusailEngine(lubm2).execute(_sliced(body, "(COUNT(*) AS ?n)", "")).result.rows
    assert len(counted) == 1 and int(counted[0][0].value) > 1
    outcome = ENGINES[engine_name](lubm2).execute(_sliced(body, "(COUNT(*) AS ?n)", window))
    assert outcome.ok, outcome.error
    assert [v.name for v in outcome.result.vars] == ["n"]
    # A hand-written expectation: here the oracle cannot be its own judge.
    assert outcome.result.rows == counted[: _COUNT_WINDOWS[window]]


@pytest.mark.parametrize("window", sorted(_COUNT_WINDOWS))
def test_count_row_is_windowed_at_an_endpoint_and_in_the_oracle(window, lubm2):
    from repro.rdf.terms import typed_literal

    endpoint = lubm2.get(lubm2.names()[0])
    triples = len(endpoint.store)
    text = f"SELECT (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }} {window}"
    expected = [(typed_literal(triples),)][: _COUNT_WINDOWS[window]]
    assert endpoint.select(parse_query(text)).rows == expected
    assert evaluate_select(endpoint.store, parse_query(text)).rows == expected


# --------------------------------------------------------------------------
# FILTER inside OPTIONAL: the block's filter is the left-join condition


def _lusail(strategy):
    return lambda federation: LusailEngine(federation, config=LusailConfig(strategy=strategy))


#: Every engine, Lusail under both strategies (the OPTIONAL tail is shared).
_LEFT_JOINERS = {
    **{name: build for name, build in ENGINES.items() if name != "Lusail"},
    "Lusail/bound-join": _lusail("bound-join"),
    "Lusail/partial": _lusail("partial"),
}

#: Per placement: required patterns, the block's pattern, a condition the
#: block's own variables decide and one that reads an outer variable.
#: ``local``: is the course the student takes one the advisor teaches —
#: every endpoint answers alone.  ``crossing``: the name
#: of the advisor's doctoral university, kept where the student has a
#: degree from it — the name lives at the university's own endpoint.
_BLOCKS = {
    "local": (
        "?x ub:advisor ?y . ?x ub:takesCourse ?c",
        "?y ub:teacherOf ?z",
        'CONTAINS(STR(?z), "course0_")',
        "?z = ?c",
    ),
    "crossing": (
        "?x ub:advisor ?y . ?y ub:doctoralDegreeFrom ?u . ?x ub:undergraduateDegreeFrom ?v",
        "?u ub:name ?z",
        'STRENDS(?z, "0")',
        "?u = ?v",
    ),
}


def _block_filter_query(placement: str, form: str) -> str:
    required, block, inner, outer = _BLOCKS[placement]
    earlier = ""
    if form == "inner":
        tail = f"FILTER({inner})"
    elif form == "outer":
        tail = f"FILTER({outer})"
    elif form == "mixed":
        tail = f"FILTER({inner} && {outer})"
    elif form == "two-filters":
        tail = f"FILTER({inner}) FILTER({outer})"
    elif form == "bound-outer":
        # The outer variable is itself OPTIONAL: few advisors head a department.
        earlier = "OPTIONAL { ?y ub:headOf ?h } "
        tail = "FILTER(BOUND(?h))"
    else:  # the block can match nowhere; its filter must not drop a base row
        block, tail = "?y ub:noSuchPredicate ?z", f"FILTER({outer})"
    return f"{_UB}SELECT * WHERE {{ {required} {earlier}OPTIONAL {{ {block} {tail} }} }}"


_FILTER_FORMS = ["inner", "outer", "mixed", "two-filters", "bound-outer", "never-matches"]


@pytest.mark.parametrize("engine_name", sorted(_LEFT_JOINERS))
@pytest.mark.parametrize("form", _FILTER_FORMS)
@pytest.mark.parametrize("placement", sorted(_BLOCKS))
def test_block_filter_is_the_left_join_condition(engine_name, form, placement, lubm2):
    text = _block_filter_query(placement, form)
    expected = Counter(oracle_rows(lubm2, text))
    unextended = sum(count for row, count in expected.items() if row[-1] is None)
    if form == "never-matches":
        assert unextended == sum(expected.values()) > 0
    else:
        # The filter splits the base rows: some extended, some padded.
        assert 0 < unextended < sum(expected.values())
    outcome = _LEFT_JOINERS[engine_name](lubm2).execute(text)
    assert outcome.ok, outcome.error
    assert [v.name for v in outcome.result.vars][-1] == "z"
    assert Counter(outcome.result.rows) == expected


@pytest.mark.parametrize("engine_name", sorted(_LEFT_JOINERS))
def test_quickstart_optional_filter_reads_the_outer_variable(engine_name):
    """ROADMAP's wrong row, verbatim: filtered before the left join, where
    ``?S`` does not exist, every ``?C`` came back unbound."""
    federation = load_example("quickstart").build_federation()
    text = (
        f"{_UB}SELECT ?S ?P ?C {{ ?S ub:advisor ?P "
        "OPTIONAL { ?P ub:teacherOf ?C FILTER(?C != ?S) } }"
    )
    outcome = _LEFT_JOINERS[engine_name](federation).execute(text)
    assert outcome.ok, outcome.error
    assert sorted(row[2].local_name for row in outcome.result.rows) == ["c1", "c2", "c3"]
    assert Counter(outcome.result.rows) == Counter(oracle_rows(federation, text))
