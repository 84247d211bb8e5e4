"""The collector pause around the two bulk term-row builders (column
decode and the join-run writer), and the contracts it must not bend: the
pause puts back the state it found, nothing leaks out of ``execute`` or
a serving window, and the final answer is built — not deferred — before
``execute`` returns.
"""

import gc

import pytest

from repro.core.engine import LusailConfig, LusailEngine
from repro.endpoint.client import FederationClient
from repro.faults import EndpointFaults, FaultPlan
from repro.rdf import IRI, Variable
from repro.relational.relation import Relation
from repro.serve import QueryRequest, QueryServer
from repro.store.dictionary import TermDictionary, collector_paused
from tests.conftest import QA
from tests.test_cross_engine_matrix import _sliced
from tests.test_expressions import ENGINES


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestPause:
    def test_restores_an_enabled_collector(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector_off):
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_reenables_after_the_body_raises(self):
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_nests(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            # The inner pause found the collector off and leaves it off.
            assert not gc.isenabled()
        assert gc.isenabled()


class _Collections:
    """Counts the collections that start while installed."""

    def __init__(self):
        self.started = 0

    def __call__(self, phase, info):
        self.started += phase == "start"

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _dictionary_and_columns(rows: int = 20_000):
    dictionary = TermDictionary()
    ids = [dictionary.encode(IRI(f"http://example.org/e{i}")) for i in range(64)]
    columns = [[ids[(i * step) % 64] for i in range(rows)] for step in (1, 3)]
    return dictionary, columns


class TestDecodeColumns:
    def test_bulk_decode_costs_one_young_pass_not_one_per_threshold(self):
        dictionary, columns = _dictionary_and_columns()
        gc.collect()  # an empty young generation: every count below is the decode's
        with _Collections() as seen:
            rows = dictionary.decode_columns(columns)
            holder = [[] for __ in range(8)]  # tracked allocations, collector back on
        # 20,000 tracked tuples are ~28 young-generation thresholds; paused,
        # they are walked once, by the first allocation after the pause.
        assert seen.started == 1
        assert len(rows) == 20_000 and len(holder) == 8
        assert gc.isenabled()

    def test_a_host_with_the_collector_off_keeps_it_off(self, collector_off):
        dictionary, columns = _dictionary_and_columns(100)
        assert len(dictionary.decode_columns(columns)) == 100
        assert not gc.isenabled()

    def test_row_store_reads_go_through_the_paused_decode(self):
        x = Variable("x")
        relation = Relation((x,), [(IRI(f"http://example.org/e{i % 7}"),) for i in range(5_000)])
        gc.collect()
        with _Collections() as seen:
            rows = relation.rows[:]
            iterated = list(relation.rows)
        # Unpaused, each 5,000-row read is ~7 young-generation passes.
        assert seen.started <= 2 and rows == iterated and len(rows) == 5_000


def _fanout_join(probe_rows: int = 2_000, fanout: int = 10) -> Relation:
    """A join still held as runs: every probe row against ``fanout`` build rows."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    key = IRI("http://example.org/k")
    build = Relation((x, y), [(key, IRI(f"http://example.org/b{i}")) for i in range(fanout)])
    probe = Relation(
        (x, z), [(key, IRI(f"http://example.org/p{i % 64}")) for i in range(probe_rows)]
    )
    joined = build.join(probe)
    assert joined.rows.runs is not None and len(joined) == probe_rows * fanout
    return joined


class TestRunWriter:
    def test_rows_from_runs_cost_one_young_pass_not_one_per_threshold(self):
        joined = _fanout_join()
        gc.collect()
        with _Collections() as seen:
            rows = joined.rows.term_rows()
            holder = [[] for __ in range(8)]
        assert seen.started == 1
        assert len(rows) == 20_000 and len(holder) == 8
        assert joined.rows.runs is not None and gc.isenabled()

    def test_a_host_with_the_collector_off_keeps_it_off(self, collector_off):
        assert len(_fanout_join(10, 3).rows.term_rows()) == 30
        assert not gc.isenabled()

    @pytest.mark.parametrize("fanout", [1, 3])
    def test_a_raising_decode_puts_the_collector_back(self, fanout):
        """An id the codec never minted fails inside the pause — on the
        singleton-run writer and on the wide-run one alike."""
        joined = _fanout_join(10, fanout)
        frozen = gc.get_freeze_count()
        joined.rows.runs.probe_columns[1][3] = 10**12
        with pytest.raises(IndexError):
            joined.rows.term_rows()
        assert gc.isenabled() and gc.get_freeze_count() == frozen


UB = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
NESTED_OPTIONAL = UB + (
    "SELECT ?s WHERE { ?s ub:advisor ?p OPTIONAL { ?p ub:teacherOf ?c "
    "OPTIONAL { ?c ub:name ?n } } }"
)


def _outcomes(federation):
    """One ``(expected status, outcome)`` per status ``execute`` reports."""
    yield "ok", LusailEngine(federation).execute(QA)
    yield "timeout", LusailEngine(federation, timeout_ms=0.1).execute(QA)
    yield "oom", LusailEngine(federation, config=LusailConfig(max_mediator_rows=1)).execute(QA)
    yield "unsupported", LusailEngine(federation).execute(NESTED_OPTIONAL)
    faulty = LusailEngine(federation)
    faulty.execute(QA)  # warm probe caches, so the outage hits a SELECT
    faulty.fault_plan = FaultPlan(endpoints={"EP2": EndpointFaults(outages=((0.0, 1e12),))})
    yield "error", faulty.execute(QA)


class TestNothingLeaks:
    def test_collector_state_after_every_outcome_status(self, paper_federation):
        frozen = gc.get_freeze_count()
        seen = []
        for expected, outcome in _outcomes(paper_federation):
            assert outcome.status == expected, outcome.error
            assert gc.isenabled(), expected
            assert gc.get_freeze_count() == frozen, expected
            seen.append(expected)
        assert seen == ["ok", "timeout", "oom", "unsupported", "error"]

    def test_collector_state_after_an_answer_written_from_runs(self, lubm2):
        """The fan-out body ends in the run writer when it succeeds and in
        the runs' row guard — before anything is written — when it cannot."""
        text = _sliced("fanout", "?y ?u ?x", "")
        frozen = gc.get_freeze_count()
        answer = LusailEngine(lubm2).execute(text)
        assert answer.ok and len(answer.result) > 1
        for limit, status in ((len(answer.result), "ok"), (len(answer.result) - 1, "oom")):
            config = LusailConfig(max_mediator_rows=limit)
            outcome = LusailEngine(lubm2, config=config).execute(text)
            assert outcome.status == status, outcome.error
            assert gc.isenabled() and gc.get_freeze_count() == frozen

    def test_no_suspension_point_inside_the_run_writer(self, lubm2, monkeypatch):
        """Serve workers hand the baton over at the gate and at every
        client request: neither may be reached while the writer runs."""
        writing = []
        written = []
        decode_runs = TermDictionary.decode_runs

        def tracking(self, runs):
            writing.append(True)
            try:
                return decode_runs(self, runs)
            finally:
                writing.pop()
                written.append(runs.length)

        def never_while_writing(original):
            def checked(*args, **kwargs):
                assert not writing and gc.isenabled()
                return original(*args, **kwargs)

            return checked

        monkeypatch.setattr(TermDictionary, "decode_runs", tracking)
        monkeypatch.setattr(QueryServer, "gate", never_while_writing(QueryServer.gate))
        monkeypatch.setattr(
            FederationClient, "_issue", never_while_writing(FederationClient._issue)
        )
        text = _sliced("fanout", "?y ?u ?x", "")
        records = QueryServer(lubm2).run(
            [
                QueryRequest(at_ms=at, tenant=tenant, name=f"fanout{at}", text=text + f"# {at}")
                for at, tenant in ((0.0, "a"), (0.0, "b"), (5.0, "c"))
            ]
        )
        assert all(record.ok for record in records)
        assert written and all(rows > 1 for rows in written)

    def test_collector_state_after_a_serving_window(self, paper_federation):
        frozen = gc.get_freeze_count()
        records = QueryServer(paper_federation).run(
            [
                QueryRequest(at_ms=at, tenant=tenant, name="QA", text=QA)
                for at, tenant in ((0.0, "a"), (0.0, "b"), (50.0, "a"))
            ]
        )
        assert all(record.ok for record in records)
        assert gc.isenabled() and gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_the_final_answer_is_term_rows_not_a_deferred_decode(
        self, engine_name, paper_federation
    ):
        """The ledger reads ``outcome.result.rows`` outside the timed
        call: a lazy final answer would move the decode off the clock."""
        outcome = ENGINES[engine_name](paper_federation).execute(QA)
        assert outcome.ok, outcome.error
        result = outcome.result
        assert result.columns is None and result.dictionary is None
        assert result._rows is not None and len(result._rows) == len(result) > 0
