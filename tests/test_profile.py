"""Tests for EXPLAIN ANALYZE: audit, q-error, critical path, exports."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.datasets import lubm
from repro.harness import profile_query, reports_to_json
from repro.obs import (
    AUDIT_COUNTER,
    NULL_AUDIT,
    Q_ERROR_METRIC,
    EstimateAudit,
    MetricsRegistry,
    Tracer,
    build_profile_report,
    chrome_trace_events,
    critical_path,
    critical_sections,
    make_audit,
    plan_cache_summary,
    q_error,
    q_error_summary,
    render_explain_analyze,
    render_q_error_table,
)
from repro.obs.registry import HistogramStats


# -------------------------------------------------------------------- q-error


class TestQError:
    def test_exact_estimate_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(5, 50) == q_error(50, 5) == 10.0

    def test_zero_rows_clamped(self):
        # Neither empty results nor sub-row estimates blow up to infinity.
        assert q_error(0, 0) == 1.0
        assert q_error(0.25, 8) == 8.0
        assert q_error(100, 0) == 100.0


class TestEstimateAudit:
    def test_record_feeds_registry_and_span(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True)
        audit = EstimateAudit(registry, "Lusail")
        with tracer.span("subquery", t0=0.0) as span:
            audit.record("sape_cardinality", 40, 10, endpoint="u0", span=span)
            audit.record("delay", 40, 80, span=span)
            span.end(1.0)
        stats = registry.histogram(Q_ERROR_METRIC, engine="Lusail")
        assert stats.count == 2
        assert stats.max == pytest.approx(4.0)
        assert registry.counter_value(AUDIT_COUNTER, decision="delay") == 1
        assert span.attrs["q_error"] == pytest.approx(4.0)  # worst on the span
        assert [entry["decision"] for entry in span.attrs["audit"]] == [
            "sape_cardinality", "delay",
        ]
        assert audit.worst().decision == "sape_cardinality"

    def test_null_audit_is_inert(self):
        assert NULL_AUDIT.enabled is False
        assert NULL_AUDIT.record("x", 1, 2) is None
        assert NULL_AUDIT.records == ()
        assert make_audit(MetricsRegistry(), "FedX", enabled=False) is NULL_AUDIT
        assert make_audit(MetricsRegistry(), "FedX", enabled=True).enabled


# ----------------------------------------------------------------- histograms


class TestHistogramPercentiles:
    def test_empty_series_has_none_min_max(self):
        stats = HistogramStats()
        assert stats.min is None and stats.max is None
        assert stats.percentile(0.5) is None
        # Registry queries with no matching series: empty, not inf/-inf.
        merged = MetricsRegistry().histogram("request_virtual_ms", endpoint="nope")
        assert merged.count == 0
        assert merged.min is None and merged.max is None
        assert merged.p50 is None and merged.p95 is None and merged.p99 is None

    def test_percentiles_within_value_range(self):
        stats = HistogramStats()
        for value in [1.0, 2.0, 3.0, 5.0, 8.0, 100.0]:
            stats.observe(value)
        for q in (0.5, 0.95, 0.99):
            estimate = stats.percentile(q)
            assert stats.min <= estimate <= stats.max
        assert stats.p99 == pytest.approx(100.0)  # clamped to the observed max

    def test_log_buckets_give_upper_bounds(self):
        stats = HistogramStats()
        for __ in range(99):
            stats.observe(3.0)  # bucket (2, 4]
        stats.observe(1000.0)
        assert stats.p50 == pytest.approx(4.0)  # bucket upper bound
        assert stats.p95 == pytest.approx(4.0)
        assert stats.max == pytest.approx(1000.0)

    def test_merge_combines_buckets(self):
        a, b = HistogramStats(), HistogramStats()
        a.observe(1.0)
        b.observe(64.0)
        a.merge(b)
        assert a.count == 2
        assert a.min == pytest.approx(1.0) and a.max == pytest.approx(64.0)

    def test_snapshot_includes_percentiles(self):
        registry = MetricsRegistry()
        registry.observe("request_virtual_ms", 2.0, endpoint="a")
        stats = registry.histogram("request_virtual_ms")
        for value in (stats.min, stats.max, stats.p50, stats.p95, stats.p99):
            assert value == pytest.approx(2.0)


# -------------------------------------------------------------- critical path


def _concurrent_tree() -> Tracer:
    """Root [0,10] with serial child a [0,2] and concurrent b [2,7], c [2,9]."""
    tracer = Tracer(enabled=True)
    with tracer.span("query", t0=0.0) as root:
        with tracer.span("a", t0=0.0) as a:
            a.end(2.0)
        with tracer.span("b", t0=2.0) as b:
            b.end(7.0)
        with tracer.span("c", t0=2.0) as c:
            with tracer.span("c1", t0=2.0) as c1:
                c1.end(6.0)
            c.end(9.0)
        root.end(10.0)
    return tracer


class TestCriticalPath:
    def test_sections_tile_the_root_interval(self):
        root = _concurrent_tree().roots[0]
        sections = critical_sections(root)
        total = sum(hi - lo for __, lo, hi in sections)
        assert total == pytest.approx(root.inclusive_ms)
        # Chronological and disjoint.
        cursor = root.t0_ms
        for __, lo, hi in sections:
            assert lo >= cursor - 1e-9
            assert hi > lo
            cursor = hi
        assert cursor == pytest.approx(root.t1_ms)

    def test_last_finishing_child_gates(self):
        root = _concurrent_tree().roots[0]
        names = [span.name for span in critical_path(root)]
        # c (ends 9.0) gates the tail, not the earlier-finishing b;
        # within c, c1 gates [2,6].
        assert "c" in names and "c1" in names and "b" not in names
        assert names[0] == "query"
        # Root self-time [9,10] is attributed to the root itself.
        root_self = sum(
            hi - lo for span, lo, hi in critical_sections(root) if span is root
        )
        assert root_self == pytest.approx(1.0)

    def test_deterministic_across_rebuilds(self):
        one = _concurrent_tree().roots[0]
        two = _concurrent_tree().roots[0]
        extract = lambda root: [
            (span.name, round(lo, 9), round(hi, 9))
            for span, lo, hi in critical_sections(root)
        ]
        assert extract(one) == extract(two)

    def test_childless_root_is_its_own_path(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", t0=1.0) as root:
            root.end(4.0)
        sections = critical_sections(root)
        assert [(s.name, lo, hi) for s, lo, hi in sections] == [("query", 1.0, 4.0)]
        assert [s.name for s in critical_path(root)] == ["query"]


# ----------------------------------------------------------- flame exports


class TestFlameExports:
    def test_chrome_events_nest_within_lanes(self):
        tracer = _concurrent_tree()
        payload = chrome_trace_events(tracer.roots)
        events = payload["traceEvents"]
        assert len(events) == 5
        assert all(event["ph"] == "X" for event in events)
        json.dumps(payload)  # serializable
        # Within one (pid, tid) lane every pair is disjoint or nested.
        by_lane: dict = {}
        for event in events:
            by_lane.setdefault((event["pid"], event["tid"]), []).append(event)
        for lane_events in by_lane.values():
            for i, first in enumerate(lane_events):
                for second in lane_events[i + 1:]:
                    a0, a1 = first["ts"], first["ts"] + first["dur"]
                    b0, b1 = second["ts"], second["ts"] + second["dur"]
                    disjoint = a1 <= b0 or b1 <= a0
                    nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
                    assert disjoint or nested, (first, second)
        # Concurrent siblings b and c landed on different lanes.
        lanes = {event["name"]: event["tid"] for event in events}
        assert lanes["b"] != lanes["c"]


# ------------------------------------------------------------- profile report


@pytest.fixture(scope="module")
def tiny_lubm():
    return lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)


@pytest.fixture(scope="module")
def lusail_run(tiny_lubm):
    return profile_query("Lusail", tiny_lubm, "Q4", lubm.queries()["Q4"])


class TestProfileReport:
    def test_report_fields_and_round_trip(self, lusail_run):
        report = lusail_run.report
        assert report.engine == "Lusail" and report.status == "ok"
        assert report.requests > 0 and report.rows_shipped > 0
        assert report.span_count > 0
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert reports_to_json([report])["reports"] == [payload]

    def test_critical_path_covers_root(self, lusail_run):
        report, root = lusail_run.report, lusail_run.root
        assert report.critical_path[0]["name"] == root.name
        assert report.critical_path_ms == pytest.approx(root.inclusive_ms)
        assert report.virtual_ms == pytest.approx(root.inclusive_ms, rel=0.01)

    def test_q_error_series_per_decision(self, lusail_run):
        digest = lusail_run.report.q_error
        # Lusail's estimate-driven decisions all report in.
        for decision in ("sape_cardinality", "delay", "probe_order"):
            assert decision in digest, decision
            entry = digest[decision]
            assert entry["count"] > 0
            assert entry["max"] >= entry["p50"] >= 1.0
        assert lusail_run.report.worst_q_error >= 1.0
        assert lusail_run.report.estimates  # raw records embedded

    #: Q4 on the tiny 2-endpoint LUBM federation, per engine: status,
    #: requests, rows shipped, result rows, metadata requests — exact —
    #: and the worst q-error, within 5%.  An estimator, planner or
    #: instrumentation change that legitimately moves one edits this table.
    Q4_COUNTERS = {
        "Lusail": ("ok", 6, 66, 20, 2, 33.0),
        "FedX": ("ok", 20, 122, 20, 2, 3.0),
        "HiBISCuS": ("ok", 20, 122, 20, 2, 3.0),
        "SPLENDID": ("ok", 14, 193, 20, 2, 1.939),
        "ANAPSID": ("ok", 12, 191, 20, 0, 1.0),
    }

    _COUNTER_SCRIPT = """
import json
from repro.datasets import lubm
from repro.harness import profile_query
federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)
rows = {}
for engine in %r:
    report = profile_query(engine, federation, "Q4", lubm.queries()["Q4"]).report
    rows[engine] = [report.status, report.requests, report.rows_shipped,
                    report.result_rows, report.metadata_requests, report.worst_q_error]
print(json.dumps(rows))
"""

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_exact_counters_under_two_set_orders(self, hash_seed):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", self._COUNTER_SCRIPT % (tuple(self.Q4_COUNTERS),)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        measured = json.loads(completed.stdout)
        for engine, (*counters, worst) in self.Q4_COUNTERS.items():
            assert measured[engine][:-1] == counters, engine
            assert measured[engine][-1] == pytest.approx(worst, rel=0.05), engine

    def test_q_error_summary_filters_by_engine(self, lusail_run):
        assert q_error_summary(lusail_run.registry, "FedX") == {}

    def test_baseline_engines_audit_too(self, tiny_lubm):
        reports = {
            engine: profile_query(engine, tiny_lubm, "Q4", lubm.queries()["Q4"]).report
            for engine in ("FedX", "SPLENDID")
        }
        assert "probe_order" in reports["FedX"].q_error
        assert "void_estimate" in reports["SPLENDID"].q_error

    def test_render_explain_analyze(self, lusail_run):
        text = render_explain_analyze(lusail_run.root)
        assert "rows est→act" in text.splitlines()[0]
        assert "(* = on the critical path)" in text
        assert "*" in text.splitlines()[1]  # root is always on the path
        table = render_q_error_table(lusail_run.report.q_error)
        assert "sape_cardinality" in table and "p95" in table
        assert "no audited estimates" in render_q_error_table({})

    def test_est_act_reads_row_counts_only(self, lusail_run):
        # The execution span carries the strategy picker's survival
        # percentage (23.171) first and the branch_rows record after it:
        # the column shows rows, 66 estimated and 20 produced.
        lines = render_explain_analyze(lusail_run.root).splitlines()
        (execution,) = [line for line in lines if "─ execution " in line]
        assert "66→20" in execution.split()
        assert "23.171" not in execution


class TestMemberSets:
    def test_endpoint_plans_line_counts_this_requests_member_sets(self):
        # Q1's endpoint plans test ?x, ?y and ?z against member sets the
        # stores build on first use and keep until their next write: the
        # first run's line counts what it built, a second run on the same
        # stores builds none.
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)
        first = profile_query("Lusail", federation, "Q1", lubm.queries()["Q1"])
        sets = first.registry.counter_value("member_sets_built_total")
        ids = first.registry.counter_value("member_set_ids_total")
        assert sets > 0 and ids >= sets
        assert sum(endpoint.member_stats()[0] for endpoint in federation) == sets
        assert sum(endpoint.member_stats()[1] for endpoint in federation) == ids
        line = plan_cache_summary(first.registry)
        assert f"{int(sets)} member sets built ({int(ids)} ids)" in line
        again = profile_query("Lusail", federation, "Q1", lubm.queries()["Q1"])
        assert again.report.result_rows == first.report.result_rows
        assert "0 member sets built (0 ids)" in plan_cache_summary(again.registry)


class TestAuditNeutrality:
    def test_probe_audit_does_not_touch_plan_cache_counters(self, tiny_lubm):
        endpoint = tiny_lubm.get("university0")
        from repro.sparql.parser import parse_query

        query = parse_query(
            "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#FullProfessor> }"
        )
        endpoint.select(query)
        hits, misses, *__ = endpoint.plan_stats()
        records = endpoint.audit_probes(query)
        assert records, "cached plan should yield probe audit records"
        for record in records:
            assert record["estimated"] >= 0.0
            assert record["input_rows"] >= 1
            assert set(record) >= {"pattern", "estimated", "actual", "output_rows"}
        assert endpoint.plan_stats()[:2] == (hits, misses)  # counters untouched

    def test_audit_probes_without_cached_plan_is_empty(self, tiny_lubm):
        endpoint = tiny_lubm.get("university1")
        from repro.sparql.parser import parse_query

        fresh = parse_query(
            "SELECT ?y WHERE { ?y <http://example.org/never-seen-before> ?z }"
        )
        assert endpoint.audit_probes(fresh) == []


# ------------------------------------------------------------------------ CLI


TINY_ARGS = ["--benchmark", "lubm", "--endpoints", "2", "--profile", "tiny"]


class TestExplainAnalyzeCli:
    def test_single_engine(self, tmp_path, capsys):
        json_path = str(tmp_path / "reports.json")
        code = cli_main(
            ["explain-analyze", *TINY_ARGS, "--name", "Q4",
             "--engine", "Lusail", "--json", json_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== Lusail ==" in out
        assert "rows est→act" in out
        assert "critical path" in out
        assert "worst q-error" in out
        payload = json.loads((tmp_path / "reports.json").read_text())
        assert [r["engine"] for r in payload["reports"]] == ["Lusail"]
        assert payload["reports"][0]["q_error"]

    def test_all_engines(self, capsys):
        code = cli_main(["explain-analyze", *TINY_ARGS, "--name", "Q4",
                         "--engine", "all"])
        assert code == 0
        out = capsys.readouterr().out
        for engine in ("Lusail", "FedX", "HiBISCuS", "SPLENDID"):
            assert f"== {engine} ==" in out

    def test_profile_shows_latency_percentiles(self, capsys):
        code = cli_main(["explain-analyze", *TINY_ARGS, "--name", "Q4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "request latency (virtual ms): p50" in out

    def test_chrome_trace_format(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.chrome.json")
        code = cli_main(
            ["explain-analyze", *TINY_ARGS, "--name", "Q4",
             "--trace-out", trace_path, "--trace-format", "chrome"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "trace.chrome.json").read_text())
        assert payload["traceEvents"]
        assert all(event["ph"] == "X" for event in payload["traceEvents"])


_REFUSED_QUERIES = {
    "ask": "ASK { ?x <http://example.org/p> ?y }",
    "malformed": "SELECT ?x WHERE { ?x <http://example.org/p> ",
}


@pytest.mark.parametrize("command", ["query", "explain", "explain-analyze"])
@pytest.mark.parametrize("kind", sorted(_REFUSED_QUERIES))
def test_refused_query_is_one_error_line_and_status_2(command, kind, tmp_path, capsys):
    """A non-SELECT or unparsable query file is bad input: every
    subcommand that takes one answers ``repro: error: ...`` on stderr
    and exit status 2 — no traceback, no non-``ReproError`` escape."""
    path = tmp_path / f"{kind}.rq"
    path.write_text(_REFUSED_QUERIES[kind])
    code = cli_main([command, *TINY_ARGS, "--query-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro: error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
