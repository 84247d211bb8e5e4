"""Tests for the observability layer: tracer, registry, exporters, CLI."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.datasets import lubm
from repro.harness import ENGINE_ORDER, RunResult, make_engines
from repro.net import metrics as metrics_module
from repro.net.metrics import REQUEST_KINDS
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    endpoint_summary_table,
    load_trace_jsonl,
    render_span_tree,
    span_to_dict,
    validate_trace,
    write_metrics_json,
    write_trace_jsonl,
)


# --------------------------------------------------------------------- tracer


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer()
        span = tracer.span("anything", t0=1.0, endpoint="a")
        assert span is NULL_SPAN
        assert tracer.span("other") is span  # no per-call allocation
        with span as inner:
            inner.set(rows=5).end(9.0)
        assert tracer.roots == []
        assert span.attrs == {}  # null span never records

    def test_nesting_builds_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", t0=0.0) as root:
            with tracer.span("source_selection", t0=0.0) as child:
                child.end(2.0)
            with tracer.span("execution", t0=2.0) as child:
                with tracer.span("subquery", t0=2.0) as grandchild:
                    grandchild.end(5.0)
                child.end(5.0)
            root.end(5.0)
        assert len(tracer.roots) == 1
        names = [span.name for span in tracer.roots[0].walk()]
        assert names == ["query", "source_selection", "execution", "subquery"]
        execution = tracer.roots[0].find("execution")[0]
        assert execution.children[0].parent_id == execution.id

    def test_t0_defaults_to_parent_start(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", t0=3.5) as outer:
            with tracer.span("inner") as inner:
                pass
            outer.end(4.0)
        assert inner.t0_ms == 3.5

    def test_unended_span_closes_at_latest_child_end(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent", t0=0.0):
            with tracer.span("a", t0=0.0) as a:
                a.end(4.0)
            with tracer.span("b", t0=1.0) as b:
                b.end(2.5)
        assert tracer.roots[0].t1_ms == pytest.approx(4.0)

    def test_exclusive_time_unions_overlapping_children(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent", t0=0.0) as parent:
            # Virtually-concurrent children covering [1,4] and [2,6].
            with tracer.span("a", t0=1.0) as a:
                a.end(4.0)
            with tracer.span("b", t0=2.0) as b:
                b.end(6.0)
            parent.end(10.0)
        assert parent.inclusive_ms == pytest.approx(10.0)
        # Children cover [1,6] = 5ms once, not 3+4=7ms.
        assert parent.exclusive_ms == pytest.approx(5.0)

    def test_exception_unwinds_open_spans(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("root", t0=0.0):
                span = tracer.span("inner", t0=1.0)
                span.end(2.0)
                raise ValueError("boom")  # inner __exit__ never runs
        assert tracer._stack == []
        assert tracer.roots[0].t1_ms is not None

    def test_exception_unwinds_deep_span_stack(self):
        # An exception escaping several open spans at once: only the
        # outermost context manager's __exit__ runs, and _pop must close
        # every abandoned span above it with a sane end time.
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("query", t0=0.0):
                tracer.span("execution", t0=1.0)
                tracer.span("subquery", t0=2.0)
                inner = tracer.span("bound_block", t0=3.0)
                inner.end(4.5)
                raise RuntimeError("endpoint died")
        assert tracer._stack == []
        (root,) = tracer.roots
        names = [span.name for span in root.walk()]
        assert names == ["query", "execution", "subquery", "bound_block"]
        for span in root.walk():
            assert span.t1_ms is not None
            assert span.t1_ms >= span.t0_ms
        # Unended ancestors close at their latest descendant end.
        assert root.find("subquery")[0].t1_ms == pytest.approx(4.5)
        assert root.find("execution")[0].t1_ms == pytest.approx(4.5)

    def test_clear_drops_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x", t0=0.0) as span:
            span.end(1.0)
        tracer.clear()
        assert tracer.roots == []
        assert list(tracer.all_spans()) == []


# ------------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_counter_label_matching(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", engine="Lusail", endpoint="a", kind="select")
        registry.inc("requests_total", engine="Lusail", endpoint="b", kind="ask")
        registry.inc("requests_total", 3, engine="FedX", endpoint="a", kind="bound")
        assert registry.counter_value("requests_total") == 5
        assert registry.counter_value("requests_total", engine="Lusail") == 2
        assert registry.counter_value("requests_total", endpoint="a") == 4
        assert registry.counter_value("requests_total", engine="FedX", kind="bound") == 3
        assert registry.counter_value("missing") == 0

    def test_label_values_and_series(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", engine="Lusail", endpoint="a")
        registry.inc("requests_total", engine="FedX", endpoint="b")
        assert registry.label_values("requests_total", "engine") == {"Lusail", "FedX"}
        assert len(registry.counter_series("requests_total")) == 2

    def test_histograms_merge_across_series(self):
        registry = MetricsRegistry()
        registry.observe("request_virtual_ms", 2.0, endpoint="a", kind="select")
        registry.observe("request_virtual_ms", 4.0, endpoint="a", kind="select")
        registry.observe("request_virtual_ms", 10.0, endpoint="b", kind="ask")
        merged = registry.histogram("request_virtual_ms")
        assert merged.count == 3
        assert merged.sum == pytest.approx(16.0)
        assert merged.min == pytest.approx(2.0)
        assert merged.max == pytest.approx(10.0)
        only_a = registry.histogram("request_virtual_ms", endpoint="a")
        assert only_a.count == 2
        assert only_a.mean == pytest.approx(3.0)

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.inc("queries_total", engine="Lusail", status="ok")
        registry.observe("request_virtual_ms", 1.5, endpoint="a", kind="ask")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [
            {
                "name": "queries_total",
                "labels": {"engine": "Lusail", "status": "ok"},
                "value": 1.0,
            }
        ]
        assert snapshot["histograms"][0]["count"] == 1
        json.dumps(snapshot)  # JSON-ready
        registry.reset()
        assert registry.snapshot() == {"counters": [], "histograms": []}


# ------------------------------------------------------------------ exporters


def _sample_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    with tracer.span("query", t0=0.0, engine="Lusail") as root:
        with tracer.span("source_selection", t0=0.0) as span:
            span.set(requests=4, endpoints={"b", "a"}).end(2.0)
        with tracer.span("execution", t0=2.0) as span:
            span.set(rows=7).end(6.0)
        root.set(requests=10, rows=7).end(6.0)
    return tracer


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        path = str(tmp_path / "trace.jsonl")
        written = write_trace_jsonl(tracer.roots, path)
        spans = load_trace_jsonl(path)
        assert written == len(spans) == 3
        assert validate_trace(spans) == []
        root = spans[0]
        assert root["parent_id"] is None
        assert {span["parent_id"] for span in spans[1:]} == {root["id"]}

    def test_span_to_dict_coerces_attrs(self):
        tracer = _sample_tracer()
        selection = tracer.roots[0].find("source_selection")[0]
        payload = span_to_dict(selection)
        assert payload["attrs"]["endpoints"] == ["a", "b"]  # set -> sorted list
        json.dumps(payload)

    def test_validate_catches_malformed_traces(self):
        base = {"name": "x", "attrs": {}}
        ok = [
            {"id": 1, "parent_id": None, "t0_ms": 0.0, "t1_ms": 5.0, **base},
            {"id": 2, "parent_id": 1, "t0_ms": 1.0, "t1_ms": 4.0, **base},
        ]
        assert validate_trace(ok) == []
        dup = [dict(ok[0]), dict(ok[0])]
        assert any("duplicate" in p for p in validate_trace(dup))
        orphan = [dict(ok[0]), {**ok[1], "parent_id": 99}]
        assert any("unknown" in p for p in validate_trace(orphan))
        escapee = [dict(ok[0]), {**ok[1], "t1_ms": 9.0}]
        assert any("ends after parent" in p for p in validate_trace(escapee))
        negative = [{**ok[0], "t1_ms": -1.0}]
        assert any("negative duration" in p for p in validate_trace(negative))
        rootless = [dict(ok[1])]
        assert any("no root" in p for p in validate_trace(rootless))

    def test_render_span_tree(self):
        tracer = _sample_tracer()
        text = render_span_tree(tracer.roots[0])
        assert "query" in text and "source_selection" in text
        assert "└─" in text  # tree connectors
        lines = text.splitlines()
        assert lines[0].startswith("span")
        assert "incl_ms" in lines[0]


# ---------------------------------------------------------------- integration


@pytest.fixture(scope="module")
def tiny_lubm():
    return lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)


#: LUBM Q1 with a filter on ``?z``: its type-constrained check queries
#: and its filtered COUNTs are beyond the summaries, so the remote
#: metadata probes run beside the summary fetches.
Q1_FILTERED = lubm.queries()["Q1"].replace(
    "?x ub:undergraduateDegreeFrom ?y .",
    "?x ub:undergraduateDegreeFrom ?y .\n  FILTER(?z != <http://nowhere.example/d>)",
)


def _run_traced(federation, which, query):
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    engines = make_engines(federation, which=which, tracer=tracer, registry=registry)
    outcomes = {name: engine.execute(query) for name, engine in engines.items()}
    return tracer, registry, outcomes


class TestEngineIntegration:
    def test_root_span_matches_virtual_time(self, tiny_lubm):
        tracer, __, outcomes = _run_traced(tiny_lubm, ("Lusail",), lubm.queries()["Q4"])
        outcome = outcomes["Lusail"]
        assert outcome.ok
        (root,) = tracer.roots
        assert root.name == "query"
        reported = outcome.metrics.virtual_ms
        assert root.inclusive_ms == pytest.approx(reported, rel=0.01)
        assert root.attrs["requests"] == outcome.metrics.request_count()
        assert validate_trace([span_to_dict(s) for s in root.walk()]) == []

    def test_lusail_trace_covers_lifecycle_stages(self, tiny_lubm):
        # The full remote-metadata lifecycle, check queries the summaries
        # could not decide included, must appear in the trace.
        tracer, __, outcomes = _run_traced(tiny_lubm, ("Lusail",), Q1_FILTERED)
        outcome = outcomes["Lusail"]
        assert outcome.ok
        (root,) = tracer.roots
        for stage in (
            "source_selection",
            "decomposition",
            "gjv_detection",
            "check_query",
            "statistics",
            "delay_decision",
            "phase1",
            "subquery",
        ):
            assert root.find(stage), f"no {stage} span in trace"
        checks = root.find("check_query")
        assert len(checks) == outcome.metrics.request_count(metrics_module.CHECK) == 4
        assert "endpoint" in checks[0].attrs and "variable" in checks[0].attrs
        statistics = root.find("statistics")[0]
        assert statistics.attrs["requests"] == outcome.metrics.request_count(
            metrics_module.COUNT
        ) == 6

    def test_lusail_trace_charsets_skips_checks(self, tiny_lubm):
        # Characteristic-set statistics: the same lifecycle minus the
        # check-query probes, with the skips accounted on the
        # gjv_detection span and the summary fetch on the statistics span.
        tracer, __, outcomes = _run_traced(tiny_lubm, ("Lusail",), lubm.queries()["Q4"])
        assert outcomes["Lusail"].ok
        (root,) = tracer.roots
        detection = root.find("gjv_detection")[0]
        assert detection.attrs["check_queries_skipped"] > 0
        assert not root.find("check_query")
        statistics = root.find("statistics")[0]
        assert statistics.attrs["from_summary"] > 0

    def test_tracing_never_changes_results(self, tiny_lubm):
        # Tracing also switches on the estimate audit (probe re-execution,
        # COUNT-based q-error bookkeeping), so this invariance check is
        # what keeps EXPLAIN ANALYZE observational: status, rows, request
        # counts, rows shipped, and virtual time must match the untraced
        # run bit-for-bit on every engine.
        query = lubm.queries()["Q4"]
        plain = make_engines(tiny_lubm, which=ENGINE_ORDER)
        traced_tracer = Tracer(enabled=True)
        traced = make_engines(
            tiny_lubm, which=ENGINE_ORDER,
            tracer=traced_tracer, registry=MetricsRegistry(),
        )
        for name in ENGINE_ORDER:
            off = plain[name].execute(query)
            on = traced[name].execute(query)
            assert on.status == off.status
            assert sorted(map(str, on.result.rows)) == sorted(map(str, off.result.rows))
            assert on.metrics.request_count() == off.metrics.request_count()
            assert on.metrics.rows_shipped() == off.metrics.rows_shipped()
            assert on.metrics.virtual_ms == pytest.approx(off.metrics.virtual_ms)
            # The audit hooks actually ran in the traced execution...
            assert on.audit.records, name
            # ...and stayed off (shared no-op) in the untraced one.
            assert off.audit.enabled is False
            assert off.audit.records == ()
            # Lusail's plan leaves on the outcome; the baselines expose none.
            assert (on.plan is None) == (off.plan is None) == (name != "Lusail")
        assert traced_tracer.roots  # tracing actually happened

    def test_trace_export_is_byte_identical_across_seeded_runs(self, tmp_path):
        # Two runs over identically-seeded federations must serialize to
        # byte-identical trace files in both formats: the virtual-time
        # simulator is deterministic and spans only observe it.
        from repro.obs import write_trace_chrome

        paths = []
        for run in ("one", "two"):
            federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)
            tracer = Tracer(enabled=True)
            engines = make_engines(
                federation, which=("Lusail",),
                tracer=tracer, registry=MetricsRegistry(),
            )
            outcome = engines["Lusail"].execute(lubm.queries()["Q4"])
            assert outcome.ok
            jsonl = tmp_path / f"{run}.jsonl"
            chrome = tmp_path / f"{run}.chrome.json"
            written = write_trace_jsonl(tracer.roots, str(jsonl))
            write_trace_chrome(tracer.roots, str(chrome))
            paths.append((jsonl.read_bytes(), chrome.read_bytes()))
            # A real query's export reads back whole and well-formed, one
            # root, whose inclusive time is the reported virtual time.
            spans = load_trace_jsonl(str(jsonl))
            assert len(spans) == written > 0
            assert validate_trace(spans) == []
            (root,) = [span for span in spans if span["parent_id"] is None]
            assert root["t1_ms"] - root["t0_ms"] == pytest.approx(
                outcome.metrics.virtual_ms, rel=0.01
            )
        assert paths[0][0] == paths[1][0]
        assert paths[0][1] == paths[1][1]

    def test_disabled_default_tracer_collects_nothing(self, tiny_lubm):
        from repro.obs import get_default_tracer

        tracer = get_default_tracer()
        before = len(tracer.roots)
        engines = make_engines(tiny_lubm, which=("Lusail",))
        assert engines["Lusail"].execute(lubm.queries()["Q4"]).ok
        assert len(tracer.roots) == before

    def test_all_engines_report_into_shared_registry(self, tiny_lubm):
        __, registry, outcomes = _run_traced(tiny_lubm, ENGINE_ORDER, Q1_FILTERED)
        assert all(outcome.ok for outcome in outcomes.values())
        for engine in ENGINE_ORDER:
            assert registry.counter_value("requests_total", engine=engine) > 0, engine
            assert registry.counter_value("queries_total", engine=engine, status="ok") == 1
            endpoints = {
                dict(key).get("endpoint")
                for key in registry.counter_series("requests_total")
                if dict(key).get("engine") == engine
            }
            assert endpoints == {"university0", "university1"}, engine
        # Per-endpoint counters cover every request kind across engines
        # (no partial rounds under the default bound-join strategy).
        kinds = registry.label_values("requests_total", "kind")
        assert kinds == set(REQUEST_KINDS) - {metrics_module.PARTIAL}
        # Lusail's pipeline-specific counters.
        assert registry.counter_value("check_queries_total", engine="Lusail") > 0
        assert registry.counter_value("subqueries_total", engine="Lusail") > 0
        # Bound-join engines count their blocks.
        assert registry.counter_value("bound_join_blocks_total", engine="FedX") > 0
        # Request-duration histograms exist per endpoint.
        assert registry.histogram("request_virtual_ms", endpoint="university0").count > 0

    def test_endpoint_summary_table_renders(self, tiny_lubm):
        __, __, outcomes = _run_traced(tiny_lubm, ("Lusail",), lubm.queries()["Q4"])
        table = endpoint_summary_table(outcomes["Lusail"].metrics)
        assert "university0" in table and "busy_ms" in table

    _GJV_SCRIPT = """
import json
from repro.core.engine import LusailEngine
from repro.obs import Tracer, span_to_dict
from tests.conftest import QA, build_paper_federation
engine = LusailEngine(build_paper_federation())
engine.tracer = Tracer(enabled=True)
engine.explain(QA)
print(json.dumps([
    span_to_dict(span)["attrs"]["join_variables"]
    for root in engine.tracer.roots
    for span in root.find("gjv_detection")
]))
"""

    def test_gjv_span_exports_the_same_join_variables_under_any_hash_seed(self):
        # The join variables are collected into a set of Variables, whose
        # iteration order follows hashing; the span lists them by name.
        root = str(Path(__file__).resolve().parents[1])
        exported = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
            )
            completed = subprocess.run(
                [sys.executable, "-c", self._GJV_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True, cwd=root,
            )
            exported.append(json.loads(completed.stdout))
        assert exported[0] == exported[1] == [["C", "P", "S", "U"]]


# ------------------------------------------------------------------------ CLI


TINY_ARGS = ["--benchmark", "lubm", "--endpoints", "2", "--profile", "tiny"]


class TestCli:
    def test_profile_command(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        json_path = str(tmp_path / "metrics.json")
        code = cli_main(
            ["profile", *TINY_ARGS, "--name", "Q4",
             "--trace-out", trace_path, "--json", json_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span" in out and "source_selection" in out
        assert "status: ok" in out
        spans = load_trace_jsonl(trace_path)
        assert spans and validate_trace(spans) == []
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        names = {counter["name"] for counter in snapshot["counters"]}
        assert "requests_total" in names and "queries_total" in names

    def test_query_trace_and_json_flags(self, tmp_path, capsys):
        trace_path = str(tmp_path / "q.jsonl")
        json_path = str(tmp_path / "q.json")
        code = cli_main(
            ["query", *TINY_ARGS, "--name", "Q4", "--engine", "FedX",
             "--trace-out", trace_path, "--json", json_path]
        )
        assert code == 0
        assert validate_trace(load_trace_jsonl(trace_path)) == []
        summary = json.loads((tmp_path / "q.json").read_text())
        assert summary["engine"] == "FedX"
        assert summary["status"] == "ok"
        assert summary["requests"] > 0
        assert set(summary["requests_by_kind"]) <= set(REQUEST_KINDS)

    def test_bench_json_dict_rows(self, tmp_path, monkeypatch, capsys):
        from repro.harness import experiments

        rows = [{"query": "X", "endpoints": 1, "virtual_ms": 1.5, "requests": 2,
                 "status": "ok"}]
        monkeypatch.setattr(experiments, "fig03_fedx_sensitivity", lambda: rows)
        json_path = str(tmp_path / "bench.json")
        code = cli_main(["bench", "--experiment", "fig03", "--json", json_path])
        assert code == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["experiment"] == "fig03"
        assert payload["rows"] == rows

    def test_bench_json_run_results(self, tmp_path, monkeypatch, capsys):
        from repro.harness import experiments

        results = [
            RunResult(engine="Lusail", query="C2", status="ok", virtual_ms=12.5,
                      wall_ms=1.0, requests=7, rows_shipped=40, result_rows=3),
            RunResult(engine="FedX", query="C2", status="timeout", virtual_ms=60000.0,
                      wall_ms=2.0, requests=900, rows_shipped=0, result_rows=0),
        ]
        monkeypatch.setattr(experiments, "fig11_qfed", lambda config=None: results)
        json_path = str(tmp_path / "bench.json")
        code = cli_main(["bench", "--experiment", "fig11", "--json", json_path])
        assert code == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert [row["engine"] for row in payload["rows"]] == ["Lusail", "FedX"]
        assert payload["rows"][1]["status"] == "timeout"
        out = capsys.readouterr().out
        assert "TIMEOUT" in out

    def test_bench_trace_out(self, tmp_path, monkeypatch, capsys):
        from repro.harness import experiments
        from repro.obs import get_default_tracer

        def fake_experiment():
            engines = make_engines(
                lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42),
                which=("Lusail",),
            )
            outcome = engines["Lusail"].execute(lubm.queries()["Q4"])
            return [{"query": "Q4", "virtual_ms": outcome.metrics.virtual_ms,
                     "status": outcome.status}]

        monkeypatch.setattr(experiments, "fig03_fedx_sensitivity", fake_experiment)
        trace_path = str(tmp_path / "bench_trace.jsonl")
        code = cli_main(["bench", "--experiment", "fig03", "--trace-out", trace_path])
        assert code == 0
        assert not get_default_tracer().enabled  # switched back off
        spans = load_trace_jsonl(trace_path)
        assert spans and validate_trace(spans) == []
        assert any(span["attrs"].get("engine") == "Lusail" for span in spans)


# ------------------------------------------------------- documented names

SRC = Path(repro.__file__).resolve().parent
DOCS = SRC.parents[1] / "docs"
#: Method name -> what a string literal in its first argument names.
_EMITTERS = {
    "inc": "metric",
    "observe": "metric",
    "_count": "metric",  # ResultCache's guarded registry.inc
    "record": "audit decision",
    "span": "span",
}


def _emitted_names() -> dict[tuple[str, str], str]:
    """(kind, name) -> first ``file:line``, for every metric, audit
    decision and span name ``src/`` spells out: string literals (or
    module-level string constants) passed first to the emitter methods,
    plus the names ``KernelCounters.items`` yields."""
    found: dict[tuple[str, str], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def note(kind, node):
            if isinstance(node, ast.Name):
                name = constants.get(node.id)
            else:
                name = node.value if isinstance(node, ast.Constant) else None
            if isinstance(name, str):
                found.setdefault((kind, name), f"{path.relative_to(SRC)}:{node.lineno}")

        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                kind = _EMITTERS.get(node.func.attr)
                if kind is not None and node.args:
                    note(kind, node.args[0])
            elif isinstance(node, ast.ClassDef) and node.name == "KernelCounters":
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Yield) and isinstance(inner.value, ast.Tuple):
                        note("metric", inner.value.elts[0])
    return found


def test_every_emitted_name_is_documented():
    """North-star 4: the names a trace, a registry snapshot or an audit
    shows are the names ``docs/`` explains — spelled in full, in code
    font, so a reader can search for what they see."""
    emitted = _emitted_names()
    kinds = [kind for kind, _name in emitted]
    # The walk really sees all three families and the indirect emitters.
    assert kinds.count("metric") > 30 and kinds.count("span") > 20
    assert kinds.count("audit decision") >= 10
    for expected in (
        ("metric", "estimate_q_error"),  # through a module constant
        ("metric", "mediator_kernel_fast_dispatches_total"),  # KernelCounters.items
        ("metric", "serve_result_cache_hits_total"),  # ResultCache._count
    ):
        assert expected in emitted
    documented = "\n".join(path.read_text() for path in sorted(DOCS.glob("*.md")))
    missing = sorted(
        f"{kind} {name!r} ({where})"
        for (kind, name), where in emitted.items()
        if f"`{name}`" not in documented
    )
    assert not missing, "emitted but not in docs/*.md:\n  " + "\n  ".join(missing)
