"""Tests for the experiment harness: runner protocol and reporting."""

import pytest

from repro.harness.reporting import format_table, results_by_query, speedup_summary
from repro.harness.runner import ENGINE_ORDER, RunResult, make_engines, run_matrix, run_query
from repro.net import metrics as metrics_module

from tests.conftest import QA


class TestMakeEngines:
    def test_all_engines(self, paper_federation):
        engines = make_engines(paper_federation)
        assert list(engines) == list(ENGINE_ORDER)

    def test_subset(self, paper_federation):
        engines = make_engines(paper_federation, which=("Lusail", "FedX"))
        assert list(engines) == ["Lusail", "FedX"]

    def test_timeout_propagated(self, paper_federation):
        engines = make_engines(paper_federation, timeout_ms=123.0)
        assert all(engine.timeout_ms == 123.0 for engine in engines.values())


class TestRunQuery:
    def test_warm_protocol(self, paper_federation):
        engines = make_engines(paper_federation, which=("Lusail",))
        result = run_query(engines["Lusail"], "Qa", QA)
        assert result.status == "ok"
        assert result.result_rows == 3
        # Measured run is warm: no probe requests.
        assert result.requests < 10

    def test_cold_protocol(self, paper_federation):
        first, second = (
            make_engines(paper_federation, which=("Lusail",))["Lusail"] for __ in range(2)
        )
        cold = run_query(first, "Qa", QA, warm=False)
        warm = run_query(second, "Qa", QA)
        assert cold.result_rows == warm.result_rows == 3
        assert cold.requests > warm.requests  # metadata included

    def test_cold_protocol_charsets_cuts_probes(self, paper_federation):
        # Characteristic-set statistics answer all of Qa's metadata
        # questions: the cold run's metadata is one summary fetch per
        # endpoint, and no ASK, check or COUNT probe.
        engine = make_engines(paper_federation, which=("Lusail",))["Lusail"]
        outcome = engine.execute(QA)
        assert outcome.ok and len(outcome.result) == 3
        assert outcome.metrics.metadata_request_count() == len(paper_federation.names())
        assert outcome.metrics.request_count(metrics_module.STATS) == len(paper_federation.names())

    def test_timeout_status(self, paper_federation):
        engines = make_engines(paper_federation, which=("FedX",), timeout_ms=0.1)
        result = run_query(engines["FedX"], "Qa", QA)
        assert result.status == "timeout"
        assert result.display_time() == "TIMEOUT"

    def test_run_matrix_covers_grid(self, paper_federation):
        engines = make_engines(paper_federation, which=("Lusail", "FedX"))
        results = run_matrix(engines, {"Qa": QA})
        assert {(r.engine, r.query) for r in results} == {("Lusail", "Qa"), ("FedX", "Qa")}


class TestReporting:
    def make_results(self):
        return [
            RunResult("Lusail", "Q1", "ok", 10.0, 1.0, 5, 100, 7),
            RunResult("FedX", "Q1", "ok", 100.0, 2.0, 50, 1000, 7),
            RunResult("Lusail", "Q2", "ok", 5.0, 1.0, 3, 10, 2),
            RunResult("FedX", "Q2", "timeout", 60000.0, 9.0, 9999, 0, 0),
        ]

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_results_by_query(self):
        text = results_by_query(self.make_results(), ("Lusail", "FedX"))
        assert "TIMEOUT" in text
        assert "10.0" in text and "100.0" in text

    def test_speedup_summary(self):
        text = speedup_summary(self.make_results(), baseline="FedX", target="Lusail")
        assert "10.0x" in text  # Q1: 100/10
        assert "FedX: TIMEOUT" in text  # Q2 baseline failed

    def test_display_time_variants(self):
        assert RunResult("E", "Q", "oom", 1, 1, 0, 0, 0).display_time() == "OOM"
        assert RunResult("E", "Q", "error", 1, 1, 0, 0, 0).display_time() == "ERROR"
        assert RunResult("E", "Q", "ok", 3.25, 1, 0, 0, 0).display_time() == "3.2"
