"""Smoke test of the ledger: ``pytest benchmarks/ledger -q``.

Drives ``run.py --smoke`` (tiny scale, two rounds) through the same code
path as a real run — set-up, rounds, oracle, span wrappers, trace
coverage — for all four workloads, untraced and traced, and checks the output
against BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("# ledger "), "header with nproc/python/numpy missing"
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_smoke(workload):
    untraced = _run(workload, 0)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [entry["name"] for entry in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        measured = untraced["metrics"][entry["name"]]
        assert measured["unit"] == entry["unit"] and measured["value"] > 0

    traced = _run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [entry["name"] for entry in SPEC["per_layer"]]
    for entry in SPEC["per_layer"]:
        assert traced["metrics"][entry["name"]]["unit"] == entry["unit"]
    # At most 1% of any op's wall time lies outside its root span.
    assert traced["metrics"]["ledger.root_gap_max"]["value"] <= 0.01
    assert (ROOT / "benchmarks/ledger/out" / f"{workload}.spans.jsonl").stat().st_size > 0


def test_aggregate_round():
    sys.path.insert(0, str(HERE))
    import layers

    op = (0, 0)
    # (id, parent, layer, callable, start, end, op, thread)
    spans = [(2, 1, "inner", "f", 0.2, 0.5, op, 0), (1, 0, "outer", "root", 0.0, 1.0, op, 0)]
    layer_self, layer_calls, roots = layers.aggregate_round(spans)
    assert layer_self == pytest.approx({"outer": 0.7, "inner": 0.3})
    assert layer_calls == {"outer": 1, "inner": 1} and roots == {op: 1.0}
    # A worker thread's busy time comes out of the root layer's self time ...
    worker = [(3, 0, "inner", "g", 0.5, 0.9, op, 1), (4, 3, layers.PARKED, "gate", 0.6, 0.8, op, 1)]
    layer_self, _, _ = layers.aggregate_round(spans + worker)
    assert layer_self == pytest.approx({"outer": 0.5, "inner": 0.5})
    # ... and cannot exceed the root: then threads ran side by side.
    with pytest.raises(RuntimeError):
        layers.aggregate_round(spans + [(3, 0, "inner", "g", 0.0, 1.5, op, 1)])
