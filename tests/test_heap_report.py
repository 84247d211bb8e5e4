"""The size-class reader of ``scripts/heap_report.py``: it parses what
``sys._debugmallocstats()`` prints, and its counts follow allocations.
No workload is set up."""

import gc
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "heap_report.py"
_SPEC = importlib.util.spec_from_file_location("heap_report", _PATH)
heap_report = sys.modules.setdefault("heap_report", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(heap_report)


def test_size_classes_are_read_and_follow_allocations():
    # With the collector off, no other test's garbage is freed between
    # the two readings.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = heap_report.pymalloc_classes()
        # Three-tuples of fresh objects: one 64-byte block each.
        held = [(object(), object(), object()) for __ in range(20_000)]
        after = heap_report.pymalloc_classes()
    finally:
        if was_enabled:
            gc.enable()
    assert {16, 32, 48, 64} <= set(before)
    assert after[64][0] - before[64][0] >= 19_000
    assert len(held) == 20_000


def test_stderr_is_restored(capfd):
    heap_report.pymalloc_classes()
    print("still here", file=sys.stderr)
    assert "still here" in capfd.readouterr().err
