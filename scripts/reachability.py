"""Which ``src/`` functions does no production run call?

    python scripts/reachability.py

A one-off, standard-library reachability pass.  Every run below starts
a fresh ``python`` whose ``sitecustomize`` (generated into a temporary
directory put first on ``PYTHONPATH``) installs a call-only global
tracer on every thread: ``sys.settrace`` and ``threading.settrace``
with a function that records the code object of each new frame and
returns ``None``, so no line events are traced.  Subprocesses the runs
start are traced the same way.  At exit each process writes the
``(file, first line)`` of the code it ran under ``src/repro``.

Production runs: the figure benchmarks (``pytest benchmarks``; the
committed ``benchmarks/results/`` are restored afterwards), the four
ledger workloads with ``--smoke``, untraced and traced, every script in
``examples/``, and a CLI smoke (``query``, ``explain``,
``explain-analyze`` traced to a file and over every engine, ``chaos`` on
the tiny LUBM federation, and a ``query`` that writes its trace in the
Chrome format).  Then the tier-1
suite runs the same way.  The report lists every function or method
defined in ``src/repro`` (from the AST; lambdas and comprehensions
excluded) that no production run called, marking with ``*`` those
tier-1 does not call either and with ``L`` those the ledger wraps
(``TARGETS`` in ``benchmarks/ledger/layers.py``): a wrapped name stays
while the ledger pins it.

The committed report is ``benchmarks/results/reachability.txt``.  Send
the output elsewhere and copy it there afterwards: the run restores
``benchmarks/results/`` after the figure benchmarks, so a file being
written into it would be overwritten midway.

It takes many minutes (the tracer costs every Python call a function
call), so it is not part of ``scripts/check.sh``.  It writes nothing
into the repository but the restored result files and the ledger's own
ignored ``benchmarks/ledger/out/``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
RESULTS = ROOT / "benchmarks" / "results"
LAYERS = ROOT / "benchmarks" / "ledger" / "layers.py"
WORKLOADS = ("lubm_local", "lubm_crossing", "largerdf_cold", "serve_churn")
CLI_FEDERATION = ("--benchmark", "lubm", "--endpoints", "2", "--profile", "tiny")

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_seen = set()


def _tracer(frame, event, arg):
    _seen.add(frame.f_code)
    return None


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    calls = sorted(
        {{(code.co_filename, code.co_firstlineno) for code in _seen
          if code.co_filename.startswith({package!r})}}
    )
    path = os.path.join({out!r}, "%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump(calls, handle)


atexit.register(_dump)
threading.settrace(_tracer)
sys.settrace(_tracer)
'''


def production_runs(scratch: Path) -> list[tuple[str, list[str]]]:
    """(label, python arguments) of every production run."""
    runs = [
        (
            "figure benchmarks",
            ["-m", "pytest", "benchmarks", "--ignore=benchmarks/ledger",
             "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        )
    ]  # fmt: skip
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            runs.append(
                (
                    f"ledger {workload} --trace {trace}",
                    ["benchmarks/ledger/run.py", "--workload", workload, "--seed", "1",
                     "--smoke", "--trace", trace],
                )
            )  # fmt: skip
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [str(example)]))
    cli = [
        ["query", *CLI_FEDERATION, "--name", "Q4"],
        ["query", *CLI_FEDERATION, "--name", "Q4", "--engine", "FedX"],
        ["query", *CLI_FEDERATION, "--name", "Q4",
         "--trace-out", str(scratch / "trace.chrome.json"), "--trace-format", "chrome"],
        ["explain", *CLI_FEDERATION, "--name", "Q4"],
        ["explain-analyze", *CLI_FEDERATION, "--name", "Q4",
         "--trace-out", str(scratch / "trace.jsonl"), "--json", str(scratch / "reports.json")],
        ["explain-analyze", *CLI_FEDERATION, "--name", "Q4", "--engine", "all"],
        ["chaos", *CLI_FEDERATION, "--faults", "none,transient,outage", "--partial"],
    ]  # fmt: skip
    runs.extend((f"repro {args[0]}", ["-m", "repro", *args]) for args in cli)
    return runs


TIER1 = [("tier-1", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"])]


def run_traced(runs, scratch: Path) -> set[tuple[str, int]]:
    """Run each under the tracer; the union of the code they called."""
    hook = scratch / "hook"
    out = scratch / "calls"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=str(PACKAGE), out=str(out))
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook), str(SRC))))
    for label, args in runs:
        start = time.perf_counter()
        status = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode  # fmt: skip
        print(f"#   {label:40s} exit {status}  {time.perf_counter() - start:7.1f} s", flush=True)
    called: set[tuple[str, int]] = set()
    for dump in out.glob("*.json"):
        called.update((path, line) for path, line in json.loads(dump.read_text()))
    shutil.rmtree(hook)
    shutil.rmtree(out)
    return called


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, line count) of every def
    under ``src/repro``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    functions: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                functions[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return functions


def ledger_pinned() -> set[tuple[str, str]]:
    """(file, qualified name) of every callable the ledger wraps.

    ``layers.py`` imports only the standard library, so it is loaded
    from its path without putting ``benchmarks/`` on ``sys.path``.
    """
    spec = importlib.util.spec_from_file_location("ledger_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {
        (str(PACKAGE.joinpath(*module.split(".")[1:]).with_suffix(".py")), name)
        for __, module, name in layers.TARGETS
    }


def main() -> int:
    functions = defined_functions()
    pinned = ledger_pinned()
    committed = {path.name: path.read_bytes() for path in RESULTS.glob("*.txt")}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        try:
            print("# production runs")
            production = run_traced(production_runs(Path(scratch)), Path(scratch))
        finally:
            for name, data in committed.items():
                (RESULTS / name).write_bytes(data)
        print("# tier-1")
        tests = run_traced(TIER1, Path(scratch))
    unreached = sorted(key for key in functions if key not in production)
    print()
    print(f"# {len(functions)} functions under src/repro; {len(unreached)} never called by a")
    both = [key for key in unreached if key not in tests]
    wrapped = {key for key in unreached if (key[0], functions[key][0]) in pinned}
    print(
        f"# production run ({sum(functions[key][1] for key in unreached)} lines); "
        f"{len(both)} of them (*) not by tier-1 either; {len(wrapped)} (L) wrapped "
        f"by the ledger; {time.perf_counter() - started:.0f} s in all"
    )
    for key in unreached:
        path, line = key
        name, lines = functions[key]
        mark = ("*" if key not in tests else " ") + ("L" if key in wrapped else " ")
        print(f"{mark} {Path(path).relative_to(SRC)}:{line}  {name}  ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
