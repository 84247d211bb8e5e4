"""The performance ledger: one workload, one seed, one run.

    python3 benchmarks/ledger/run.py --workload lubm_local --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` measures the per-layer metrics with the ledger's span
wrappers installed around each layer's public callables.  Both build the
workload from the seed, check every answer against the union-store
oracle, print each metric by name with its unit and sample count, and
end with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

#: Fewest measured rounds a wall-clock median may rest on.
MIN_ROUNDS = 9
#: Fewest traced rounds a layer's self time may rest on.
MIN_TRACED_ROUNDS = 3
#: Largest share of an op's wall time that may lie outside its root span.
ROOT_GAP_LIMIT = 0.01
#: Stand-alone store probes in the traced run.
STORE_PROBES = 10_000

_REFERENCE_KEYS = tuple(range(1 << 15))
_REFERENCE_TABLE = {key: (key * 2654435761) & 0xFFFF for key in _REFERENCE_KEYS}


def reference_loop_s() -> float:
    """Seconds this machine takes right now for the *reference loop*, a
    fixed piece of interpreter work (4 x 32,768 dict probes with int
    arithmetic; allocates nothing the collector tracks): the best of
    three.

    The sandbox's speed shifts by 20-30% for minutes at a time, whatever
    runs on it, so wall seconds of two runs minutes apart do not compare
    (README, "Wall time and the reference loop").  The ledger reports
    every wall time as measured, and beside ``round_wall_s`` and
    ``op_wall_ms_gmean`` the same times in reference loops, each round
    divided by the mean of the loop times taken just before and just
    after it.
    """
    table = _REFERENCE_TABLE
    best = float("inf")
    for _ in range(3):
        total = 0
        start = perf_counter()
        for _ in range(4):
            for key in _REFERENCE_KEYS:
                total += table[key] ^ key
        best = min(best, perf_counter() - start)
    return best


#: The metrics of ``--trace 0``'s JSON line, as BENCHMARK.json lists them.
END_TO_END = (
    "setup_s",
    "round_wall_ref",
    "op_wall_ref_gmean",
    "virtual_ms_total",
    "virtual_ms_midmean",
    "virtual_ms_p99",
    "requests_total",
    "rows_shipped_total",
    "peak_rss_mb",
)


def _import_program():
    """The program under test lives in ``src/`` of the checkout."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    import layers
    import workloads

    return layers, workloads


def _header(args) -> None:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    print(
        f"# ledger workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={int(args.smoke)} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy_version}"
    )


def _set_up(cls, args, repeats: int):
    """Set up ``repeats`` times (each with its warm-up round) and keep
    the last; returns the workload, the warm-up rounds and the set-up
    seconds."""
    workload, warm_ups, seconds = None, [], []
    for _ in range(repeats):
        workload = None
        gc.collect()
        start = perf_counter()
        workload = cls(args.seed, args.smoke)
        workload.setup()
        warm_ups.append(workload.run_round(-1))
        seconds.append(perf_counter() - start)
    # Old-generation scans over the interned terms are scheduler-like
    # noise, not the program under test.
    gc.collect()
    gc.freeze()
    return workload, warm_ups, seconds


def _measure(workload, seconds: float, min_rounds: int, **kwargs):
    """Rounds for ``seconds``, at least ``min_rounds``, and per round
    the reference-loop seconds around it (mean of before and after)."""
    rounds, loops = [], [reference_loop_s()]
    begin = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - begin < seconds:
        rounds.append(workload.run_round(len(rounds), **kwargs))
        loops.append(reference_loop_s())
    return rounds, [(before + after) / 2 for before, after in zip(loops, loops[1:])]


def _verify(workload, rounds) -> tuple[int, int, float]:
    """(attempted, failed, oracle seconds) over the given rounds."""
    start = perf_counter()
    gc.disable()
    try:
        expected = workload.expected()
    finally:
        gc.enable()
    attempted = failed = 0
    for stats in rounds:
        attempted += stats.attempted
        failed += stats.errors
        for (key, fingerprint), times in stats.answers.items():
            if expected.get(key) != fingerprint:
                failed += times
    return attempted, failed, perf_counter() - start


def _same_everywhere(rounds, what: str) -> bool:
    first = rounds[0].deterministic()
    for index, stats in enumerate(rounds[1:], start=1):
        if stats.deterministic() != first:
            print(f"# NOT DETERMINISTIC: {what}: round {index} differs from round 0")
            return False
    return True


def _op_medians(workload, rounds, divisors) -> dict[str, float]:
    """Op name -> median over the rounds of the op's wall seconds (per
    request on ``serve_churn``) over the round's divisor."""
    return {
        name: statistics.median(
            stats.op_wall_s[name] / divisor for stats, divisor in zip(rounds, divisors)
        )
        / workload.requests_per_op
        for name in rounds[0].op_wall_s
    }


def _emit(values: dict, samples: dict, names, correct: bool, attempted: int, failed: int) -> int:
    """Print every value by name with its unit; the closing JSON line
    carries the metrics in ``names``, which BENCHMARK.json lists."""
    for name, (value, unit) in values.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:48s} {value:>18.6f} {unit}{note}")
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in names}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


# ------------------------------------------------------------- untraced run


def run_untraced(layers, workloads, args) -> int:
    cls = workloads.WORKLOADS[args.workload]
    wrapped = layers.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"untraced run with span wrappers installed: {wrapped}")
    workload, warm_ups, setup_seconds = _set_up(cls, args, 1 if args.smoke else cls.setup_repeats)
    rounds, loops = _measure(workload, args.seconds, 2 if args.smoke else MIN_ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deterministic = _same_everywhere(rounds, "measured rounds")
    attempted, failed, verify_s = _verify(workload, [warm_ups[-1], *rounds])
    attempted += sum(stats.attempted for stats in warm_ups[:-1])
    failed += sum(stats.errors for stats in warm_ups[:-1])

    one = rounds[0]
    latencies = sorted(one.latencies_ms)
    op_medians_s = _op_medians(workload, rounds, [1.0] * len(rounds))
    values = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "round_wall_s": (statistics.median(stats.wall_s for stats in rounds), "s"),
        "op_wall_ms_gmean": (statistics.geometric_mean(op_medians_s.values()) * 1e3, "ms"),
        "reference_loop_ms": (statistics.median(loops) * 1e3, "ms"),
        "round_wall_ref": (
            statistics.median(stats.wall_s / loop for stats, loop in zip(rounds, loops)),
            "refloops",
        ),
        "op_wall_ref_gmean": (
            statistics.geometric_mean(_op_medians(workload, rounds, loops).values()),
            "refloops",
        ),
        "virtual_ms_total": (one.virtual_ms_total, "virtual_ms"),
        "virtual_ms_midmean": (workloads.midmean(latencies), "virtual_ms"),
        "virtual_ms_p99": (workloads.nearest_rank(latencies, 0.99), "virtual_ms"),
        "requests_total": (one.requests, "count"),
        "rows_shipped_total": (one.rows_shipped, "rows"),
        "result_rows_total": (one.result_rows, "rows"),
        "failed_share": (failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verify_s": (verify_s, "s"),
    }
    per_op = f"{len(one.op_wall_s)} ops x {len(rounds)} rounds"
    samples = {
        "setup_s": len(setup_seconds),
        "round_wall_s": len(rounds),
        "op_wall_ms_gmean": per_op,
        "reference_loop_ms": len(loops),
        "round_wall_ref": len(rounds),
        "op_wall_ref_gmean": per_op,
        "virtual_ms_midmean": f"the middle half of {len(latencies)}",
        "virtual_ms_p99": f"{len(latencies)}; the max below 100 samples",
    }
    print(f"# triples={int(workload.setup_parts['triples'])} rounds={len(rounds)}")
    for name, seconds in sorted(op_medians_s.items()):
        print(f"#   op {name:8s} median wall {seconds * 1e3:10.3f} ms")
    return _emit(values, samples, END_TO_END, deterministic and failed == 0, attempted, failed)


# --------------------------------------------------------------- traced run


def _write_spans(spans, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as handle:
        for sid, parent, layer, name, start, end, (round_index, op_index), thread in spans:
            span = {
                "id": sid, "parent": parent, "layer": layer, "name": name, "start": start,
                "end": end, "round": round_index, "op": op_index, "thread": thread,
            }  # fmt: skip
            handle.write(json.dumps(span) + "\n")


def run_traced(layers, workloads, args) -> int:
    cls = workloads.WORKLOADS[args.workload]
    workload, warm_ups, _seconds = _set_up(cls, args, 1)

    plain, plain_loops = _measure(workload, args.seconds * 0.25, 2)
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        traced, traced_loops = _measure(
            workload, args.seconds * 0.5, 2 if args.smoke else MIN_TRACED_ROUNDS, recorder=recorder
        )
    finally:
        recorder.uninstall()
    wrapped = layers.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"span wrappers left installed: {wrapped}")
    tracer_on, tracer_loops = _measure(workload, args.seconds * 0.25, 2, tracer=True)
    store = workload.probe_store(200 if args.smoke else STORE_PROBES)
    writes = workload.write_probe(2 if args.smoke else 10)

    # Timing must not change behaviour: traced, untraced and
    # tracer-enabled rounds agree on every deterministic number.
    deterministic = _same_everywhere([*plain, *traced, *tracer_on], "plain/traced/tracer rounds")
    attempted, failed, verify_s = _verify(workload, [*warm_ups, *plain, *traced, *tracer_on])

    # Time outside every span: each op's root span against the op's
    # wall time taken around the call, outside the wrappers.  The root
    # lies inside that wall time, so noise only widens the gap: an op's
    # gap is the smallest it shows in any traced round.
    per_round = []
    gaps = [1.0] * len(traced[0].op_wall_s)
    for index, stats in enumerate(traced):
        spans = [span for span in recorder.spans if span[6][0] == index]
        layer_self, layer_calls, roots = layers.aggregate_round(spans)
        per_round.append((layer_self, layer_calls))
        for op_index, wall in enumerate(stats.op_wall_s.values()):
            gap = abs(wall - roots.get((index, op_index), 0.0)) / wall
            gaps[op_index] = min(gaps[op_index], gap)
    root_gap_max = max(gaps)
    _write_spans(recorder.spans, OUT_DIR / f"{args.workload}.spans.jsonl")
    silent = [
        layer
        for layer in workload.expected_layers
        if not all(layer_calls.get(layer) for _, layer_calls in per_round)
    ]
    covered = root_gap_max <= ROOT_GAP_LIMIT and not silent

    def self_ms(layer: str) -> float:
        seconds = statistics.median(layer_self.get(layer, 0.0) for layer_self, _ in per_round)
        return seconds * 1e3

    def calls(layer: str) -> float:
        return float(per_round[0][1].get(layer, 0))

    one = traced[0]
    counter = one.counters
    hits, misses, evictions = one.plan[:3]
    probe_lookups = counter["probe_cache_hits_total"] + counter["probe_cache_misses_total"]
    plain_wall = statistics.median(stats.wall_s for stats in plain)
    partial_runs = sum(
        1 for span in recorder.spans if span[6][0] == 0 and span[3] == "PartialBranchScheduler.run"
    )
    scheduler_runs = sum(
        1 for span in recorder.spans if span[6][0] == 0 and span[3] == "BranchScheduler.run"
    )
    parts = workload.setup_parts
    write_s = [seconds for stats in traced for seconds in stats.write_s]

    def median_of(getter) -> float:
        return statistics.median(getter(stats) for stats in traced)

    values: list[tuple[str, float, str]] = []
    for layer in layers.SPAN_LAYERS:
        if layer in ("endpoint.endpoint", "store.digests"):
            continue
        values.append((f"{layer}.self_ms", self_ms(layer), "ms"))
        if layer != "planning.base_engine":
            values.append((f"{layer}.calls", calls(layer), "count"))
    values += [
        ("planning.source_selection.ask_requests", counter["requests.ask"], "count"),
        ("planning.stats.stats_requests", counter["requests.stats"], "count"),
        ("planning.stats.count_requests", counter["requests.count"], "count"),
        ("planning.stats.metadata_requests", counter["metadata_requests_total"], "count"),
        ("core.decomposition.check_requests", counter["requests.check"], "count"),
        ("core.decomposition.subqueries", counter["subqueries_total"], "count"),
        ("core.execution.cost_model.delayed_subqueries", counter["delayed_subqueries_total"], "count"),
        ("core.execution.scheduler.bound_join_blocks", counter["bound_join_blocks_total"], "count"),
        ("core.execution.partial.partial_rows", counter["partial_rows_total"], "rows"),
        ("core.execution.partial.pruned_rows", counter["partial_pruned_rows_total"], "rows"),
        (
            "core.execution.partial.partial_share",
            partial_runs / max(1, partial_runs + scheduler_runs),
            "ratio",
        ),
        ("endpoint.client.bytes_shipped", counter["bytes_shipped_total"], "bytes"),
        (
            "endpoint.client.probe_cache_hit_ratio",
            counter["probe_cache_hits_total"] / max(1.0, probe_lookups),
            "ratio",
        ),
        ("net.simulator.lane_busy_virtual_ms", counter["lane_busy_virtual_ms_total"], "virtual_ms"),
        ("endpoint.endpoint.busy_ms", self_ms("endpoint.endpoint"), "ms"),
        ("endpoint.endpoint.calls", calls("endpoint.endpoint"), "count"),
        ("sparql.plan.compile_ms", median_of(lambda stats: stats.plan[3]) * 1e3, "ms"),
        ("sparql.plan.execute_ms", median_of(lambda stats: stats.plan[4]) * 1e3, "ms"),
        ("sparql.plan.cache_hit_ratio", hits / max(1, hits + misses), "ratio"),
        ("sparql.plan.cache_evictions", float(evictions), "count"),
        (
            "store.triple_store.build_ms_per_ktriple",
            parts["store_build_s"] * 1e6 / parts["triples"],
            "ms",
        ),
        ("store.triple_store.index_bytes_per_triple", store["index_bytes_per_triple"], "bytes"),
        ("store.triple_store.probe_us", store["probe_us"], "us"),
        (
            "store.triple_store.write_us",
            statistics.median(write_s) * 1e6 if write_s else writes["write_us"],
            "us",
        ),
        ("store.charsets.build_ms", parts["charsets_s"] * 1e3, "ms"),
        ("store.charsets.refresh_ms", writes["refresh_ms"], "ms"),
        ("store.digests.build_ms", self_ms("store.digests"), "ms"),
        ("store.digests.calls", calls("store.digests"), "count"),
    ]
    for name in ("build_rows", "probe_rows", "rows_emitted"):
        values.append(
            (f"relational.relation.{name}", counter[f"mediator_kernel_{name}_total"], "rows")
        )
    for name in ("merge_dispatches", "fast_dispatches", "general_dispatches"):
        values.append(
            (f"relational.relation.{name}", counter[f"mediator_kernel_{name}_total"], "count")
        )
    for name, unit in (
        ("executed_share", "ratio"),
        ("attach_share", "ratio"),
        ("cache_hit_ratio", "ratio"),
        ("cache_invalidations", "count"),
        ("mqo_subquery_hits", "count"),
        ("queue_wait_virtual_ms_p50", "virtual_ms"),
        ("makespan_virtual_ms", "virtual_ms"),
        ("backlog_ratio", "ratio"),
    ):
        values.append((f"serve.server.{name}", one.serve.get(name, 0.0), unit))
    values += [
        ("datasets.generate_ms", parts["generate_s"] * 1e3, "ms"),
        (
            "obs.trace.ledger_overhead_ratio",
            statistics.median(stats.wall_s for stats in traced) / plain_wall,
            "ratio",
        ),
        (
            "obs.trace.tracer_overhead_ratio",
            statistics.median(stats.wall_s for stats in tracer_on) / plain_wall,
            "ratio",
        ),
        (
            "ledger.reference_loop_ms",
            statistics.median([*plain_loops, *traced_loops, *tracer_loops]) * 1e3,
            "ms",
        ),
        ("ledger.root_gap_max", root_gap_max, "ratio"),
        ("ledger.result_rows_total", float(one.result_rows), "rows"),
        ("ledger.verify_s", verify_s, "s"),
    ]
    metrics = {name: (value, unit) for name, value, unit in values}
    samples = {
        name: f"{len(traced)} traced rounds" for name in metrics if name.endswith(".self_ms")
    }
    samples["endpoint.endpoint.busy_ms"] = f"{len(traced)} traced rounds"
    samples["store.triple_store.probe_us"] = f"{int(store['probes'])} probes"
    samples["obs.trace.ledger_overhead_ratio"] = f"{len(traced)} traced / {len(plain)} plain rounds"
    samples["obs.trace.tracer_overhead_ratio"] = f"{len(tracer_on)} / {len(plain)} plain rounds"
    print(
        f"# triples={int(parts['triples'])} spans={len(recorder.spans)} "
        f"spans_file={(OUT_DIR / (args.workload + '.spans.jsonl')).relative_to(ROOT)}"
    )
    if not covered:
        print(
            f"# TRACE DOES NOT COVER THE ROUND: worst per-op gap between wall time and root "
            f"span {root_gap_max:.4f} (limit {ROOT_GAP_LIMIT}); layers without spans: {silent}"
        )
    correct = deterministic and covered and failed == 0
    return _emit(metrics, samples, list(metrics), correct, attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny scale, two rounds, same code path"
    )
    args = parser.parse_args(argv)
    layers, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.smoke:
        args.seconds = 0.0
    _header(args)
    return (run_traced if args.trace else run_untraced)(layers, workloads, args)


if __name__ == "__main__":
    sys.exit(main())
