"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``  write a benchmark federation to disk as N-Triples files
``query``     execute a query over a benchmark federation with any engine
``explain``   print Lusail's compile-time plan for a query
``explain-analyze``  traced run: est→act rows, q-error, critical path,
              per-endpoint table, cache / kernel / latency / lane lines
``chaos``     run queries under injected faults and report resilience

The paper's figures are the ``benchmarks/`` suite:
``pytest benchmarks/bench_<figure>.py --benchmark-disable -s``.

Examples::

    python -m repro generate --benchmark lubm --endpoints 4 --out /tmp/lubm
    python -m repro query --benchmark lubm --name Q4 --engine FedX
    python -m repro explain --benchmark qfed --name Drug
    python -m repro explain-analyze --benchmark lubm --name Q4 --trace-out /tmp/q4.jsonl
    python -m repro explain-analyze --benchmark lubm --name Q4 --engine all
    python -m repro chaos --benchmark lubm --faults transient,outage --partial
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.engine import LusailEngine
from repro.datasets import bio2rdf, io as dataset_io, largerdf, lubm, qfed, queries_largerdf
from repro.endpoint.federation import Federation
from repro.exceptions import ReproError
from repro.faults import FAULT_PROFILES, ResiliencePolicy, default_chaos_policy
from repro.harness import ENGINE_ORDER, make_engines, profile_query, reports_to_json, run_chaos
from repro.net.simulator import geo_distributed_config, local_cluster_config
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    endpoint_summary_table,
    plan_cache_summary,
    render_explain_analyze,
    render_q_error_table,
    write_trace_chrome,
    write_trace_jsonl,
)


def _build_federation(args) -> Federation:
    geo = getattr(args, "geo", False)
    if args.benchmark == "lubm":
        profile = {
            "small": lubm.SMALL_PROFILE,
            "bench": lubm.BENCH_PROFILE,
            "tiny": lubm.TINY_PROFILE,
        }[args.profile]
        scale = getattr(args, "scale", 1.0)
        if scale != 1.0:
            profile = lubm.scaled_profile(scale, base=profile)
        return lubm.build_federation(args.endpoints, profile=profile, seed=args.seed, geo=geo)
    if args.benchmark == "qfed":
        return qfed.build_federation(seed=args.seed, geo=geo)
    if args.benchmark == "largerdf":
        return largerdf.build_federation(scale=args.scale, seed=args.seed, geo=geo)
    if args.benchmark == "bio2rdf":
        return bio2rdf.build_federation(seed=args.seed, geo=geo)
    raise SystemExit(f"unknown benchmark {args.benchmark!r}")


def _named_queries(benchmark: str) -> dict[str, str]:
    if benchmark == "lubm":
        return lubm.queries()
    if benchmark == "qfed":
        queries = dict(qfed.queries())
        queries["Drug"] = qfed.drug_query()
        return queries
    if benchmark == "largerdf":
        return queries_largerdf.all_queries()
    if benchmark == "bio2rdf":
        return bio2rdf.queries()
    raise SystemExit(f"unknown benchmark {benchmark!r}")


def _resolve_query(args) -> str:
    if args.query_file:
        with open(args.query_file, encoding="utf-8") as stream:
            return stream.read()
    if args.name:
        queries = _named_queries(args.benchmark)
        if args.name not in queries:
            raise SystemExit(
                f"unknown query {args.name!r}; available: {', '.join(sorted(queries))}"
            )
        return queries[args.name]
    raise SystemExit("provide --name or --query-file")


def _add_federation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", required=True,
                        choices=["lubm", "qfed", "largerdf", "bio2rdf"])
    parser.add_argument("--endpoints", type=int, default=4, help="LUBM universities")
    parser.add_argument("--profile", default="small", choices=["small", "bench", "tiny"])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (LUBM university size, LargeRDFBench scale)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--geo", action="store_true", help="spread endpoints over cloud regions")


def cmd_generate(args) -> int:
    federation = _build_federation(args)
    path = dataset_io.save_federation(federation, args.out)
    print(f"wrote {len(federation)} endpoints ({federation.total_triples()} triples) to {path}")
    return 0


def _outcome_json(engine_name: str, query_name: str | None, outcome) -> dict:
    metrics = outcome.metrics
    return {
        "engine": engine_name,
        "query": query_name,
        "status": outcome.status,
        "virtual_ms": round(metrics.virtual_ms, 6),
        "wall_ms": round(metrics.wall_ms, 6),
        "requests": metrics.request_count(),
        "rows_shipped": metrics.rows_shipped(),
        "result_rows": len(outcome.result),
        "phase_ms": {k: round(v, 6) for k, v in metrics.phase_ms.items()},
        "requests_by_kind": dict(metrics.requests_by_kind()),
    }


def _write_trace(roots: list[Span], args) -> None:
    """Write the collected trace in the requested format (--trace-out)."""
    if args.trace_format == "chrome":
        events = write_trace_chrome(roots, args.trace_out)
        print(f"chrome trace ({events} events) written to {args.trace_out}")
    else:
        write_trace_jsonl(roots, args.trace_out)
        print(f"trace written to {args.trace_out}")


def _lusail_config(args):
    """Lusail config overrides from CLI flags, or None for the defaults."""
    if args.strategy is None:
        return None
    from repro.core.engine import LusailConfig

    return LusailConfig(strategy=args.strategy)


def cmd_query(args) -> int:
    federation = _build_federation(args)
    config = geo_distributed_config() if args.geo else local_cluster_config()
    tracer = Tracer(enabled=True) if args.trace_out else None
    engines = make_engines(
        federation,
        network_config=config,
        which=(args.engine,),
        tracer=tracer,
        lusail_config=_lusail_config(args),
    )
    engine = engines[args.engine]
    text = _resolve_query(args)
    outcome = engine.execute(text)
    print(f"status: {outcome.status}")
    for row in outcome.result.rows[: args.limit]:
        print("  " + " | ".join("NULL" if v is None else v.n3() for v in row))
    if len(outcome.result) > args.limit:
        print(f"  ... {len(outcome.result) - args.limit} more rows")
    print(
        f"{len(outcome.result)} rows, {outcome.metrics.request_count()} requests, "
        f"{outcome.metrics.rows_shipped()} rows shipped, "
        f"{outcome.metrics.virtual_ms:.2f} virtual ms"
    )
    if args.trace_out:
        _write_trace(tracer.roots, args)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(_outcome_json(args.engine, args.name, outcome), stream, indent=2)
            stream.write("\n")
        print(f"summary written to {args.json}")
    return 0 if outcome.ok else 1


def _probe_cache_line(registry: MetricsRegistry) -> str:
    """One-line probe-cache hit/miss summary from the registry."""
    kinds = registry.label_values("probe_cache_hits_total", "kind") | registry.label_values(
        "probe_cache_misses_total", "kind"
    )
    if not kinds:
        return ""
    parts = []
    for kind in sorted(kinds):
        hits = int(registry.counter_value("probe_cache_hits_total", kind=kind))
        misses = int(registry.counter_value("probe_cache_misses_total", kind=kind))
        total = hits + misses
        rate = hits / total if total else 0.0
        parts.append(f"{kind} {hits}/{total} ({rate:.0%})")
    return "probe caches (hits/lookups): " + ", ".join(parts)


def _kernel_line(registry: MetricsRegistry) -> str:
    """One-line summary of columnar mediator join-kernel work."""
    fast = int(registry.counter_value("mediator_kernel_fast_dispatches_total"))
    general = int(registry.counter_value("mediator_kernel_general_dispatches_total"))
    emitted = int(registry.counter_value("mediator_kernel_rows_emitted_total"))
    if not (fast or general or emitted):
        return ""
    build = int(registry.counter_value("mediator_kernel_build_rows_total"))
    probe = int(registry.counter_value("mediator_kernel_probe_rows_total"))
    return (
        f"mediator join kernels: {fast} fast / {general} general dispatches, "
        f"{build} build rows, {probe} probe rows, {emitted} rows emitted"
    )


def _latency_line(registry: MetricsRegistry) -> str:
    """Request-latency percentile summary from the registry histogram."""
    stats = registry.histogram("request_virtual_ms")
    if not stats.count:
        return ""
    return (
        f"request latency (virtual ms): p50 {stats.p50:.2f}, p95 {stats.p95:.2f}, "
        f"p99 {stats.p99:.2f}, max {stats.max:.2f} over {stats.count} requests"
    )


def _lane_line(metrics) -> str:
    """Per-endpoint lane utilization over the query's virtual makespan."""
    utilization = metrics.lane_utilization()
    if not utilization:
        return ""
    parts = [f"{endpoint} {fraction:.0%}" for endpoint, fraction in utilization.items()]
    return "endpoint lane utilization: " + ", ".join(parts)


def _requests_by_kind_line(metrics) -> str:
    """Per-kind request counts (issued, plus cache hits) for one query.

    Covers every request kind on the wire — subquery selects, bound
    blocks, ask/check/count probes, stats fetches, and whole-branch
    ``partial`` rounds — in the stable REQUEST_KINDS order.
    """
    from repro.net.metrics import REQUEST_KINDS

    issued = metrics.requests_by_kind()
    total = metrics.requests_by_kind(include_cached=True)
    parts = []
    for kind in REQUEST_KINDS:
        count = issued.get(kind, 0)
        cached = total.get(kind, 0) - count
        if not count and not cached:
            continue
        suffix = f" (+{cached} cached)" if cached else ""
        parts.append(f"{kind} {count}{suffix}")
    return ", ".join(parts) if parts else "(none)"


def _print_run_summary(run) -> None:
    """What one traced run sent where, and what the registry counted:
    the per-endpoint table, then one line per layer that did the work."""
    registry, metrics = run.registry, run.outcome.metrics
    print(endpoint_summary_table(metrics))
    print()
    metadata = metrics.metadata_request_count()
    metadata_cached = metrics.metadata_request_count(include_cached=True) - metadata
    lines = (
        _probe_cache_line(registry),
        _kernel_line(registry),
        plan_cache_summary(registry),
        f"metadata requests per query: {metadata} issued "
        f"({metadata_cached} served from cache); by kind: "
        + _requests_by_kind_line(metrics),
        _latency_line(registry),
        _lane_line(metrics),
    )
    for line in lines:
        if line:
            print(line)


def cmd_explain_analyze(args) -> int:
    """Execute a query traced and print the annotated EXPLAIN ANALYZE tree."""
    if args.trace_out and args.engine == "all":
        raise ReproError(
            "--trace-out takes one --engine: span ids are unique only within one trace"
        )
    federation = _build_federation(args)
    config = geo_distributed_config() if args.geo else local_cluster_config()
    text = _resolve_query(args)
    which = list(ENGINE_ORDER) if args.engine == "all" else [args.engine]
    runs = []
    failed = False
    for engine_name in which:
        run = profile_query(
            engine_name,
            federation,
            args.name or "-",
            text,
            network_config=config,
            lusail_config=_lusail_config(args),
        )
        runs.append(run)
        report = run.report
        print(f"== {engine_name} ==")
        if run.root is not None:
            print(render_explain_analyze(run.root))
            print()
        print(render_q_error_table(report.q_error))
        print()
        _print_run_summary(run)
        print(
            f"status: {report.status}; {report.result_rows} rows, "
            f"{report.requests} requests, {report.rows_shipped} rows shipped; "
            f"critical path {report.critical_path_ms:.2f} of "
            f"{report.virtual_ms:.2f} virtual ms "
            f"({len(report.critical_path)} spans); "
            f"worst q-error {report.worst_q_error:.2f}"
        )
        print()
        failed = failed or not run.outcome.ok
    if args.trace_out:
        _write_trace([runs[0].root], args)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(
                reports_to_json([run.report for run in runs]),
                stream, indent=2, sort_keys=True,
            )
            stream.write("\n")
        print(f"profile reports written to {args.json}")
    return 1 if failed else 0


def cmd_chaos(args) -> int:
    """Run benchmark queries under injected faults and print the report."""
    federation = _build_federation(args)
    config = geo_distributed_config() if args.geo else local_cluster_config()
    queries = _named_queries(args.benchmark)
    if args.queries:
        wanted = [name.strip() for name in args.queries.split(",") if name.strip()]
        unknown = [name for name in wanted if name not in queries]
        if unknown:
            raise SystemExit(
                f"unknown queries {', '.join(unknown)}; available: {', '.join(sorted(queries))}"
            )
        queries = {name: queries[name] for name in wanted}
    profiles = [name.strip() for name in args.faults.split(",") if name.strip()]
    unknown = [name for name in profiles if name not in FAULT_PROFILES]
    if unknown:
        raise SystemExit(
            f"unknown fault profiles {', '.join(unknown)}; available: {', '.join(FAULT_PROFILES)}"
        )
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    if args.no_resilience:
        resilience: ResiliencePolicy | None = None
    else:
        resilience = ResiliencePolicy(
            request_timeout_ms=default_chaos_policy().request_timeout_ms,
            max_retries=args.retries,
            seed=args.fault_seed,
            breaker_enabled=True,
        )
    report = run_chaos(
        federation,
        queries,
        profiles=profiles,
        which=engines,
        resilience=resilience,
        partial_results=args.partial,
        network_config=config,
        fault_seed=args.fault_seed,
    )
    print(report.format_runs())
    print()
    print(report.format_summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(report.to_json(), stream, indent=2)
            stream.write("\n")
        print(f"chaos report written to {args.json}")
    return 0


def cmd_explain(args) -> int:
    federation = _build_federation(args)
    engine = LusailEngine(federation)
    print(engine.explain(_resolve_query(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a federation to disk")
    _add_federation_args(generate)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_generate)

    query = subparsers.add_parser("query", help="execute a federated query")
    _add_federation_args(query)
    query.add_argument("--engine", default="Lusail", choices=ENGINE_ORDER)
    query.add_argument("--name", help="named benchmark query (e.g. Q1, C2P2, S3, R1)")
    query.add_argument("--query-file", help="file containing a SPARQL query")
    query.add_argument("--limit", type=int, default=10, help="rows to print")
    query.add_argument("--strategy", choices=["auto", "partial", "bound-join"],
                       help="Lusail execution strategy (default: engine default)")
    query.add_argument("--trace-out", help="write the query's span trace")
    query.add_argument("--trace-format", default="jsonl", choices=["jsonl", "chrome"],
                       help="trace file format (JSONL spans or Chrome trace events)")
    query.add_argument("--json", help="write a machine-readable run summary")
    query.set_defaults(func=cmd_query)

    explain = subparsers.add_parser("explain", help="print Lusail's plan")
    _add_federation_args(explain)
    explain.add_argument("--name")
    explain.add_argument("--query-file")
    explain.set_defaults(func=cmd_explain)

    explain_analyze = subparsers.add_parser(
        "explain-analyze",
        help="execute a query traced; print est→act rows, q-error, critical path",
    )
    _add_federation_args(explain_analyze)
    explain_analyze.add_argument("--engine", default="Lusail", choices=[*ENGINE_ORDER, "all"])
    explain_analyze.add_argument("--name", help="named benchmark query")
    explain_analyze.add_argument("--query-file", help="file containing a SPARQL query")
    explain_analyze.add_argument(
        "--strategy", choices=["auto", "partial", "bound-join"],
        help="Lusail execution strategy (default: engine default)")
    explain_analyze.add_argument("--trace-out", help="write the traced run's spans")
    explain_analyze.add_argument("--trace-format", default="jsonl", choices=["jsonl", "chrome"],
                                 help="trace file format (JSONL spans or Chrome trace events)")
    explain_analyze.add_argument("--json", help="write the ProfileReport(s) as JSON")
    explain_analyze.set_defaults(func=cmd_explain_analyze)

    chaos = subparsers.add_parser(
        "chaos", help="run queries under injected faults and report resilience"
    )
    _add_federation_args(chaos)
    chaos.add_argument("--engines", default="Lusail,FedX",
                       help="comma-separated engine names")
    chaos.add_argument("--faults", default="none,transient",
                       help=f"comma-separated fault profiles ({', '.join(FAULT_PROFILES)})")
    chaos.add_argument("--queries", help="comma-separated query names (default: all)")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault plan and retry jitter")
    chaos.add_argument("--retries", type=int, default=3, help="max retries per request")
    chaos.add_argument("--no-resilience", action="store_true",
                       help="disable timeouts, retries, and circuit breakers")
    chaos.add_argument("--partial", action="store_true",
                       help="Lusail drops dead endpoints instead of failing")
    chaos.add_argument("--json", help="write the chaos report as JSON")
    chaos.set_defaults(func=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A query the engines refuse or cannot parse is the user's input,
        # not a crash: one line, exit status 2 (argparse's usage status).
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
