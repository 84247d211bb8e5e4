"""The ledger's four workloads.

Each workload generates its data from the seed, runs *rounds* — one
closed-loop pass of one client over a fixed op list — and can say what
every op should have returned by evaluating the same query over
``Federation.union_store()``.

The generators fix every entity count, so beside the generator's own
seed the ledger varies the counts by up to half a percent from the seed
(:func:`_jitter`): otherwise whole-extent queries (LUBM L14, Q6) return
the same rows for every seed and their virtual times never move.

Engines and servers are constructed with ``LusailConfig()`` /
``ServeConfig()`` defaults as they stand at the measured commit: the
program receives only generated inputs.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice
from time import perf_counter

from repro.core.engine import LusailEngine
from repro.datasets import largerdf, lubm, queries_largerdf, queries_lubm
from repro.harness.traffic import TrafficConfig, generate_arrivals
from repro.net import metrics as kinds
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.rdf.namespaces import RDF_TYPE, UB
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.serve import QueryServer
from repro.sparql import evaluate_select, parse_query
from repro.sparql.ast import SelectQuery
from repro.store.triple_store import TripleStore

_MASK = (1 << 64) - 1

#: Registry counters summed per round (labels collapsed).
COUNTERS = (
    "bytes_shipped_total",
    "lane_busy_virtual_ms_total",
    "metadata_requests_total",
    "subqueries_total",
    "delayed_subqueries_total",
    "bound_join_blocks_total",
    "partial_rows_total",
    "partial_pruned_rows_total",
    "probe_cache_hits_total",
    "probe_cache_misses_total",
    "mediator_kernel_build_rows_total",
    "mediator_kernel_probe_rows_total",
    "mediator_kernel_rows_emitted_total",
    "mediator_kernel_merge_dispatches_total",
    "mediator_kernel_fast_dispatches_total",
    "mediator_kernel_general_dispatches_total",
)


def digest(rows) -> tuple[int, int]:
    """Order-independent fingerprint of a row multiset (this process only)."""
    return len(rows), sum(map(hash, rows)) & _MASK


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def midmean(sorted_values: list[float]) -> float:
    """Mean of the middle half: as deaf to the tails as the median, but
    not the reading of one op (a round has 6 to 29 of them)."""
    cut = len(sorted_values) // 4
    return statistics.fmean(sorted_values[cut : len(sorted_values) - cut])


@lru_cache(maxsize=None)
def _is_sliced(text: str) -> bool:
    query = parse_query(text)
    return query.limit is not None or bool(query.offset)


@contextmanager
def _timed_calls(owner, attr: str):
    """Accumulate seconds spent in ``owner.attr`` while the block runs
    (set-up attribution only; removed before any round is measured)."""
    original = owner.__dict__[attr]
    total = [0.0]

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            total[0] += perf_counter() - start

    setattr(owner, attr, timed)
    try:
        yield total
    finally:
        setattr(owner, attr, original)


@dataclass
class RoundStats:
    """What one round produced."""

    #: op name -> wall seconds around the call (serve_churn: per window)
    op_wall_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    #: per-op (serve_churn: per-request) virtual latency
    latencies_ms: list[float] = field(default_factory=list)
    virtual_ms_total: float = 0.0
    requests: int = 0
    rows_shipped: int = 0
    result_rows: int = 0
    attempted: int = 0
    #: ops that raised or returned a status other than ok
    errors: int = 0
    #: (answer key, digest) -> times observed
    answers: Counter = field(default_factory=Counter)
    counters: dict[str, float] = field(default_factory=dict)
    #: summed Endpoint.plan_stats() deltas
    plan: tuple = (0, 0, 0, 0.0, 0.0)
    write_s: list[float] = field(default_factory=list)
    serve: dict[str, float] = field(default_factory=dict)

    def deterministic(self) -> tuple:
        """Everything that must repeat exactly from round to round."""
        return (
            self.latencies_ms,
            self.virtual_ms_total,
            self.requests,
            self.rows_shipped,
            self.result_rows,
            self.attempted,
            self.errors,
            sorted(self.counters.items()),
            self.plan[:3],
            sorted(self.serve.items()),
        )


def _plan_stats(federation) -> tuple:
    totals = [0, 0, 0, 0.0, 0.0]
    for endpoint in federation:
        for index, value in enumerate(endpoint.plan_stats()):
            totals[index] += value
    return tuple(totals)


def _counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    totals = {name: registry.counter_value(name) for name in COUNTERS}
    for kind in kinds.REQUEST_KINDS:
        totals[f"requests.{kind}"] = registry.counter_value("requests_total", kind=kind)
    return totals


def _delta(after: tuple, before: tuple) -> tuple:
    return tuple(a - b for a, b in zip(after, before))


class Workload:
    """Shared set-up bookkeeping, oracle and store probes."""

    name = ""
    #: Requests one op serves (``serve_churn``: the window).
    requests_per_op = 1
    #: Layers that must record spans in every traced round.
    expected_layers: tuple[str, ...] = ()
    #: Set-ups per untraced run (``setup_s`` is their median).  The two
    #: LUBM workloads set up once: at 2 x 118k triples one set-up with
    #: its warm-up round takes 7-10 s, and three of them would push the
    #: driver's 92 runs past its time cap.
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.federation = None
        #: generate_s, store_build_s, charsets_s, triples (per set-up)
        self.setup_parts: dict[str, float] = {}
        #: answer key -> query text
        self.texts: dict[object, str] = {}
        #: first rows seen for LIMIT/OFFSET queries (any window of the
        #: unsliced answer is right, so they are checked by containment)
        self._sliced_rows: dict[object, list] = {}

    # ------------------------------------------------------------- set-up

    def _build_federation(self):
        raise NotImplementedError

    def _after_build(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Generate data, build stores and summaries, construct the
        engine/server inputs."""
        start = perf_counter()
        with _timed_calls(TripleStore, "add_all") as store_seconds:
            self.federation = self._build_federation()
        built = perf_counter()
        for endpoint in self.federation:
            endpoint.charset_summary()
        self.setup_parts = {
            "generate_s": built - start - store_seconds[0],
            "store_build_s": store_seconds[0],
            "charsets_s": perf_counter() - built,
            "triples": float(self.federation.total_triples()),
        }
        self._after_build()

    def _observe(self, stats: RoundStats, key, rows) -> None:
        if _is_sliced(self.texts[key]):
            self._sliced_rows.setdefault(key, rows)
        stats.answers[(key, digest(rows))] += 1

    # ------------------------------------------------------------- oracle

    def _union_states(self):
        """Yield ``(state, union store)`` for every store state visited."""
        yield 0, self.federation.union_store()

    def _state_keys(self, state):
        return list(self.texts)

    def expected(self) -> dict[object, tuple | None]:
        """Answer key -> digest of the union-store answer.

        For LIMIT/OFFSET queries the digest is that of the rows the
        program returned, provided they are a sub-multiset of the
        unsliced oracle answer with the right count; None otherwise.
        """
        expected: dict[object, tuple | None] = {}
        for state, union in self._union_states():
            by_text: dict[str, tuple | None] = {}
            for key in self._state_keys(state):
                text = self.texts[key]
                if key in self._sliced_rows or text not in by_text:
                    by_text[text] = self._expected_one(union, key, text)
                expected[key] = by_text[text]
        return expected

    def _expected_one(self, union, key, text: str):
        query = parse_query(text)
        if query.limit is None and not query.offset:
            return digest(evaluate_select(union, query).rows)
        seen = self._sliced_rows.get(key)
        if seen is None:
            return None
        unsliced = SelectQuery(
            where=query.where,
            select_vars=query.select_vars,
            distinct=query.distinct,
            aggregate=query.aggregate,
        )
        full = evaluate_select(union, unsliced).rows
        available = max(0, len(full) - query.offset)
        want = available if query.limit is None else min(query.limit, available)
        if len(seen) != want or Counter(seen) - Counter(full):
            return None
        return digest(seen)

    # ------------------------------------------------------- store probes

    def probe_store(self, probes: int) -> dict[str, float]:
        """Stand-alone ``match_ids`` / ``count_ids`` probe loop on the
        largest store: half subject+predicate probes consumed to a list,
        half predicate+object counts, on triples sampled by the seed."""
        store = max(self.federation, key=len).store
        rng = random.Random(f"ledger-probe:{self.seed}")
        stride = max(1, len(store) // probes)
        sample = list(islice(store.scan_ids("spo"), rng.randrange(stride), None, stride))
        rng.shuffle(sample)
        batches = []
        for begin in range(0, len(sample), 500):
            batch = sample[begin : begin + 500]
            start = perf_counter()
            for index, (s, p, o) in enumerate(batch):
                if index & 1:
                    store.count_ids(None, p, o)
                else:
                    list(store.match_ids(s, p, None))
            batches.append((perf_counter() - start) / len(batch))
        nbytes = store.index_nbytes()
        return {
            "probe_us": statistics.median(batches) * 1e6,
            "probes": float(len(sample)),
            "index_bytes_per_triple": (nbytes or 0) / max(1, len(store)),
        }

    def write_probe(self, repeats: int) -> dict[str, float]:
        """Add and remove one synthetic student, timing the writes and
        the first ``charset_summary()`` after each; the store ends as it
        began."""
        endpoint = next(iter(self.federation))
        triples = _student_triples(0, len(self.federation))
        write_s, refresh_s = [], []
        for _ in range(repeats):
            for mutate in (endpoint.add, endpoint.remove):
                for triple in triples:
                    start = perf_counter()
                    mutate(triple)
                    write_s.append(perf_counter() - start)
                start = perf_counter()
                endpoint.charset_summary()
                refresh_s.append(perf_counter() - start)
        return {
            "write_us": statistics.median(write_s) * 1e6,
            "refresh_ms": statistics.median(refresh_s) * 1e3,
        }


def _jitter(count: int, rng: random.Random) -> int:
    """``count`` moved by at most half a percent."""
    return count + round(count * rng.uniform(-0.005, 0.005))


def _lubm_profile(scale: float, seed: int) -> lubm.UniversityProfile:
    profile = lubm.scaled_profile(scale)
    rng = random.Random(f"ledger-data:{seed}")
    return replace(
        profile,
        graduate_students_per_department=_jitter(
            profile.graduate_students_per_department, rng
        ),
        undergraduate_students_per_department=_jitter(
            profile.undergraduate_students_per_department, rng
        ),
    )


def _student_triples(university: int, universities: int) -> list[Triple]:
    """An answer-changing synthetic graduate student of one university."""
    base = f"http://www.university{university}.example.org/department0"
    student = IRI(f"{base}/ledger_student")
    return [
        Triple(student, RDF_TYPE, UB.GraduateStudent),
        Triple(student, UB.memberOf, IRI(base)),
        Triple(student, UB.takesCourse, IRI(f"{base}/course0_0")),
        Triple(student, UB.advisor, IRI(f"{base}/professor0")),
        Triple(
            student,
            UB.undergraduateDegreeFrom,
            lubm.university_iri((university + 1) % universities),
        ),
    ]


# ------------------------------------------------------------ engine loops


class EngineWorkload(Workload):
    """Closed loop of SELECT queries through ``LusailEngine.execute``."""

    #: A fresh engine (fresh EngineCaches) per op instead of one warm one.
    cold_engine = False
    expected_layers = (
        "planning.base_engine",
        "core.execution.scheduler",
        "endpoint.client",
        "net.simulator",
        "endpoint.endpoint",
    )

    def _queries(self) -> dict[str, str]:
        raise NotImplementedError

    def _after_build(self) -> None:
        # One fixed op order for every seed: a millisecond op that
        # follows an 800 ms one runs on a cold cache and allocator, and
        # a per-seed order would put that in the spread across seeds.
        self.ops = list(self._queries().items())
        self.texts = dict(self.ops)
        self.registry = MetricsRegistry()
        self.engine = None if self.cold_engine else self._engine()
        self._quiet_tracer = None if self.cold_engine else self.engine.tracer

    def _engine(self) -> LusailEngine:
        engine = LusailEngine(self.federation)
        engine.registry = self.registry
        return engine

    def run_round(self, round_index: int, recorder=None, tracer: bool = False) -> RoundStats:
        stats = RoundStats()
        # A registry per round: totals summed from zero repeat exactly,
        # differences of running float totals do not.
        self.registry = MetricsRegistry()
        if not self.cold_engine:
            self.engine.registry = self.registry
        plan_before = _plan_stats(self.federation)
        for op_index, (name, text) in enumerate(self.ops):
            if recorder is not None:
                recorder.op = (round_index, op_index)
            engine = self._engine() if self.cold_engine else self.engine
            if tracer:
                engine.tracer = Tracer(enabled=True)
            stats.attempted += 1
            # Freeing the previous op's answer is the client's cost, not
            # this op's.
            outcome = None
            start = perf_counter()
            try:
                outcome = engine.execute(text)
            except Exception:  # an op that raises is a failed op, not a crashed run
                stats.op_wall_s[name] = perf_counter() - start
                stats.errors += 1
                continue
            stats.op_wall_s[name] = perf_counter() - start
            metrics = outcome.metrics
            stats.latencies_ms.append(metrics.virtual_ms)
            stats.requests += metrics.request_count()
            stats.rows_shipped += metrics.rows_shipped()
            stats.result_rows += len(outcome.result)
            if outcome.status != "ok":
                stats.errors += 1
                continue
            self._observe(stats, name, outcome.result.rows)
        if tracer and not self.cold_engine:
            self.engine.tracer = self._quiet_tracer
        stats.wall_s = sum(stats.op_wall_s.values())
        stats.virtual_ms_total = sum(stats.latencies_ms)
        stats.counters = _counter_totals(self.registry)
        stats.plan = _delta(_plan_stats(self.federation), plan_before)
        return stats


class LubmWorkload(EngineWorkload):
    op_names: tuple[str, ...] = ()
    setup_repeats = 1

    def _build_federation(self):
        profile = lubm.SMALL_PROFILE if self.smoke else _lubm_profile(6, self.seed)
        return lubm.build_federation(2, profile, seed=self.seed)

    def _queries(self) -> dict[str, str]:
        queries = dict(queries_lubm.queries())
        queries.update(lubm.crossing_queries())
        return {name: queries[name] for name in self.op_names}


class LubmLocal(LubmWorkload):
    name = "lubm_local"
    op_names = ("L2", "L5", "L6", "L9", "L13", "L14")


class LubmCrossing(LubmWorkload):
    name = "lubm_crossing"
    op_names = ("Q4", "Q5", "Q6", "L1", "L3", "L4", "L7", "L8", "L10", "L11", "L12")


class LargeRdfCold(EngineWorkload):
    name = "largerdf_cold"
    cold_engine = True

    def _build_federation(self):
        scale = 0.25 if self.smoke else 4.0
        scale *= 1.0 + random.Random(f"ledger-data:{self.seed}").uniform(-0.005, 0.005)
        return largerdf.build_federation(scale=scale, seed=self.seed, hub_scale=scale)

    def _queries(self) -> dict[str, str]:
        return queries_largerdf.paper_selection()


# ---------------------------------------------------------------- serving


class ServeChurn(Workload):
    """An open-loop arrival stream replayed in windows through a fresh
    ``QueryServer`` per round, one write between windows.

    The stream is one pinned ``generate_arrivals`` replay; the data
    under it comes from the seed.  Ten different 600-request streams
    moved the summed virtual latency by 18% and its p99 by 20%
    (interquartile range over the median), and re-timing the same
    query sequence still moved p99 by 24%: no bound could tell a
    regression from a new stream.
    """

    name = "serve_churn"
    universities = 4
    #: Requests per ``server.run``; with 25 the executed share is 0.57,
    #: so the median request is an executed one, not a cache hit.
    window = 25
    requests_per_op = window
    mean_gap_ms = 20.0
    traffic_seed = 1
    expected_layers = ("serve.server", *EngineWorkload.expected_layers)

    def _build_federation(self):
        profile = lubm.TINY_PROFILE if self.smoke else _lubm_profile(2, self.seed)
        return lubm.build_federation(self.universities, profile, seed=self.seed)

    def _after_build(self) -> None:
        queries = {
            f"{name}.u{university}": text
            for university in range(self.universities)
            for name, text in queries_lubm.queries(university).items()
        }
        self.groups = [
            _student_triples(university, self.universities)
            for university in range(self.universities)
        ]
        # An odd window count: the last window runs on the base state.
        windows = 5 if self.smoke else 13
        arrivals = generate_arrivals(
            queries,
            TrafficConfig(
                requests=windows * self.window,
                tenants=4,
                seed=self.traffic_seed,
                zipf_s=1.1,
                mean_gap_ms=self.mean_gap_ms,
            ),
        )
        self.windows = [
            arrivals[begin : begin + self.window]
            for begin in range(0, len(arrivals), self.window)
        ]
        self.texts = {
            (name, state): text
            for state in range(len(self.groups) + 1)
            for name, text in queries.items()
        }

    def _state(self, window_index: int) -> int:
        """0 is the base state; state g has write group g-1 present."""
        if window_index % 2 == 0:
            return 0
        return 1 + (window_index // 2) % len(self.groups)

    def _write(self, window_index: int, write_s: list[float]) -> None:
        """Move the federation into the state of ``window_index``."""
        previous, state = self._state(window_index - 1), self._state(window_index)
        endpoints = list(self.federation)
        for group_state, add in ((previous, False), (state, True)):
            if group_state == 0:
                continue
            endpoint = endpoints[group_state - 1]
            mutate = endpoint.add if add else endpoint.remove
            for triple in self.groups[group_state - 1]:
                start = perf_counter()
                mutate(triple)
                write_s.append(perf_counter() - start)

    def run_round(self, round_index: int, recorder=None, tracer: bool = False) -> RoundStats:
        stats = RoundStats()
        registry = MetricsRegistry()
        server = QueryServer(self.federation, registry=registry)
        if tracer:
            # One tracer per engine, so interleaved workers cannot
            # corrupt a shared span stack.  (QueryServer's own tracer
            # cannot be enabled: its serve.query span passes ``name``
            # twice to Tracer.span and raises TypeError.)
            untraced_engine = server.engine_factory

            def traced_engine():
                engine = untraced_engine()
                engine.tracer = Tracer(enabled=True)
                return engine

            server.engine_factory = traced_engine
        plan_before = _plan_stats(self.federation)
        records = []
        for window_index, window in enumerate(self.windows):
            if window_index:
                self._write(window_index, stats.write_s)
            if recorder is not None:
                recorder.op = (round_index, window_index)
            state = self._state(window_index)
            stats.attempted += len(window)
            served = None
            start = perf_counter()
            try:
                served = server.run(window)
            except Exception:  # the whole window failed
                stats.op_wall_s[f"w{window_index:02d}"] = perf_counter() - start
                stats.errors += len(window)
                continue
            stats.op_wall_s[f"w{window_index:02d}"] = perf_counter() - start
            records.extend(served)
            digests: dict[int, tuple] = {}
            for record in served:
                if not record.ok or record.result is None:
                    stats.errors += 1
                    continue
                rows = record.result.rows
                fingerprint = digests.get(id(rows))
                if fingerprint is None:
                    fingerprint = digests[id(rows)] = digest(rows)
                stats.answers[((record.name, state), fingerprint)] += 1
        stats.wall_s = sum(stats.op_wall_s.values()) + sum(stats.write_s)
        stats.latencies_ms = [record.latency_ms for record in records]
        stats.virtual_ms_total = sum(stats.latencies_ms)
        stats.requests = int(registry.counter_value("requests_total"))
        stats.rows_shipped = int(registry.counter_value("rows_shipped_total"))
        stats.result_rows = sum(record.result_rows for record in records)
        stats.counters = _counter_totals(registry)
        stats.plan = _delta(_plan_stats(self.federation), plan_before)
        paths = Counter(record.path for record in records)
        waits = sorted(r.start_ms - r.arrival_ms for r in records if r.path == "executed")
        half = len(records) // 2
        first = sorted(record.latency_ms for record in records[:half])
        second = sorted(record.latency_ms for record in records[half:])
        cache = server.result_cache
        stats.serve = {
            "executed_share": paths["executed"] / max(1, len(records)),
            "attach_share": paths["attach"] / max(1, len(records)),
            "cache_hit_ratio": cache.hits / max(1, cache.hits + cache.misses),
            "cache_invalidations": float(cache.invalidations),
            "mqo_subquery_hits": float(server.mqo_subquery_hits),
            "queue_wait_virtual_ms_p50": nearest_rank(waits, 0.5) if waits else 0.0,
            "makespan_virtual_ms": max((r.finish_ms for r in records), default=0.0),
            "backlog_ratio": (
                nearest_rank(second, 0.5) / nearest_rank(first, 0.5) if first and second else 0.0
            ),
        }
        return stats

    def _union_states(self):
        union = self.federation.union_store()
        yield 0, union
        for index, group in enumerate(self.groups):
            for triple in group:
                union.add(triple)
            yield index + 1, union
            for triple in group:
                union.remove(triple)

    def _state_keys(self, state):
        return [key for key in self.texts if key[1] == state]


WORKLOADS = {
    workload.name: workload for workload in (LubmLocal, LubmCrossing, LargeRdfCold, ServeChurn)
}
