"""Ledger-side span recording around each layer's public callables.

Nothing under ``src/`` knows about this module: the traced run installs
a timing wrapper over every callable in :data:`TARGETS` (for functions,
in every loaded ``repro`` module that imported the name), records one
span per call, and removes the wrappers again.  Spans stay in memory
and are aggregated into per-layer self times afterwards.

A span is ``(id, parent id, layer, callable, start, end, op id, thread
index)``.  Parent ids come from a per-thread stack: on
``serve_churn`` each admitted query runs on its own worker thread, and
exactly one thread is runnable at any time (the server's baton
hand-off), so a worker's time parked in ``QueryServer.gate`` belongs to
whoever holds the baton and is accounted under :data:`PARKED`, which is
no layer.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from time import perf_counter

#: Pseudo-layer of ``QueryServer.gate``: the worker is parked, other
#: threads' spans cover the interval.
PARKED = "parked"

#: ``(layer, module, qualified name)``: the public callables wrapped in
#: the traced run.  Every callable belongs to exactly one layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sparql.parser", "repro.sparql.parser", "parse_query"),
    ("planning.normalize", "repro.planning.normalize", "normalize"),
    ("planning.source_selection", "repro.planning.source_selection", "select_sources"),
    (
        "planning.source_selection",
        "repro.planning.source_selection",
        "refine_sources_with_bindings",
    ),
    ("core.decomposition", "repro.core.decomposition.gjv", "detect_gjvs"),
    ("core.decomposition", "repro.core.decomposition.decomposer", "decompose"),
    ("core.execution.cost_model", "repro.core.execution.cost_model", "collect_statistics"),
    ("core.execution.cost_model", "repro.core.execution.cost_model", "decide_delays"),
    ("core.execution.join_order", "repro.core.execution.join_order", "plan_joins"),
    ("core.execution.join_order", "repro.core.execution.join_order", "execute_plan"),
    # PartialBranchScheduler inherits run(); the wrapper files its spans
    # under core.execution.partial (see _variant_layer).
    ("core.execution.scheduler", "repro.core.execution.scheduler", "BranchScheduler.run"),
    ("core.execution.partial", "repro.core.execution.partial", "choose_strategy"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.ask"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.check"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.count"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.select"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.partial"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.stats_summary"),
    ("endpoint.client", "repro.endpoint.client", "FederationClient.join_digest"),
    ("endpoint.client", "repro.serve.client", "ServingClient.select"),
    ("net.simulator", "repro.net.simulator", "VirtualNetwork.request"),
    ("net.simulator", "repro.serve.client", "ServingNetwork.request"),
    ("endpoint.endpoint", "repro.endpoint.endpoint", "Endpoint.select"),
    ("endpoint.endpoint", "repro.endpoint.endpoint", "Endpoint.ask"),
    ("endpoint.endpoint", "repro.endpoint.endpoint", "Endpoint.evaluate"),
    ("endpoint.endpoint", "repro.endpoint.endpoint", "Endpoint.partial_evaluate"),
    ("endpoint.endpoint", "repro.endpoint.endpoint", "Endpoint.ask_pattern"),
    ("endpoint.endpoint", "repro.endpoint.endpoint", "Endpoint.count_pattern"),
    ("store.charsets", "repro.endpoint.endpoint", "Endpoint.charset_summary"),
    ("store.digests", "repro.endpoint.endpoint", "Endpoint.join_digest"),
    ("relational.relation", "repro.relational.relation", "Relation.join"),
    ("relational.relation", "repro.relational.relation", "Relation.left_join"),
    ("relational.relation", "repro.relational.relation", "Relation.union"),
    ("relational.relation", "repro.relational.relation", "Relation.project"),
    ("relational.relation", "repro.relational.relation", "Relation.distinct"),
    ("relational.relation", "repro.relational.relation", "Relation.from_result"),
    ("planning.base_engine", "repro.planning.base_engine", "FederatedEngine.execute"),
    ("serve.server", "repro.serve.server", "QueryServer.run"),
    (PARKED, "repro.serve.server", "QueryServer.gate"),
)

#: Layers that own spans, in pipeline order (README tables use it).
SPAN_LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(layer for layer, _, _ in TARGETS if layer != PARKED)
)

_MARK = "__ledger_original__"


def _variant_layer(layer: str, qualname: str):
    """Call-time layer choice for callables shared by two layers."""
    if qualname != "BranchScheduler.run":
        return None
    from repro.core.execution.partial import PartialBranchScheduler

    def pick(args) -> tuple[str, str]:
        if isinstance(args[0], PartialBranchScheduler):
            return "core.execution.partial", "PartialBranchScheduler.run"
        return layer, qualname

    return pick


class SpanRecorder:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Set by the ledger before each op; stamped on every span.
        self.op: tuple[int, int] = (-1, -1)
        self._ids = itertools.count(1)
        #: Thread 0 is the thread that issues ops; serving workers count up.
        self._issuer = threading.get_ident()
        self._threads = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, function, layer: str, name: str, variant):
        spans = self.spans
        ids = self._ids
        threads = self._threads
        issuer = self._issuer
        local = self._local
        recorder = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = 0 if threading.get_ident() == issuer else next(threads)
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                where = (layer, name) if variant is None else variant(args)
                spans.append(
                    (span_id, parent, where[0], where[1], start, end, recorder.op, local.thread)
                )

        wrapper.__name__ = getattr(function, "__name__", name)
        wrapper.__doc__ = function.__doc__
        setattr(wrapper, _MARK, function)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            variant = _variant_layer(layer, qualname)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, layer, qualname, variant))
                else:
                    wrapped = self._wrap(raw, layer, qualname, variant)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(original, layer, qualname, variant)
            # ``from x import f`` copies the binding: patch every loaded
            # repro module that holds it.
            for holder_name, holder in list(sys.modules.items()):
                if holder is None or not holder_name.startswith("repro"):
                    continue
                if holder.__dict__.get(qualname) is original:
                    self._patched.append((holder, qualname, original))
                    setattr(holder, qualname, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def installed_wrappers() -> list[str]:
    """Names of targets currently wrapped (must be empty when untraced)."""
    found = []
    for _layer, module_name, qualname in TARGETS:
        module = importlib.import_module(module_name)
        target = module
        for part in qualname.split("."):
            target = getattr(target, part)
        if hasattr(getattr(target, "__func__", target), _MARK):
            found.append(f"{module_name}.{qualname}")
    return found


# ------------------------------------------------------------ aggregation


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> self seconds (duration minus direct children)."""
    child_sum: dict[int, float] = {}
    for _sid, parent, _layer, _name, start, end, _op, _thread in spans:
        if parent:
            child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_sum.get(sid, 0.0)
        for sid, _parent, _layer, _name, start, end, _op, _thread in spans
    }


def aggregate_round(
    spans: list[tuple],
) -> tuple[dict[str, float], dict[str, int], dict[tuple, float]]:
    """Per-layer self seconds and call counts of one round's spans, and
    op id -> seconds of the op's root span (its parentless span on the
    issuing thread).

    Self time is duration minus children, so on one thread the layers'
    self times add up to the root span by construction.  What the spans
    cannot show is time outside every span: the caller compares each
    root with the op's wall time taken outside the wrappers.

    Parentless spans on serving worker threads overlap the root in wall
    time but run only while the issuer waits for them, so their busy
    time (duration minus time parked in the gate) is taken out of the
    root layer's self time; if it exceeds the root's duration, threads
    overlapped and the self times cannot be read as shares of the round.
    """
    own = self_times(spans)
    layer_self: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    # op -> [root seconds, root layer, worker busy seconds]
    ops: dict[tuple, list] = {}
    for sid, parent, layer, _name, start, end, op, thread in spans:
        state = ops.setdefault(op, [0.0, None, 0.0])
        if layer == PARKED:
            state[2] -= end - start
            continue
        layer_self[layer] = layer_self.get(layer, 0.0) + own[sid]
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        if not parent:
            if thread == 0:
                state[0] += end - start
                state[1] = layer
            else:
                state[2] += end - start
    for op, (root, root_layer, busy) in ops.items():
        if root_layer is None:
            raise RuntimeError(f"op {op} recorded spans but no root span")
        if busy > root:
            raise RuntimeError(f"op {op}: worker threads were busy {busy:.6f} s of a {root:.6f} s root")
        layer_self[root_layer] -= busy
    return layer_self, layer_calls, {op: root for op, (root, _, _) in ops.items()}
