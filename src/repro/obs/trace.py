"""Hierarchical span tracing for the query lifecycle.

A :class:`Span` covers one stage of a federated query execution —
source selection, a single locality check query, the delay decision, one
phase-2 bound-join block, a mediator join — and records the stage's
**virtual-time** interval plus free-form attributes (endpoint, subquery
id, rows, estimated vs. actual cardinality).

Because the simulator threads virtual timestamps explicitly through the
engines, spans do not read a clock: instrumentation code passes the
start time to :meth:`Tracer.span` and the end time to :meth:`Span.end`.
A span whose end was never set closes at the latest child end time.

Tracing is **disabled by default** and designed to cost nothing when
off: :meth:`Tracer.span` then returns a shared no-op span, no object is
allocated per call, and virtual-time accounting is untouched either way
(spans only *observe* timestamps the engines already compute).  A
tracer is on or off for its whole life, and there is no process-wide
one: every engine builds its own disabled tracer, and a traced run
assigns ``engine.tracer = Tracer(enabled=True)``.

Spans nest through an explicit stack kept by the tracer, which matches
the single-threaded structure of the virtual-time engines: ``with
tracer.span(...)`` pushes, exiting pops.  Concurrent *virtual* work
(e.g. branches evaluated in parallel) appears as sibling spans with
overlapping intervals; :attr:`Span.exclusive_ms` accounts for that by
subtracting the union of child intervals, not their sum.
"""

from __future__ import annotations

from typing import Any, Iterator


class Span:
    """One traced stage: a named virtual-time interval with attributes."""

    __slots__ = ("id", "parent_id", "name", "t0_ms", "t1_ms", "attrs", "children", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        t0_ms: float,
        attrs: dict[str, Any],
    ):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0_ms = t0_ms
        self.t1_ms: float | None = None
        self.attrs = attrs
        self.children: list[Span] = []
        self._tracer = tracer

    # ------------------------------------------------------------- recording

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def end(self, t1_ms: float) -> "Span":
        """Close the span's virtual interval."""
        self.t1_ms = t1_ms
        return self

    # ----------------------------------------------------------- derived data

    @property
    def inclusive_ms(self) -> float:
        """Total virtual time covered by this span."""
        end = self.t1_ms if self.t1_ms is not None else self.t0_ms
        return max(0.0, end - self.t0_ms)

    @property
    def exclusive_ms(self) -> float:
        """Virtual time not covered by any child (children may overlap)."""
        end = self.t1_ms if self.t1_ms is not None else self.t0_ms
        intervals = sorted(
            (max(self.t0_ms, child.t0_ms), min(end, child.t1_ms or child.t0_ms))
            for child in self.children
        )
        covered = 0.0
        cursor = self.t0_ms
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return max(0.0, self.inclusive_ms - covered)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendants (and self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    # -------------------------------------------------------- context manager

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.id}, t0={self.t0_ms:.2f}, "
            f"t1={self.t1_ms if self.t1_ms is None else round(self.t1_ms, 2)}, "
            f"attrs={self.attrs})"
        )


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    id = 0
    parent_id = None
    name = "<disabled>"
    t0_ms = 0.0
    t1_ms = 0.0
    attrs: dict[str, Any] = {}
    children: tuple = ()
    inclusive_ms = 0.0
    exclusive_ms = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, t1_ms: float) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, name: str) -> list:
        return []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()

SpanLike = Span | _NullSpan


class Tracer:
    """Builds the span tree; disabled (free) unless enabled explicitly."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # --------------------------------------------------------------- spans

    def span(self, name: str, t0: float | None = None, **attrs: Any) -> SpanLike:
        """Open a span at virtual time ``t0`` (defaults to the parent's start).

        Use as a context manager so the nesting stack unwinds on errors::

            with tracer.span("source_selection", t0=now) as sp:
                ...
                sp.set(requests=n).end(finish)
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if t0 is None:
            t0 = parent.t0_ms if parent is not None else 0.0
        span = Span(
            tracer=self,
            span_id=self._next_id,
            parent_id=parent.id if parent is not None else None,
            name=name,
            t0_ms=t0,
            attrs=dict(attrs),
        )
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        # Exiting out of order (an exception skipped inner __exit__ calls)
        # unwinds everything above the span as well.
        while self._stack:
            top = self._stack.pop()
            if top.t1_ms is None:
                child_end = max((c.t1_ms or c.t0_ms for c in top.children), default=top.t0_ms)
                top.t1_ms = max(top.t0_ms, child_end)
            if top is span:
                break

    def all_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()
