"""Labeled counters and histograms for the federation layer.

A :class:`MetricsRegistry` is the shared sink every component reports
into: the virtual network (per-endpoint request/row/byte counters and
request-duration histograms, labeled by engine and request kind), the
scheduler (bound-join blocks, mediator join rows), the estimate audit
(per-decision q-error series), and the engines themselves (queries by
status, delayed subqueries).  It supersedes the ad-hoc per-component
counters: aggregate anything by filtering on labels instead of
threading counts through return values.

Metric series are keyed by ``(name, sorted labels)``.  Counters are
monotonic floats; histograms keep count/sum/min/max plus fixed
log2-scale buckets, from which approximate p50/p95/p99 are derived —
still cheap enough to leave always on (the registry never touches
virtual time).  There is no process-wide registry: every engine builds
its own, and whoever wants to read counters across engines (a traced
run, a ``QueryServer``, the ledger) assigns one to each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


#: Log2-bucket index range.  Bucket ``i`` covers ``(2**(i-1), 2**i]``;
#: values at or below zero land in the underflow bucket ``_BUCKET_LO``.
_BUCKET_LO = -64
_BUCKET_HI = 64


def _bucket_index(value: float) -> int:
    if value <= 0.0:
        return _BUCKET_LO
    index = math.ceil(math.log2(value))
    return max(_BUCKET_LO, min(_BUCKET_HI, index))


@dataclass
class HistogramStats:
    """Summary statistics of one histogram series.

    Alongside count/sum/min/max, observations fall into fixed log2
    buckets (bucket ``i`` holds values in ``(2**(i-1), 2**i]``), giving
    approximate percentiles without storing samples.  ``min`` and
    ``max`` are ``None`` while the series is empty, so sentinel
    infinities never leak into reports.
    """

    count: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "HistogramStats") -> None:
        """Fold another series into this one (used by registry queries)."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Approximate q-quantile (``q`` in [0, 1]) from the log2 buckets.

        Returns the upper bound of the bucket where the cumulative count
        crosses ``q * count``, clamped to the observed [min, max] — so
        the estimate is never outside the true value range.  ``None``
        for an empty series.
        """
        if not self.count or self.min is None or self.max is None:
            return None
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                upper = self.min if index == _BUCKET_LO else float(2**index)
                return min(self.max, max(self.min, upper))
        return self.max

    @property
    def p50(self) -> float | None:
        return self.percentile(0.50)

    @property
    def p95(self) -> float | None:
        return self.percentile(0.95)

    @property
    def p99(self) -> float | None:
        return self.percentile(0.99)


class MetricsRegistry:
    """Labeled counter / histogram store."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._histograms: dict[tuple[str, LabelKey], HistogramStats] = {}

    # ------------------------------------------------------------ recording

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        stats = self._histograms.get(key)
        if stats is None:
            stats = self._histograms[key] = HistogramStats()
        stats.observe(value)

    # -------------------------------------------------------------- queries

    def counter_value(self, name: str, **labels: Any) -> float:
        """Sum of all series of ``name`` whose labels include ``labels``."""
        wanted = set(_label_key(labels))
        return sum(
            value
            for (metric, key), value in self._counters.items()
            if metric == name and wanted <= set(key)
        )

    def counter_series(self, name: str) -> dict[LabelKey, float]:
        """Every label combination recorded for one counter."""
        return {
            key: value for (metric, key), value in self._counters.items() if metric == name
        }

    def label_values(self, name: str, label: str) -> set[str]:
        """Distinct values one label takes across a counter's series."""
        values: set[str] = set()
        for (metric, key), __ in self._counters.items():
            if metric != name:
                continue
            for label_name, label_value in key:
                if label_name == label:
                    values.add(label_value)
        return values

    def histogram(self, name: str, **labels: Any) -> HistogramStats:
        """Merged histogram stats across matching series.

        When no series matches, the result is an *empty* stats object
        (count 0, ``min``/``max`` ``None``) — not infinity sentinels.
        """
        wanted = set(_label_key(labels))
        merged = HistogramStats()
        for (metric, key), stats in self._histograms.items():
            if metric != name or not wanted <= set(key):
                continue
            merged.merge(stats)
        return merged

    def histogram_series(self, name: str) -> dict[LabelKey, HistogramStats]:
        """Every label combination recorded for one histogram."""
        return {
            key: stats
            for (metric, key), stats in self._histograms.items()
            if metric == name
        }

