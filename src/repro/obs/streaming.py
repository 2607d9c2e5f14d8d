"""Bounded-memory streaming aggregation of serving metrics.

:class:`MetricsCollector` consumes the same hook stream the trace recorder
does, but keeps only fixed-size state: latency log histograms
(:class:`~repro.obs.sketch.StreamingLatency`) plus per-replica,
per-``window_seconds`` time series of utilization, queue depth, KV
occupancy and batch size.  Memory is O(replicas x windows) — windows scale
with simulated duration, never with request count — which is the shape the
million-request roadmap item needs.  Export with
:func:`repro.obs.export.prometheus_text`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.serve.metrics import DEFAULT_PERCENTILES

from .sketch import StreamingLatency


@dataclass
class _ReplicaSeries:
    """Per-window aggregates for one replica."""

    busy: list[float] = field(default_factory=list)      # busy seconds in window
    queue_depth: list[int] = field(default_factory=list)  # max depth seen
    kv_used: list[int] = field(default_factory=list)      # max KV tokens held
    batch_sum: list[int] = field(default_factory=list)
    batch_count: list[int] = field(default_factory=list)
    kv_capacity: int = 0
    total_busy: float = 0.0
    total_batches: int = 0
    total_requests: int = 0

    def _grow(self, bucket: int) -> None:
        while len(self.busy) <= bucket:
            self.busy.append(0.0)
            self.queue_depth.append(0)
            self.kv_used.append(0)
            self.batch_sum.append(0)
            self.batch_count.append(0)


class MetricsCollector:
    """Streaming run statistics over fixed-width windows.

    The per-window series use max (queue depth, KV occupancy) or
    proportional attribution (busy seconds are split across every window a
    span overlaps), so a long decode span shows up as utilization in each
    window it covered rather than a spike at its start.
    """

    def __init__(self, window_seconds: float = 1.0,
                 percentiles: Sequence[float] = DEFAULT_PERCENTILES):
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        self.window_seconds = window_seconds
        self.latency = StreamingLatency(percentiles)
        self.queue_wait = StreamingLatency(percentiles)
        self.ttft = StreamingLatency(percentiles)
        self.tpot = StreamingLatency(percentiles)
        self.arrivals: list[int] = []
        self.completions: list[int] = []
        self.replicas: dict[str, _ReplicaSeries] = {}
        self.report = None

    def _bucket(self, ts: float) -> int:
        return max(0, int(ts / self.window_seconds))

    def _series(self, name: str) -> _ReplicaSeries:
        series = self.replicas.get(name)
        if series is None:
            series = self.replicas[name] = _ReplicaSeries()
        return series

    def _grow_run(self, bucket: int) -> None:
        while len(self.arrivals) <= bucket:
            self.arrivals.append(0)
            self.completions.append(0)

    # ------------------------------------------------------------------ hooks

    def on_arrival(self, ts: float) -> None:
        bucket = self._bucket(ts)
        self._grow_run(bucket)
        self.arrivals[bucket] += 1

    def on_completion(self, ts: float, latency: float,
                      queue_wait: float | None = None) -> None:
        bucket = self._bucket(ts)
        self._grow_run(bucket)
        self.completions[bucket] += 1
        self.latency.add(latency)
        if queue_wait is not None:
            self.queue_wait.add(queue_wait)

    def on_ttft(self, value: float) -> None:
        self.ttft.add(value)

    def on_tpot(self, value: float) -> None:
        self.tpot.add(value)

    def on_dispatch(self, name: str, start: float, end: float,
                    batch_size: int, requests: int = 0) -> None:
        """One busy span on a replica (batch, prefill chunk or decode step)."""

        series = self._series(name)
        series.total_busy += end - start
        series.total_batches += 1
        series.total_requests += requests
        first = self._bucket(start)
        last = self._bucket(max(start, end - 1e-12)) if end > start else first
        series._grow(last)
        bucket_bound = series.batch_sum
        bucket_bound[first] += batch_size
        series.batch_count[first] += 1
        width = self.window_seconds
        for bucket in range(first, last + 1):
            lo = max(start, bucket * width)
            hi = min(end, (bucket + 1) * width)
            if hi > lo:
                series.busy[bucket] += hi - lo

    def on_queue_depth(self, name: str, ts: float, depth: int) -> None:
        series = self._series(name)
        bucket = self._bucket(ts)
        series._grow(bucket)
        if depth > series.queue_depth[bucket]:
            series.queue_depth[bucket] = depth

    def on_kv(self, name: str, ts: float, used: int, capacity: int) -> None:
        series = self._series(name)
        series.kv_capacity = capacity
        bucket = self._bucket(ts)
        series._grow(bucket)
        if used > series.kv_used[bucket]:
            series.kv_used[bucket] = used

    def finalize(self, report) -> None:
        """Attach the run's :class:`ServeReport` for run-level export totals."""

        self.report = report

    # ------------------------------------------------------------ inspection

    @property
    def windows(self) -> int:
        lengths = [len(self.arrivals)]
        lengths.extend(len(series.busy) for series in self.replicas.values())
        return max(lengths)

    def utilization(self, name: str) -> list[float]:
        """Per-window busy fraction for one replica."""

        series = self.replicas[name]
        return [busy / self.window_seconds for busy in series.busy]
