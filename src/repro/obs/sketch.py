"""Streaming quantile estimation: the log histogram behind ``LatencySummary``.

The serving reports compute nearest-rank percentiles over the full latency
sample — exact, but O(n) memory, which is the wall the ROADMAP's
million-request item runs into.  :class:`LogHistogram` is the relative-error
log histogram of DDSketch (Masson, Rim & Lee, VLDB 2019): a value ``x``
above :data:`MIN_VALUE` is counted in bucket ``ceil(ln x / ln γ)`` with
``γ = (1 + α) / (1 - α)``, so bucket ``k`` covers ``(γᵏ⁻¹, γᵏ]`` and its
representative ``2γᵏ / (γ + 1)`` is within ``α`` of every value in it.  A
nearest-rank quantile lands in the bucket holding the exact order statistic,
hence **|estimate − exact| ≤ α·exact** for every quantile, with
``α = ALPHA = 1 %``.  Memory grows with the dynamic range (about 1,400
buckets span 1 ns to 1,000 s), never with the sample count, and two
histograms merge by adding bucket counts.

:class:`StreamingLatency` is one histogram serving every requested
percentile plus the exact running sum, and folds down to the same
:class:`~repro.serve.metrics.LatencySummary` the batch path produces.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    percentile_label,
)

#: Relative accuracy of every reported quantile.
ALPHA = 0.01
GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
#: Values at or below this (seconds) share the zero bucket and report as 0.
MIN_VALUE = 1e-9

_INV_LOG_GAMMA = 1.0 / math.log(GAMMA)
#: One below the smallest key a value above ``MIN_VALUE`` can get, so the
#: zero bucket sorts first.
_ZERO_KEY = math.ceil(math.log(MIN_VALUE) * _INV_LOG_GAMMA) - 1


def bucket_key(value: float) -> int:
    """The histogram bucket ``value`` falls in (``_ZERO_KEY`` for ~0)."""

    if value > MIN_VALUE:
        return math.ceil(math.log(value) * _INV_LOG_GAMMA)
    return _ZERO_KEY


class LogHistogram:
    """Relative-error quantiles in memory bounded by the dynamic range.

    Holds bucket counts plus the exact count, sum, min and max.  Updates and
    merges are integer additions, so the same stream (or the same multiset
    of merged streams, in any order) always yields the same state.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.add_key(bucket_key(value), value)

    def add_key(self, key: int, value: float) -> None:
        """Count ``value`` whose :func:`bucket_key` the caller already has."""

        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` in, as if its values had been added here."""

        counts = self.counts
        for key, count in other.counts.items():
            counts[key] = counts.get(key, 0) + count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile (as ``metrics.percentile``) within ``ALPHA``;
        0 when empty."""

        if not self.count:
            return 0.0
        rank = max(math.ceil(fraction * self.count), 1)
        seen = 0
        for key in sorted(self.counts):
            seen += self.counts[key]
            if seen >= rank:
                break
        if key == _ZERO_KEY:
            return 0.0
        estimate = 2.0 * GAMMA ** key / (GAMMA + 1.0)
        return min(max(estimate, self.min), self.max)


class StreamingLatency(LogHistogram):
    """Bounded-memory counterpart of :meth:`LatencySummary.of`.

    A :class:`LogHistogram` that answers every requested percentile
    (``fractions``: the request plus the default p50/p95/p99) from its one
    set of buckets; count, mean and max stay exact.  Renders the same :class:`LatencySummary` shape the
    exact path produces, with quantiles within ``ALPHA`` of the exact ones.
    """

    __slots__ = ("fractions",)

    def __init__(self, percentiles: Sequence[float] = DEFAULT_PERCENTILES):
        super().__init__()
        self.fractions = tuple(sorted(set(percentiles)
                                      | set(DEFAULT_PERCENTILES)))

    def summary(self) -> LatencySummary:
        """Fold into the exact path's report type (same JSON keys)."""

        values = {fraction: self.quantile(fraction)
                  for fraction in self.fractions}
        extras = tuple((percentile_label(fraction), values[fraction])
                       for fraction in self.fractions
                       if fraction not in DEFAULT_PERCENTILES)
        if not self.count:
            return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0,
                                  p99=0.0, max=0.0, extras=extras)
        return LatencySummary(
            count=self.count, mean=self.total / self.count, p50=values[0.5],
            p95=values[0.95], p99=values[0.99], max=self.max, extras=extras)
