"""Observability for the serving simulator: tracing, metrics, exporters.

Opt-in and zero-cost when off: build an :class:`Observability` carrying a
:class:`TraceRecorder` (Chrome trace-event spans per request and replica),
a :class:`MetricsCollector` (bounded-memory streaming series + latency
log histograms, every quantile within 1 % of exact) and/or a
:class:`Progress` indicator, and pass it as ``obs=`` to
:func:`repro.serve.serve` / :func:`repro.serve.serve_llm`.  Export with
:func:`write_chrome_trace` (Perfetto-loadable) or :func:`prometheus_text`;
analyse saved traces with :func:`summarize_trace`.

This package imports from :mod:`repro.serve.metrics`, never the other way
round — the simulators see ``obs`` only as a duck-typed parameter.
"""

from .export import (
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from .hooks import Observability
from .log import LOG_LEVELS, configure_logging
from .progress import Progress
from .sketch import LogHistogram, StreamingLatency
from .streaming import MetricsCollector
from .summarize import format_summary, load_trace, summarize_trace
from .trace import (
    PHASES,
    PID_FLEET,
    PID_REQUESTS,
    TID_AUTOSCALER,
    TraceRecorder,
)

__all__ = [
    "LOG_LEVELS",
    "LogHistogram",
    "MetricsCollector",
    "Observability",
    "PHASES",
    "PID_FLEET",
    "PID_REQUESTS",
    "Progress",
    "StreamingLatency",
    "TID_AUTOSCALER",
    "TraceRecorder",
    "chrome_trace",
    "chrome_trace_json",
    "configure_logging",
    "format_summary",
    "load_trace",
    "prometheus_text",
    "summarize_trace",
    "write_chrome_trace",
    "write_prometheus",
]
