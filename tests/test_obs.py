"""Observability layer: tracing, streaming metrics, exporters, CLI.

The load-bearing contracts pinned here:

* recording is *passive* — a run with an :class:`Observability` attached
  produces a byte-identical ``ServeReport.to_json()`` to a run without;
* each request's phase spans partition ``[arrival, completion]``, so their
  durations sum (exactly, in float) to the report's latency per request;
* traces are deterministic — same seed, byte-identical Chrome trace JSON;
* exporters emit schema-valid output (Perfetto event keys, Prometheus
  exposition lines).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import (
    LOG_LEVELS,
    LogHistogram,
    MetricsCollector,
    Observability,
    PID_FLEET,
    PID_REQUESTS,
    Progress,
    StreamingLatency,
    TraceRecorder,
    chrome_trace,
    chrome_trace_json,
    configure_logging,
    load_trace,
    prometheus_text,
    summarize_trace,
)
from repro.obs.sketch import ALPHA, MIN_VALUE
from repro.plan import Autoscaler
from repro.serve import (
    KVCacheConfig,
    make_policy,
    make_router,
    make_traffic,
    PipelineSpec,
    percentile,
    serve,
    serve_llm,
    serve_pipeline,
)


def classic_run(obs=None, autoscaler=None, rate=150.0, duration=2.0):
    traffic = make_traffic("poisson", rate, ("deit-tiny",))
    return serve(traffic, "2xvitality", make_policy("size", batch_size=4),
                 make_router("least-loaded"), duration=duration, seed=7,
                 autoscaler=autoscaler, obs=obs)


def llm_run(obs=None, **kwargs):
    traffic = make_traffic("poisson", 30.0, ("decoder",))
    defaults = dict(fleet="2xvitality", duration=2.0, seed=11,
                    prompt_tokens=256, output_tokens=32,
                    kv=KVCacheConfig(capacity_tokens=8192))
    defaults.update(kwargs)
    return serve_llm(traffic, obs=obs, **defaults)


def request_span_sums(recorder):
    """Per-request sum of phase-span durations, keyed by request index."""

    sums: dict[int, float] = {}
    for event in recorder.events():
        if event.get("ph") == "X" and event["pid"] == PID_REQUESTS:
            index = event["args"]["request"]
            sums[index] = sums.get(index, 0.0) + event["dur"]
    return sums


# ------------------------------------------------------------ log histogram

#: Latency-like samples: exact zeros, sub-``MIN_VALUE`` values (the zero
#: bucket) and positives across twelve decades.
SAMPLES = st.lists(st.one_of(st.just(0.0),
                             st.floats(1e-12, 1e4, allow_nan=False)),
                   min_size=1, max_size=200)
FRACTIONS = st.floats(0.0, 1.0, exclude_min=True)


def histogram_of(values):
    histogram = LogHistogram()
    for value in values:
        histogram.add(value)
    return histogram


def state_of(histogram):
    return (list(histogram.counts.items()), histogram.count, histogram.total,
            histogram.min, histogram.max)


@settings(deadline=None)
@given(values=SAMPLES, fraction=FRACTIONS)
def test_log_histogram_quantile_within_alpha_of_nearest_rank(values, fraction):
    exact = percentile(values, fraction)
    histogram = histogram_of(values)
    estimate = histogram.quantile(fraction)
    assert abs(estimate - exact) <= ALPHA * exact * (1 + 1e-9) + MIN_VALUE
    if exact <= MIN_VALUE:
        assert estimate == 0.0            # the zero bucket reports 0
    else:
        assert histogram.min <= estimate <= histogram.max


@settings(deadline=None)
@given(first=SAMPLES, second=SAMPLES,
       fractions=st.lists(FRACTIONS, min_size=1, max_size=5))
def test_log_histogram_merge_matches_one_stream(first, second, fractions):
    fed = histogram_of(first + second)
    for a, b in ((first, second), (second, first)):
        merged = histogram_of(a)
        merged.merge(histogram_of(b))
        assert merged.counts == fed.counts
        assert (merged.count, merged.min, merged.max) == \
            (fed.count, fed.min, fed.max)
        assert merged.total == pytest.approx(fed.total)
        for fraction in fractions:
            assert merged.quantile(fraction) == fed.quantile(fraction)


@settings(deadline=None)
@given(values=SAMPLES)
def test_log_histogram_same_stream_same_state(values):
    assert state_of(histogram_of(values)) == state_of(histogram_of(values))


def test_streaming_latency_summary_matches_percentile():
    stream = StreamingLatency()
    values = [(index * 37 % 101) / 100.0 for index in range(1, 400)]
    for value in values:
        stream.add(value)
    summary = stream.summary()
    assert summary.count == len(values)
    assert summary.mean == pytest.approx(sum(values) / len(values))
    assert summary.p50 == pytest.approx(percentile(values, 0.5), abs=0.02)
    assert summary.p99 == pytest.approx(percentile(values, 0.99), abs=0.05)


# ---------------------------------------------------------- trace recorder


def test_trace_recorder_orders_metadata_first():
    recorder = TraceRecorder()
    recorder.span("work", start=1.0, end=2.0, pid=1, tid=3, cat="test")
    recorder.process(1, "fleet")
    recorder.thread(1, 3, "replica")
    recorder.thread(1, 3, "replica")          # idempotent
    events = recorder.events()
    assert [event["ph"] for event in events] == ["M", "M", "X"]
    span = events[-1]
    assert span["ts"] == pytest.approx(1e6)
    assert span["dur"] == pytest.approx(1e6)


# ----------------------------------------------------- passive instrumentation


def test_classic_report_identical_with_tracing():
    base = classic_run()
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    traced = classic_run(obs=obs)
    assert traced.to_json() == base.to_json()
    assert len(obs.trace) > 0


def assert_spans_match_latency(recorder, report):
    """Phase spans partition [arrival, completion]: per-request sums must
    reproduce the report's latency distribution (count, mean, max)."""

    sums = request_span_sums(recorder)
    spans = [value * 1e-6 for value in sums.values()]
    assert len(spans) == report.completed
    assert math.isclose(sum(spans) / len(spans), report.latency.mean,
                        rel_tol=1e-9)
    assert math.isclose(max(spans), report.latency.max, rel_tol=1e-9)


def test_classic_spans_sum_to_latency():
    obs = Observability(trace=TraceRecorder())
    report = classic_run(obs=obs)
    assert_spans_match_latency(obs.trace, report)


@pytest.mark.parametrize("scheduler", ["continuous", "monolithic"])
def test_llm_report_identical_and_spans_sum(scheduler):
    base = llm_run(scheduler=scheduler)
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    traced = llm_run(obs=obs, scheduler=scheduler)
    assert traced.to_json() == base.to_json()
    assert_spans_match_latency(obs.trace, traced)


def test_disaggregated_trace_has_handoff_phase():
    obs = Observability(trace=TraceRecorder())
    base = llm_run(fleet=None, prefill_fleet="1xvitality",
                   decode_fleet="1xvitality")
    traced = llm_run(obs=obs, fleet=None, prefill_fleet="1xvitality",
                     decode_fleet="1xvitality")
    assert traced.to_json() == base.to_json()
    phases = {event["args"]["phase"] for event in obs.trace.events()
              if event.get("ph") == "X" and event["pid"] == PID_REQUESTS}
    assert "handoff" in phases and "prefill" in phases and "decode" in phases


def test_autoscaler_events_match_trace_instants():
    def run(obs=None):
        autoscaler = Autoscaler("utilization", "vitality",
                                max_replicas=6, interval=0.25)
        traffic = make_traffic("poisson", 2000.0, ("deit-tiny",))
        return serve(traffic, "1xvitality", make_policy("size", batch_size=8),
                     make_router("least-loaded"), duration=1.5, seed=3,
                     autoscaler=autoscaler, obs=obs)

    base = run()
    obs = Observability(trace=TraceRecorder())
    traced = run(obs=obs)
    assert traced.to_json() == base.to_json()
    instants = [event for event in obs.trace.events()
                if event.get("ph") == "i" and event.get("cat") == "autoscaler"]
    assert len(instants) == len(traced.scale_events) > 0
    assert ({event["name"] for event in instants}
            == {event.action for event in traced.scale_events})


# --------------------------------------------------------- pipeline serving


def pipeline_run(obs=None):
    traffic = make_traffic("poisson", 120.0, ("deit-tiny",))
    return serve_pipeline(
        traffic, "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny",
        {"encoder": "2xvitality", "rerank": "1xvitality",
         "deit-tiny": "1xvitality"},
        duration=1.0, seed=5, obs=obs)


def test_pipeline_report_identical_with_tracing():
    base = pipeline_run()
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    traced = pipeline_run(obs=obs)
    assert traced.to_json() == base.to_json()
    assert len(obs.trace) > 0


def test_pipeline_spans_sum_to_latency():
    """Queue/service spans per stage plus the handoff spans between stages
    partition [arrival, completion] — the PR-7 invariant, per pipeline."""

    obs = Observability(trace=TraceRecorder())
    report = pipeline_run(obs=obs)
    assert_spans_match_latency(obs.trace, report)
    events = [event for event in obs.trace.events()
              if event.get("ph") == "X" and event["pid"] == PID_REQUESTS]
    phases = {event["args"]["phase"] for event in events}
    assert phases == {"queue", "service", "handoff"}
    # Queue and service spans carry the stage they ran on; every stage of
    # the linear chain shows up.
    stages = {event["args"]["stage"] for event in events}
    assert stages == {"encoder", "rerank", "deit-tiny"}


def test_pipeline_trace_summarize_per_stage():
    obs = Observability(trace=TraceRecorder())
    report = pipeline_run(obs=obs)
    payload = summarize_trace(chrome_trace(obs.trace))
    assert payload["requests"] == report.completed
    per_stage = payload["per_stage"]
    assert set(per_stage) == {"encoder", "rerank", "deit-tiny"}
    for entry in per_stage.values():
        assert entry["total_seconds"] > 0.0
    # Classic (non-pipeline) traces don't grow the new key.
    classic = Observability(trace=TraceRecorder())
    classic_run(obs=classic)
    assert "per_stage" not in summarize_trace(chrome_trace(classic.trace))


# ---------------------------------------------------------------- exporters


def test_trace_json_deterministic_across_runs():
    payloads = []
    for _ in range(2):
        obs = Observability(trace=TraceRecorder())
        llm_run(obs=obs)
        payloads.append(chrome_trace_json(obs.trace))
    assert payloads[0] == payloads[1]


def test_chrome_trace_schema():
    obs = Observability(trace=TraceRecorder())
    llm_run(obs=obs)
    trace = chrome_trace(obs.trace)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in {"X", "i", "C", "M"}
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] in {"process_name", "thread_name"}
        else:
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] > 0.0
        if event["ph"] == "i":
            assert event["s"] == "t"
    # Round-trips through JSON (Perfetto loads the serialized form).
    assert json.loads(chrome_trace_json(obs.trace)) == trace


def test_prometheus_text_parses():
    obs = Observability(metrics=MetricsCollector())
    llm_run(obs=obs)
    text = prometheus_text(obs.metrics)
    families = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        metric, _, rest = line.partition("{")
        if rest:
            labels, _, rest = rest.partition("}")
            for pair in labels.split(","):
                name, _, value = pair.partition("=")
                assert name.isidentifier() and value.startswith('"'), line
        else:
            metric, _, rest = line.partition(" ")
        parts = rest.strip().split()
        assert 1 <= len(parts) <= 2, line
        float(parts[0])                      # value parses
        if len(parts) == 2:
            int(parts[1])                    # timestamp is integer millis
    assert "repro_requests_completed_total" in families
    assert "repro_request_latency_seconds" in families
    assert "repro_request_ttft_seconds" in families
    assert "repro_replica_utilization" in families


def test_metrics_windows_bounded():
    obs = Observability(metrics=MetricsCollector(window_seconds=0.5))
    report = classic_run(obs=obs)
    metrics = obs.metrics
    assert sum(metrics.completions) == report.completed
    assert sum(metrics.arrivals) == report.offered
    for name in metrics.replicas:
        for value in metrics.utilization(name):
            assert 0.0 <= value <= 1.0 + 1e-9


def traced_classic_run() -> Observability:
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    serve(make_traffic("diurnal", 2000.0, ("deit-tiny", "levit-128"),
                       period=1.5),
          "2xvitality", make_policy("size", batch_size=4),
          make_router("least-loaded"), duration=1.5, seed=7, obs=obs,
          autoscaler=Autoscaler("queue-depth", "vitality", max_replicas=4,
                                interval=0.25, provision_seconds=0.1))
    return obs


def traced_pipeline_run() -> Observability:
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    serve_pipeline(
        make_traffic("bursty", 300.0, ("deit-tiny",)),
        PipelineSpec.cascade("spec", "encoder[tokens=32]", "deit-tiny", 0.6),
        {"draft": "1xvitality", "verify": "2xvitality"},
        duration=1.5, seed=21, obs=obs,
        autoscalers={
            "draft": Autoscaler("queue-depth", "vitality", max_replicas=3,
                                interval=0.25, provision_seconds=0.1),
            "verify": Autoscaler("utilization", "vitality", max_replicas=3,
                                 interval=0.25, provision_seconds=0.1)})
    return obs


def traced_llm_run(**kwargs) -> Observability:
    obs = Observability(trace=TraceRecorder(), metrics=MetricsCollector())
    llm_run(obs=obs, **kwargs)
    return obs


#: sha256 of (Chrome trace JSON, Prometheus text) per traced run.  Pins the
#: hook stream byte for byte — span order, args, counters, scale instants
#: and metric windows — so a refactor of the event loops or of the hook
#: signatures cannot silently change what an observer sees.
EXPORT_DIGESTS = {
    "classic": (
        "8947073e986c4e181e25f1aff88c1f1d50e52562fee4536d8a12eb8b98710962",
        "1d897cb71e62e3dcd61b5af5fcc19971cde21078668f0b475a0f436cb66651e1"),
    "pipeline": (
        "ee85092dbfd3e745e3719ddb5c040db0a844e6903bed10434d040bb7b277570b",
        "ca556df2bce1b5677b6eed6dce3d50edfefa014fd6fc22f20fb52247a63973ef"),
    "llm": (
        "2c568ce925c0cad7ed676ded820d7ff85f83deb1e68ef99e495ef352b96a5875",
        "bd77903dce921a94c2731d5bfabc1836d50d88b1c8af4d804c7fe790e0f4f264"),
    "llm-disagg": (
        "77714142c89ea03c14cd87a26f670af737986803070119968e3e16395c72e4be",
        "910e25e558e1583ea27ed7e1a0a23f78d8320022f637a8644a2ae37e713bf30e"),
}

TRACED_RUNS = {
    "classic": traced_classic_run,
    "pipeline": traced_pipeline_run,
    "llm": traced_llm_run,
    "llm-disagg": lambda: traced_llm_run(
        fleet=None, prefill_fleet="1xvitality", decode_fleet="1xvitality"),
}


@pytest.mark.parametrize("run", sorted(EXPORT_DIGESTS))
def test_export_bytes_pinned(run):
    obs = TRACED_RUNS[run]()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (chrome_trace_json(obs.trace),
                                 prometheus_text(obs.metrics)))
    assert digests == EXPORT_DIGESTS[run]


# ---------------------------------------------------------------- summarize


def test_summarize_trace_shares():
    obs = Observability(trace=TraceRecorder())
    report = llm_run(obs=obs)
    payload = summarize_trace(chrome_trace(obs.trace))
    assert payload["requests"] == report.completed
    shares = [phase["share"] for phase in payload["phases"]]
    assert sum(shares) == pytest.approx(1.0)
    assert {phase["phase"] for phase in payload["phases"]} >= \
        {"queue", "prefill", "decode"}
    assert "decoder" in payload["per_model"]
    assert payload["fleet_busy_seconds"]


# ----------------------------------------------------------------- CLI


def test_cli_trace_round_trip(tmp_path, capsys):
    trace_out = tmp_path / "trace.json"
    metrics_out = tmp_path / "metrics.prom"
    code = main(["serve", "--llm", "--models", "decoder", "--rate", "30",
                 "--duration", "2", "--seed", "5", "--quiet", "--json",
                 "--trace-out", str(trace_out),
                 "--metrics-out", str(metrics_out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    trace = load_trace(trace_out)
    spans: dict[int, float] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "X" and event["pid"] == PID_REQUESTS:
            index = event["args"]["request"]
            spans[index] = spans.get(index, 0.0) + event["dur"]
    assert len(spans) == report["completed"]
    mean_span = sum(spans.values()) * 1e-6 / len(spans)
    assert mean_span == pytest.approx(report["latency"]["mean"], rel=1e-6)
    assert "repro_request_latency_seconds" in metrics_out.read_text()

    code = main(["trace", "summarize", str(trace_out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["requests"] == report["completed"]


def test_cli_serve_output_identical_with_tracing(tmp_path, capsys):
    argv = ["serve", "--models", "deit-tiny", "--rate", "100",
            "--duration", "1", "--seed", "9", "--quiet", "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--trace-out", str(tmp_path / "t.json")]) == 0
    assert capsys.readouterr().out == plain


def test_cli_trace_summarize_rejects_bad_file(tmp_path, capsys):
    bogus = tmp_path / "not_a_trace.json"
    bogus.write_text("{}")
    assert main(["trace", "summarize", str(bogus)]) == 2
    assert "cannot summarize" in capsys.readouterr().err
    assert main(["trace", "summarize", str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------- progress and logging


def test_progress_deterministic_mode():
    stream = io.StringIO()
    progress = Progress(label="serve", stream=stream, min_interval=0)
    progress.begin("serve")
    for index in range(200):
        progress.tick(index * 0.01)
    progress.step("milestone")
    progress.finish()
    lines = stream.getvalue().splitlines()
    ticks = [line for line in lines if "events" in line]
    assert len(ticks) == 200 // 64
    assert ticks[0] == "serve: 64 events, t=0.63s"
    assert lines[-1] == "serve: milestone"


def test_cli_quiet_suppresses_progress(capsys):
    argv = ["serve", "--models", "deit-tiny", "--rate", "50",
            "--duration", "0.5", "--json"]
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_configure_logging_levels():
    assert LOG_LEVELS == ("debug", "info", "warning", "error")
    configure_logging("debug")
    assert logging.getLogger().level == logging.DEBUG
    with pytest.raises(ValueError):
        configure_logging("verbose")
    configure_logging("warning")


def test_cli_log_level_emits_debug_lines(capsys):
    argv = ["--log-level", "debug", "serve", "--models", "deit-tiny",
            "--rate", "50", "--duration", "0.5", "--quiet", "--json"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "repro.serve.simulator" in err and "dispatch" in err
    configure_logging("warning")
