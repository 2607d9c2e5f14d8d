"""Million-request serving: goldens, streaming error bounds, indexed routing.

Four guarantees of the scale work, pinned:

- **Bit-identity of both summary modes** — reports are byte-for-byte the
  pinned ones (``tests/data/serve_goldens.json``: the classic and LLM
  ``summary="exact"`` entries were captured before lazy arrivals, the
  ``LoadIndex`` router and heapified event seeding landed; pipeline and
  ``-streaming`` entries pin ``serve_pipeline`` and the streaming fold);
- **Laziness is unobservable** — a pattern exposing only the materialised
  ``arrivals()`` list serves bit-identically to its generator-native self;
- **Streaming summaries honour the documented error bound** — running-sum
  figures (counts, means, max, violations, energy, windows' arrival and
  completion counts) are exact, quantiles are log-histogram estimates
  within ``ALPHA`` (1 %) of the exact nearest-rank values;
- **The analytic-first planner simulates less than it enumerates**, and
  ``jobs=N`` validation returns the serial measurements.
"""

import json
import os
from pathlib import Path

import pytest

from golden_configs import build_golden_reports
from repro.engine import CacheStats
from repro.obs.sketch import ALPHA, MIN_VALUE
from repro.plan import (
    Autoscaler,
    plan_capacity,
    plan_llm_capacity,
    plan_pipeline_capacity,
)
from repro.serve import (
    BurstyTraffic,
    DiurnalTraffic,
    LeastLoadedRouter,
    PoissonTraffic,
    TokenProfile,
    WorkloadMix,
    compare,
    serve,
    serve_llm,
)
from repro.serve.metrics import ReportAccumulator, RequestRecord, _build_windows

GOLDENS = Path(__file__).parent / "data" / "serve_goldens.json"
MIX = WorkloadMix.of(["deit-tiny", "levit-128"], [2.0, 1.0])
LLM_MIX = WorkloadMix.of(["decoder"], tokens=TokenProfile.of("64:256", "16:64"))


def close(estimate: float, exact: float) -> bool:
    """The proven streaming-quantile bound: within ``ALPHA`` of exact (float
    rounding at a bucket edge aside; the zero bucket reports 0)."""

    return abs(estimate - exact) <= ALPHA * abs(exact) * (1 + 1e-9) + MIN_VALUE


class TestExactBitIdentity:
    def test_reports_match_pre_streaming_goldens(self):
        expected = json.loads(GOLDENS.read_text())
        actual = build_golden_reports()
        assert set(actual) == set(expected)
        for name in expected:
            assert actual[name] == expected[name], name

    def test_materialised_pattern_serves_identically_to_lazy(self):
        """Event order must not depend on how arrivals are produced: a
        wrapper hiding ``iter_arrivals`` (so the simulator falls back to the
        materialised list) yields byte-identical reports."""

        class ListOnly:
            def __init__(self, inner):
                self._inner = inner

            def arrivals(self, duration, seed):
                return self._inner.arrivals(duration, seed)

            def to_dict(self):
                return self._inner.to_dict()

        traffic = PoissonTraffic(rate=80.0, mix=MIX)
        kwargs = dict(policy="timeout", router="least-loaded", duration=2.0,
                      seed=7, window_seconds=0.5)
        lazy = serve(traffic, "2xvitality,1xgpu:taylor", **kwargs)
        listed = serve(ListOnly(traffic), "2xvitality,1xgpu:taylor", **kwargs)
        assert lazy.to_json() == listed.to_json()

    def test_linear_scan_router_matches_load_index(self):
        """The indexed router is an implementation detail: forcing the
        O(fleet) reference scan changes nothing, autoscaling included."""

        class LinearLeastLoaded(LeastLoadedRouter):
            uses_load_index = False

        traffic = DiurnalTraffic(peak_rate=120.0, mix=MIX, period=3.0)

        def run(router):
            scaler = Autoscaler("queue-depth", "vitality", max_replicas=4,
                                interval=0.25, provision_seconds=0.1)
            return serve(traffic, "1xvitality", policy="timeout",
                         router=router, duration=2.0, seed=11,
                         autoscaler=scaler, window_seconds=0.5)

        assert run("least-loaded").to_json() == \
            run(LinearLeastLoaded()).to_json()


class TestStreamingBound:
    @pytest.mark.parametrize("traffic", [
        PoissonTraffic(rate=300.0, mix=MIX),
        BurstyTraffic(rate=250.0, mix=MIX),
        DiurnalTraffic(peak_rate=400.0, mix=MIX, period=2.0),
    ], ids=["poisson", "bursty", "diurnal"])
    def test_streaming_matches_exact_within_bound(self, traffic):
        kwargs = dict(policy="timeout", router="least-loaded", duration=2.0,
                      seed=3, window_seconds=0.5,
                      percentiles=(0.5, 0.95, 0.99, 0.999))
        exact = serve(traffic, "2xvitality", **kwargs)
        stream = serve(traffic, "2xvitality", **kwargs, summary="streaming")
        assert stream.offered == exact.offered
        assert stream.completed == exact.completed
        assert stream.slo_violation_rate == exact.slo_violation_rate
        assert stream.total_energy_joules == exact.total_energy_joules
        assert stream.makespan == exact.makespan
        assert stream.latency.count == exact.latency.count
        assert stream.latency.max == exact.latency.max
        assert stream.latency.mean == pytest.approx(exact.latency.mean)
        for field in ("p50", "p95", "p99"):
            assert close(getattr(stream.latency, field),
                         getattr(exact.latency, field)), field
        assert close(dict(stream.latency.extras)["p99.9"],
                     dict(exact.latency.extras)["p99.9"])
        for (model, sketch), (_, summary) in zip(stream.per_model,
                                                 exact.per_model):
            assert sketch.count == summary.count, model
            assert close(sketch.p99, summary.p99), model
        assert len(stream.windows) == len(exact.windows)
        for ours, theirs in zip(stream.windows, exact.windows):
            assert (ours.start, ours.end) == (theirs.start, theirs.end)
            assert ours.arrivals == theirs.arrivals
            assert ours.completed == theirs.completed
            assert close(ours.p99, theirs.p99)
        assert stream.config["summary"] == "streaming"
        assert "summary" not in exact.config

    @pytest.mark.parametrize("fleets", [
        dict(fleet="2xvitality"),
        dict(prefill_fleet="1xvitality", decode_fleet="1xvitality"),
    ], ids=["continuous", "disaggregated"])
    def test_llm_streaming_matches_exact(self, fleets):
        kwargs = dict(duration=2.0, seed=5, **fleets)
        exact = serve_llm(PoissonTraffic(rate=25.0, mix=LLM_MIX), **kwargs)
        stream = serve_llm(PoissonTraffic(rate=25.0, mix=LLM_MIX), **kwargs,
                           summary="streaming")
        assert stream.offered == exact.offered
        assert stream.completed == exact.completed
        assert stream.makespan == exact.makespan
        assert stream.total_energy_joules == exact.total_energy_joules
        # Attainments come from exact streaming counters, not sketches.
        for key in ("generated_tokens", "decode_steps", "ttft_attainment",
                    "tpot_attainment", "slo_attainment"):
            assert stream.llm[key] == exact.llm[key], key
        for field in ("p50", "p95", "p99"):
            assert close(getattr(stream.ttft, field),
                         getattr(exact.ttft, field)), field
            assert close(getattr(stream.tpot, field),
                         getattr(exact.tpot, field)), field

    def test_window_overflow_merges_into_last_window(self):
        """A completion exactly at makespan belongs to the partial last
        window; its latency must count toward that window's p99 even when
        the window already holds completions."""

        completions = [(0.55 + 0.04 * index, 0.6 + 0.04 * index)
                       for index in range(10)] + [(0.2, 1.0)]
        accumulator = ReportAccumulator(slo_seconds=1.0, window_seconds=0.5)
        records = []
        for index, (arrival, completion) in enumerate(completions):
            accumulator.observe("m", arrival, arrival, completion)
            records.append(RequestRecord(index, "m", arrival, "r0", 1,
                                         arrival, completion))
        report = accumulator.finalize({}, len(records), 1.0, [],
                                      CacheStats(hits=0, misses=0, size=0))
        exact = _build_windows(records, [], 1.0, 0.5)
        assert report.makespan == 1.0
        assert [w.completed for w in report.windows] == \
            [w.completed for w in exact] == [0, 11]
        assert exact[-1].p99 == pytest.approx(0.8)
        assert close(report.windows[-1].p99, exact[-1].p99)

    def test_compare_threads_scale_knobs(self):
        traffic = PoissonTraffic(rate=120.0, mix=MIX)
        rows = compare(traffic, {"small": "1xvitality", "big": "2xvitality"},
                       duration=1.0, seed=2, window_seconds=0.5,
                       summary="streaming")
        for name, report in rows.items():
            assert report.config["summary"] == "streaming", name
            assert report.windows, name
        overload = PoissonTraffic(rate=1200.0, mix=MIX)
        scaled = compare(overload, {"dynamic": "1xvitality"}, duration=1.0,
                         seed=2,
                         autoscaler=Autoscaler("queue-depth", "vitality",
                                               max_replicas=3, interval=0.25,
                                               provision_seconds=0.1))
        assert scaled["dynamic"].scale_events


class TestAnalyticFirstPlanning:
    SCENARIO = dict(rate=1200.0, models=["deit-tiny"], slo_seconds=0.02,
                    duration=1.0, targets=("vitality",), max_replicas=4,
                    top_k=2, policy="fifo", seed=0)

    def test_simulates_strictly_fewer_than_it_enumerates(self):
        payload = plan_capacity(**self.SCENARIO)
        assert payload["simulated"] == len(payload["validated"])
        assert payload["simulated"] < payload["evaluated"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="parallel validation needs >= 2 CPUs")
    @pytest.mark.parametrize("planner, kwargs", [
        (plan_capacity, SCENARIO),
        (plan_pipeline_capacity, dict(
            rate=120.0, pipeline="plan2 = encoder[tokens=128] -> deit-tiny",
            slo_seconds=0.02, slo_percentile=0.95, duration=1.0,
            targets="vitality", max_replicas_per_stage=2, top_k=3,
            policy="fifo", seed=0)),
        (plan_llm_capacity, dict(rate=8.0, model="decoder",
                                 ttft_slo_seconds=0.2, tpot_slo_seconds=0.01,
                                 duration=1.0, max_replicas=3, top_k=2)),
    ], ids=["plan_capacity", "plan_pipeline_capacity", "plan_llm_capacity"])
    def test_jobs_matches_serial_measurements(self, planner, kwargs):
        """Every planner validates through the shared driver's process pool;
        the payload is the serial one except the parent's cache accounting."""

        serial = planner(**kwargs)
        parallel = planner(**kwargs, jobs=2)
        assert serial["simulated"] > 1     # the pool really fanned out
        del serial["cache"], parallel["cache"]
        assert serial == parallel
