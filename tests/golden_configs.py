"""Shared serving configs pinned by ``tests/data/serve_goldens.json``.

``build_golden_reports()`` runs every pinned config through the library and
returns ``{name: report.to_json()}``; the test asserting equality is the
bit-identity contract of the serving simulators.  The classic and LLM
``summary="exact"`` entries date from before the streaming summary existed,
so lazy arrivals, the incremental load index and the heapified event seeding
must all reproduce that event order and those report bytes exactly.  The
``serve_pipeline`` entries (a heterogeneous arrow chain with windows and a
stage SLO, an autoscaled cascade) and the ``-streaming`` twins pin both
summary modes of the classic and pipeline loops, including streaming
quantile estimates, autoscaler events and per-stage accounting.  The LLM
entries cover continuous and disaggregated serving in both summary modes,
monolithic gangs whose early finishers pad the batch, and chunked prefill
under a KV capacity tight enough that admission blocks.

Regenerate (only when a report-shape change is intended and documented)::

    PYTHONPATH=src:tests python -c \
        "import json, golden_configs; json.dump(golden_configs.build_golden_reports(), \
         open('tests/data/serve_goldens.json', 'w'), indent=1)"
"""

from repro.plan import Autoscaler
from repro.serve import (
    BurstyTraffic,
    DiurnalTraffic,
    PipelineSpec,
    PoissonTraffic,
    KVCacheConfig,
    ReplayTraffic,
    TokenProfile,
    WorkloadMix,
    serve,
    serve_llm,
    serve_pipeline,
)

MIXED = WorkloadMix.of(["deit-tiny", "levit-128"], [2.0, 1.0])
SINGLE = WorkloadMix.of(["deit-tiny"])
RAG = "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny"


def _diurnal_autoscale(summary: str) -> str:
    return serve(
        DiurnalTraffic(120.0, MIXED, period=3.0), "1xvitality",
        policy="size", duration=3.0, seed=11, window_seconds=0.5,
        autoscaler=Autoscaler("queue-depth", "vitality", max_replicas=4,
                              interval=0.25, provision_seconds=0.1),
        percentiles=(0.5, 0.95, 0.99, 0.999), summary=summary).to_json()


def _pipeline_chain(summary: str) -> str:
    return serve_pipeline(
        PoissonTraffic(90.0, SINGLE), RAG,
        {"encoder": "1xvitality,1xgpu:taylor", "rerank": "1xvitality",
         "deit-tiny": "1xvitality"},
        policy="timeout", duration=2.0, seed=13, window_seconds=0.5,
        stage_slo_seconds={"encoder": 0.02}, summary=summary).to_json()


def _pipeline_cascade_autoscale(summary: str) -> str:
    return serve_pipeline(
        BurstyTraffic(300.0, SINGLE),
        PipelineSpec.cascade("spec", "encoder[tokens=32]", "deit-tiny", 0.6),
        {"draft": "1xvitality", "verify": "2xvitality"}, policy="timeout",
        duration=2.0, seed=21,
        autoscalers={
            "draft": Autoscaler("queue-depth", "vitality", max_replicas=3,
                                interval=0.25, provision_seconds=0.1),
            "verify": Autoscaler("utilization", "vitality", max_replicas=3,
                                 interval=0.25, provision_seconds=0.1)},
        summary=summary).to_json()


def _llm_continuous(summary: str) -> str:
    return serve_llm(
        PoissonTraffic(30.0, WorkloadMix.of(
            ["decoder"], tokens=TokenProfile.of("64:256", "16:64"))),
        "2xvitality", scheduler="continuous", duration=2.0, seed=5,
        summary=summary).to_json()


def _llm_disagg(summary: str) -> str:
    return serve_llm(
        PoissonTraffic(20.0, WorkloadMix.of(["decoder"])),
        prefill_fleet="1xvitality", decode_fleet="1xvitality",
        duration=2.0, seed=9, summary=summary).to_json()


def build_golden_reports() -> dict[str, str]:
    reports: dict[str, str] = {}
    reports["poisson-hetero-timeout"] = serve(
        PoissonTraffic(80.0, MIXED), "2xvitality,1xgpu:taylor",
        policy="timeout", router="least-loaded", duration=2.0, seed=7,
        window_seconds=0.5).to_json()
    reports["bursty-energy-fifo"] = serve(
        BurstyTraffic(60.0, SINGLE), "1xvitality,1xgpu",
        policy="fifo", router="energy-aware", duration=2.0, seed=3).to_json()
    reports["diurnal-autoscale"] = _diurnal_autoscale("exact")
    reports["diurnal-autoscale-streaming"] = _diurnal_autoscale("streaming")
    reports["replay-tail"] = serve(
        ReplayTraffic(((0.01, "deit-tiny"), (0.02, "levit-128"),
                       (0.02, "deit-tiny"), (0.5, "deit-tiny"),
                       (0.95, "levit-128"))), "1xvitality",
        policy="fifo", duration=1.0, seed=0).to_json()
    reports["llm-monolithic"] = serve_llm(
        PoissonTraffic(120.0, WorkloadMix.of(
            ["decoder"], tokens=TokenProfile.of("32:128", "1:48"))),
        "2xvitality", scheduler="monolithic", duration=2.0, seed=17).to_json()
    reports["llm-chunked-kv"] = serve_llm(
        PoissonTraffic(30.0, WorkloadMix.of(
            ["decoder"], tokens=TokenProfile.of("96:320", "1:48"))),
        "2xvitality", prefill_chunk=64, kv=KVCacheConfig(capacity_tokens=768),
        duration=2.0, seed=19).to_json()
    for summary, suffix in (("exact", ""), ("streaming", "-streaming")):
        reports[f"llm-continuous{suffix}"] = _llm_continuous(summary)
        reports[f"llm-disagg{suffix}"] = _llm_disagg(summary)
        reports[f"pipeline-chain-hetero{suffix}"] = _pipeline_chain(summary)
        reports[f"pipeline-cascade-autoscale{suffix}"] = \
            _pipeline_cascade_autoscale(summary)
    return reports
