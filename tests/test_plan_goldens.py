"""Byte-identity of the three capacity planners' payloads.

Every scenario runs one planner and hashes ``json.dumps(payload)`` in
insertion order, so a change to any figure, to key order or to which
candidates reach the simulator shows up as a different digest.  The
scenarios cover each planner's branches: a boundary candidate that is
re-simulated and one that was already validated, a multi-kind mix, the
energy-cost fallback, an empty feasible set, per-stage targets with a stage
SLO, the LLM colocated reference, and ``jobs=2`` validation.  ``jobs=2``
entries drop the ``cache`` block: worker processes use their own engine
caches, so only the parent's accounting differs from a serial run.

Regenerate (only when a payload change is intended and documented)::

    PYTHONPATH=src:tests python tests/test_plan_goldens.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.plan import plan_capacity, plan_llm_capacity, plan_pipeline_capacity

GOLDENS = Path(__file__).parent / "data" / "plan_goldens.json"
TWO_STAGE = "plan2 = encoder[tokens=128] -> deit-tiny"
RAG = "rag = encoder[tokens=256] -> rerank:encoder[tokens=64] -> deit-tiny"

FLEET_MIX = dict(rate=600.0, models=["deit-tiny", "levit-128"],
                 weights=[2.0, 1.0], slo_seconds=0.02, duration=0.5,
                 targets=("vitality", "vitality[pe=32x32]", "sanger"),
                 max_replicas=3, top_k=3, policy="timeout", seed=1)
PIPELINE_CHAIN = dict(rate=90.0, pipeline=RAG, slo_seconds=0.08,
                      slo_percentile=0.95, duration=0.5, targets="vitality",
                      max_replicas_per_stage=2, top_k=2, policy="fifo", seed=0)
LLM_SPLIT = dict(rate=8.0, model="decoder", ttft_slo_seconds=0.2,
                 tpot_slo_seconds=0.01, duration=0.5, max_replicas=3, top_k=2)

#: name -> (planner, keyword arguments).  ``jobs=2`` entries are the
#: parallel twins of a serial scenario.
SCENARIOS = {
    "fleet-boundary-resimulated": (plan_capacity, dict(
        rate=1200.0, models=["deit-tiny"], slo_seconds=0.02, duration=0.5,
        targets=("vitality",), max_replicas=4, top_k=1, policy="fifo",
        seed=0)),
    "fleet-boundary-validated": (plan_capacity, dict(
        rate=600.0, models=["deit-tiny"], slo_seconds=0.005,
        slo_percentile=0.99, duration=0.5, targets=("vitality",),
        max_replicas=3, top_k=2, policy="fifo", seed=0, margin=4.0)),
    "fleet-mix-3-kinds": (plan_capacity, FLEET_MIX),
    "fleet-energy-cost": (plan_capacity, dict(
        rate=40.0, models=["deit-tiny"], slo_seconds=0.2, duration=0.5,
        targets=("gpu:taylor",), max_replicas=2, top_k=1, policy="fifo",
        seed=0)),
    "fleet-none-feasible": (plan_capacity, dict(
        rate=5000.0, models=["deit-tiny"], slo_seconds=0.001, duration=0.5,
        targets=("vitality",), max_replicas=2, top_k=2, policy="fifo",
        seed=0)),
    "fleet-jobs2": (plan_capacity, dict(FLEET_MIX, jobs=2)),
    "pipeline-chain": (plan_pipeline_capacity, PIPELINE_CHAIN),
    "pipeline-boundary-validated": (plan_pipeline_capacity, dict(
        rate=120.0, pipeline=TWO_STAGE, slo_seconds=0.01,
        slo_percentile=0.95, duration=0.5, targets="vitality",
        max_replicas_per_stage=3, top_k=2, policy="fifo", seed=0,
        margin=2.0)),
    "pipeline-stage-targets": (plan_pipeline_capacity, dict(
        rate=60.0, pipeline=TWO_STAGE, slo_seconds=0.05, slo_percentile=0.95,
        duration=0.5,
        targets={"encoder": "vitality", "deit-tiny": "vitality[pe=32x32]"},
        stage_slo_seconds={"encoder": 0.02}, max_replicas_per_stage=2,
        top_k=2, policy="fifo", seed=0)),
    "pipeline-jobs2": (plan_pipeline_capacity, dict(PIPELINE_CHAIN, jobs=2)),
    "llm-split-colocated": (plan_llm_capacity, LLM_SPLIT),
    "llm-none-feasible": (plan_llm_capacity, dict(
        rate=500.0, model="decoder", ttft_slo_seconds=0.2,
        tpot_slo_seconds=0.01, duration=0.5, max_replicas=2, top_k=1)),
    "llm-jobs2": (plan_llm_capacity, dict(LLM_SPLIT, jobs=2)),
}


def digest(name: str) -> str:
    """sha256 of one scenario's payload as insertion-order JSON."""

    planner, kwargs = SCENARIOS[name]
    payload = planner(**kwargs)
    if kwargs.get("jobs"):
        del payload["cache"]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_payload_matches_golden(name):
    if SCENARIOS[name][1].get("jobs") and (os.cpu_count() or 1) < 2:
        pytest.skip("parallel validation needs >= 2 CPUs")
    assert digest(name) == json.loads(GOLDENS.read_text())[name]


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps({name: digest(name) for name in SCENARIOS},
                                  indent=1) + "\n")
