"""Capacity planning and autoscaling over the serving simulator.

Where :mod:`repro.serve` evaluates one *fixed* fleet under one traffic
pattern, this package closes the operator's loop:

* :mod:`queueing` — an analytic M/M/c-style estimator with batch-aware
  service times from cached engine results: utilization, throughput ceiling
  and approximate latency percentiles for a candidate fleet in microseconds;
* :mod:`autoscaler` — pluggable scaling policies (utilization-threshold,
  queue-depth, scheduled) behind an :class:`Autoscaler` the simulator's
  event loop consults, with provisioning delay and drain semantics;
* :mod:`optimizer` — three SLO-driven planners over one search driver
  (analytic prune, Pareto-first shortlist, simulated validation, cheapest
  attained choice): :func:`plan_capacity` sizes ``count x kind`` fleets
  (:func:`repro.serve.serve`), :func:`plan_pipeline_capacity` sizes every
  stage pool of a pipeline jointly against an end-to-end SLO
  (:func:`repro.serve.serve_pipeline`), and :func:`plan_llm_capacity` splits
  prefill/decode pools against a TTFT+TPOT SLO pair
  (:func:`repro.serve.serve_llm`).

Typical use::

    from repro.plan import Autoscaler, estimate_fleet, plan_capacity
    from repro.serve import DiurnalTraffic, WorkloadMix, serve

    payload = plan_capacity(900.0, ["deit-tiny"], slo_seconds=0.02,
                            duration=2.0, targets=("vitality",))
    print(payload["chosen"]["fleet"])

    scaler = Autoscaler("utilization", "vitality", min_replicas=1,
                        max_replicas=4, interval=0.1, provision_seconds=0.2)
    traffic = DiurnalTraffic(peak_rate=900.0, mix=WorkloadMix.of(["deit-tiny"]))
    report = serve(traffic, "1xvitality", policy="fifo", duration=8.0,
                   autoscaler=scaler, window_seconds=1.0)
    print(report.replica_seconds, [e.to_dict() for e in report.scale_events])
"""

from repro.plan.autoscaler import (
    SCALE_POLICIES,
    Autoscaler,
    QueueDepthScalePolicy,
    ScalePolicy,
    ScaleState,
    ScheduledScalePolicy,
    UtilizationScalePolicy,
    make_scale_policy,
)
from repro.plan.optimizer import (
    pareto_frontier,
    plan_capacity,
    plan_llm_capacity,
    plan_pipeline_capacity,
)
from repro.plan.queueing import (
    LLMPoolEstimate,
    PipelineEstimate,
    QueueingEstimate,
    ServiceTimes,
    erlang_c,
    estimate_fleet,
    estimate_llm_pools,
    estimate_pipeline,
)

__all__ = [
    "Autoscaler",
    "LLMPoolEstimate",
    "PipelineEstimate",
    "QueueDepthScalePolicy",
    "QueueingEstimate",
    "SCALE_POLICIES",
    "ScalePolicy",
    "ScaleState",
    "ScheduledScalePolicy",
    "ServiceTimes",
    "UtilizationScalePolicy",
    "erlang_c",
    "estimate_fleet",
    "estimate_llm_pools",
    "estimate_pipeline",
    "make_scale_policy",
    "pareto_frontier",
    "plan_capacity",
    "plan_llm_capacity",
    "plan_pipeline_capacity",
]
