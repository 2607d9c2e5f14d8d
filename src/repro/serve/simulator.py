"""The discrete-event core of the serving simulator.

:func:`serve` runs one online-serving experiment: a traffic pattern emits
requests, a router places each on a fleet replica, the replica's batching
policy folds its queue into single-model batches, and every batch's service
time/energy comes from the engine (``simulate`` of a batched ``RunSpec``
through the run's own LRU-bounded :class:`~repro.engine.ResultCache`, so
repeated (model, batch-size) shapes simulate exactly once per run).

Each dispatch additionally pays ``dispatch_overhead_seconds`` — the host-side
launch/weight-staging cost a real deployment amortises by batching.  Without
it the engine's linear batch scaling would make batching a no-op; with it,
larger batches trade queueing delay for sustained throughput, which is the
trade-off the schedulers exist to navigate.

The event loop is a single heap of ``(time, sequence, kind, payload)``
entries with a monotone tie-breaking sequence, and every random draw comes
from the traffic pattern's seeded generator — so a (traffic, fleet, policy,
router, duration, seed) tuple maps to one bit-exact :class:`ServeReport`.

The loop *streams*: arrivals are pulled lazily from
:meth:`~repro.serve.traffic.TrafficPattern.iter_arrivals` (the heap holds
in-flight work plus exactly one future arrival, never the whole trace), and
``summary="streaming"`` additionally folds completions into bounded-memory
log histograms (:class:`~repro.serve.metrics.ReportAccumulator`) instead of
keeping a record per request — making memory independent of request count.
The default ``summary="exact"`` keeps the per-request records and
nearest-rank order statistics, bit-identical to the pre-streaming reports.
Arrival events are sequenced by request index and all runtime events from a
disjoint higher range, so event ordering (ties included) is identical
whether arrivals are prefetched lazily or were all pushed up front.

Fleets may be *dynamic*: pass an ``autoscaler`` (see
:mod:`repro.plan.autoscaler`) and the loop adds periodic ``"scale"`` control
events — the policy decides a desired replica count, scale-ups come online
``provision_seconds`` later (a ``"provision"`` event), and scale-downs drain:
the replica leaves the routing set at once but its queue keeps dispatching
(with the policy's drain flush) until it empties, at which point it retires.
Everything stays on the one event heap, so autoscaled runs are exactly as
deterministic as static ones.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from typing import Sequence

from repro.engine import ResultCache, RunSpec, simulate
from repro.serve.batching import BatchPolicy, make_policy
from repro.serve.cluster import (
    Estimate,
    Fleet,
    LoadIndex,
    Replica,
    ReplicaSpec,
    Router,
    make_router,
)
from repro.serve.metrics import (
    DEFAULT_PERCENTILES,
    ReportAccumulator,
    RequestRecord,
    ServeReport,
    build_report,
)
from repro.serve.traffic import TrafficPattern
from repro.serve.traffic import iter_arrivals as _iter_arrivals

logger = logging.getLogger(__name__)

#: Default host-side cost of dispatching one batch to a replica (seconds).
DEFAULT_DISPATCH_OVERHEAD = 5e-4

#: Default latency SLO (seconds).
DEFAULT_SLO = 0.05

#: Default LRU bound of the per-run engine result cache.
DEFAULT_CACHE_ENTRIES = 1024

#: Report summary modes: ``"exact"`` keeps per-request records (nearest-rank
#: percentiles, O(requests) memory); ``"streaming"`` folds completions into
#: log histograms (bounded memory, quantiles within 1 % of exact).
SUMMARY_MODES = ("exact", "streaming")

#: Runtime (non-arrival) events sequence from this base, far above any
#: realistic arrival index — arrival ties thus always beat runtime ties, the
#: exact ordering the historical push-everything-up-front loop produced.
RUNTIME_SEQUENCE_BASE = 2 ** 62


def check_summary(summary: str) -> None:
    """Reject unknown summary modes up front (shared with :func:`serve_llm`)."""

    if summary not in SUMMARY_MODES:
        raise ValueError(f"summary must be one of {SUMMARY_MODES}, "
                         f"got {summary!r}")


def serve(traffic: TrafficPattern, fleet: Fleet | str,
          policy: BatchPolicy | str = "timeout", router: Router | str = "least-loaded",
          *, duration: float, seed: int = 0,
          slo_seconds: float = DEFAULT_SLO,
          dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
          cache: ResultCache | None = None,
          autoscaler=None,
          percentiles: Sequence[float] = DEFAULT_PERCENTILES,
          window_seconds: float | None = None,
          summary: str = "exact",
          obs=None) -> ServeReport:
    """Run one serving simulation and return its :class:`ServeReport`.

    ``fleet`` accepts a :class:`Fleet` or a spec string (``"2xvitality,1xgpu"``);
    ``policy`` and ``router`` accept built instances or registry names
    (``"fifo"`` / ``"size"`` / ``"timeout"``, ``"least-loaded"`` /
    ``"energy-aware"``).  A fresh LRU-bounded result cache is created unless
    one is passed in (pass one to share simulations across runs).

    ``autoscaler`` (a :class:`repro.plan.Autoscaler`) makes the fleet dynamic
    — its policy is consulted every ``interval`` seconds of simulated time and
    may add replicas (online after ``provision_seconds``) or drain them; the
    report then carries the scale events and per-replica lifetimes.
    ``percentiles`` adds latency quantiles beyond p50/p95/p99 (``0.999`` for
    p99.9); ``window_seconds`` adds per-window throughput/tail/replica-count
    rows so scale events are visible over time.

    ``summary`` selects the reporting fold: ``"exact"`` (default) keeps one
    record per request and reports exact nearest-rank percentiles —
    bit-identical to historical reports; ``"streaming"`` folds completions
    into log histograms as they happen, bounding memory at
    O(replicas + models + windows) for arbitrarily long runs (quantiles
    become estimates within 1 % relative of the exact ones — see
    :class:`~repro.serve.metrics.ReportAccumulator` for the bound).

    ``obs`` (a :class:`repro.obs.Observability`) attaches tracing, streaming
    metrics and/or progress reporting.  The hooks are pure observers: an
    instrumented run returns a bit-identical report, and ``obs=None`` (the
    default) skips every hook.
    """

    if isinstance(fleet, str):
        fleet = Fleet.parse(fleet)
    if isinstance(policy, str):
        policy = make_policy(policy)
    if isinstance(router, str):
        router = make_router(router)
    if dispatch_overhead_seconds < 0:
        raise ValueError(f"dispatch_overhead_seconds must be >= 0, "
                         f"got {dispatch_overhead_seconds}")
    if slo_seconds <= 0:
        raise ValueError(f"slo_seconds must be positive, got {slo_seconds}")
    if window_seconds is not None and window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    check_summary(summary)
    cache = ResultCache(max_entries=DEFAULT_CACHE_ENTRIES) if cache is None else cache
    fleet.reset()
    if obs is not None:
        obs.begin_run(fleet.replicas, "serve")

    logger.info("serve: streaming arrivals over %.3fs on %s "
                "(policy=%s router=%s summary=%s)",
                duration, fleet.describe(), policy.name, router.name, summary)
    records: list[RequestRecord] = []
    accumulator = None
    if summary == "streaming":
        accumulator = ReportAccumulator(
            slo_seconds=slo_seconds, percentiles=percentiles,
            window_seconds=window_seconds)

    # Routing estimates are memoised outside the result cache: one engine
    # simulation per (model, replica kind) for the whole run, and the
    # reported cache counters keep describing batch-dispatch reuse instead
    # of being swamped by per-arrival estimate lookups.
    estimates: dict[tuple[str, ReplicaSpec], Estimate] = {}

    def estimate(model: str, replica: Replica) -> Estimate:
        key = (model, replica.spec)
        cached = estimates.get(key)
        if cached is None:
            result = simulate(RunSpec(model, target=replica.spec.target,
                                      attention=replica.spec.attention), cache=cache)
            cached = Estimate(dispatch_overhead_seconds + result.end_to_end_latency,
                              result.end_to_end_energy)
            estimates[key] = cached
        return cached

    # Arrival events are sequenced by request index, runtime events from a
    # disjoint higher range: the merged order (ties included) matches the
    # historical loop that pushed every arrival before any runtime event.
    sequence = itertools.count(RUNTIME_SEQUENCE_BASE)
    arrival_stream = _iter_arrivals(traffic, duration, seed)
    offered = 0
    first = next(arrival_stream, None)
    exhausted = first is None
    events: list[tuple[float, int, str, object]] = []
    if first is not None:
        events.append((first.arrival, first.index, "arrival", first))
    if autoscaler is not None:
        autoscaler.begin(fleet, observer=obs)
        if autoscaler.interval <= duration:
            events.append((autoscaler.interval, next(sequence), "scale", None))
    heapq.heapify(events)

    # Least-loaded routing goes through an incrementally maintained backlog
    # index instead of a per-arrival scan over the fleet.
    index = LoadIndex(fleet.replicas) if getattr(router, "uses_load_index",
                                                 False) else None

    def dispatch(replica: Replica, now: float) -> None:
        # A draining replica flushes like a run-end drain: it will never see
        # another arrival, so holding out for a fuller batch only delays its
        # retirement (and the requests already queued on it).
        while replica.idle(now) and replica.queue:
            batch = policy.take(replica.queue, now,
                                draining=(exhausted or not replica.active))
            if batch is None:
                deadline = policy.deadline(replica.queue)
                if deadline is not None and deadline > now:
                    heapq.heappush(events, (deadline, next(sequence), "poll", replica))
                break
            for request in batch:
                replica.queued_seconds -= estimate(request.model, replica).latency_seconds
            if not replica.queue:
                replica.queued_seconds = 0.0    # shed float residue when empty
            spec = RunSpec(batch[0].model, target=replica.spec.target,
                           attention=replica.spec.attention, batch_size=len(batch))
            result = simulate(spec, cache=cache)
            service = dispatch_overhead_seconds + result.end_to_end_latency
            finish = now + service
            replica.busy_until = finish
            replica.busy_seconds += service
            replica.energy_joules += result.end_to_end_energy
            replica.batches += 1
            replica.served += len(batch)
            if accumulator is not None:
                for request in batch:
                    accumulator.observe(request.model, request.arrival, now, finish)
            else:
                records.extend(
                    RequestRecord(index=request.index, model=request.model,
                                  arrival=request.arrival, replica=replica.name,
                                  batch_size=len(batch), dispatch=now, completion=finish)
                    for request in batch)
            heapq.heappush(events, (finish, next(sequence), "free", replica))
            if obs is not None:
                obs.batch_dispatched(replica, batch, now, finish)
            logger.debug("t=%.6f dispatch %s: %s x%d (service %.6fs, %d queued)",
                         now, replica.name, batch[0].model, len(batch), service,
                         len(replica.queue))
        if (not replica.active and replica.retired_at is None
                and not replica.queue and replica.idle(now)):
            replica.retired_at = now
            if obs is not None:
                obs.replica_retired(replica, now)
            logger.debug("t=%.6f retired %s", now, replica.name)
        if index is not None and replica.active:
            index.update(replica, now)

    tick = obs.event_tick if obs is not None else None
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if tick is not None:
            tick(now)
        if kind == "arrival":
            offered += 1
            upcoming = next(arrival_stream, None)
            if upcoming is None:
                exhausted = True
            else:
                heapq.heappush(events, (upcoming.arrival, upcoming.index,
                                        "arrival", upcoming))
            if index is not None:
                replica = index.argmin(now)
                if replica is None:              # every replica is draining
                    replica = router.choose(fleet.replicas, payload.model, now,
                                            estimate)
            else:
                candidates = fleet.active_replicas or fleet.replicas
                replica = router.choose(candidates, payload.model, now, estimate)
            replica.queue.append(payload)
            replica.queued_seconds += estimate(payload.model, replica).latency_seconds
            if index is not None and replica.active:
                index.update(replica, now)
            if obs is not None:
                obs.request_routed(payload, replica, now, len(replica.queue))
            dispatch(replica, now)
            if exhausted:
                # Last arrival processed: policies holding out for bigger
                # batches will never see another trigger, so flush everyone.
                for other in fleet.replicas:
                    dispatch(other, now)
        elif kind == "scale":
            additions, drained = autoscaler.check(now, fleet)
            for _ in range(additions):
                heapq.heappush(events, (now + autoscaler.provision_seconds,
                                        next(sequence), "provision", None))
            for replica in drained:
                if index is not None:
                    index.remove(replica)
                dispatch(replica, now)           # flush or retire immediately
            next_check = now + autoscaler.interval
            if next_check <= duration:
                heapq.heappush(events, (next_check, next(sequence), "scale", None))
        elif kind == "provision":
            replica = autoscaler.provision(now, fleet)
            if index is not None:
                index.update(replica, now)
        else:                                    # "free" and "poll" re-evaluate
            dispatch(payload, now)

    config = {
        "traffic": traffic.to_dict(),
        "fleet": fleet.describe(),
        "policy": policy.to_dict(),
        "router": router.name,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "dispatch_overhead_seconds": dispatch_overhead_seconds,
    }
    scale_events = ()
    if autoscaler is not None:
        config["autoscaler"] = autoscaler.to_dict()
        scale_events = autoscaler.collect_events(fleet)
    if tuple(percentiles) != DEFAULT_PERCENTILES:
        config["percentiles"] = sorted(set(percentiles))
    if window_seconds is not None:
        config["window_seconds"] = window_seconds
    if accumulator is not None:
        config["summary"] = summary
        report = accumulator.finalize(config, offered=offered, duration=duration,
                                      replicas=fleet.replicas,
                                      cache_stats=cache.stats(),
                                      scale_events=scale_events)
    else:
        records.sort(key=lambda record: record.index)
        report = build_report(config, records, offered=offered, duration=duration,
                              slo_seconds=slo_seconds, replicas=fleet.replicas,
                              cache_stats=cache.stats(), percentiles=percentiles,
                              scale_events=scale_events, window_seconds=window_seconds)
    logger.info("serve: completed %d/%d requests, p99 %.4fs, throughput %.1f rps",
                report.completed, report.offered, report.latency.p99,
                report.throughput_rps)
    if obs is not None:
        obs.end_run(report)
    return report


def compare(traffic: TrafficPattern, fleets: dict[str, Fleet | str],
            policy: BatchPolicy | str = "timeout",
            router: Router | str = "least-loaded", *, duration: float,
            seed: int = 0, slo_seconds: float = DEFAULT_SLO,
            dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
            models: Sequence[str] | None = None,
            percentiles: Sequence[float] = DEFAULT_PERCENTILES,
            window_seconds: float | None = None,
            autoscaler=None,
            summary: str = "exact",
            obs=None) -> dict[str, ServeReport]:
    """Serve identical traffic on several fleets; one report per fleet.

    Every fleet sees the same arrival sequence (same traffic, duration and
    seed) and its own fresh replicas and cache, so reports differ only by the
    fleet under test — the setup behind the vanilla-vs-taylor serving tables.
    ``models``, when given, pre-warms each fleet's cache for those workloads.

    ``window_seconds``, ``autoscaler``, ``summary`` and ``obs`` thread
    straight through to each :func:`serve` run, so comparisons get windowed
    reports, dynamic fleets, streaming summaries and observability exactly
    like single runs do (one shared ``autoscaler``/``obs`` instance is reset
    by each run in turn, so per-fleet reports stay independent).
    """

    reports: dict[str, ServeReport] = {}
    for name, fleet_spec in fleets.items():
        fleet = Fleet.parse(fleet_spec) if isinstance(fleet_spec, str) else fleet_spec
        cache = ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
        if models is not None:
            fleet.warmup(models, cache=cache)
        reports[name] = serve(
            traffic, fleet, policy, router, duration=duration, seed=seed,
            slo_seconds=slo_seconds,
            dispatch_overhead_seconds=dispatch_overhead_seconds, cache=cache,
            autoscaler=autoscaler, percentiles=percentiles,
            window_seconds=window_seconds, summary=summary, obs=obs)
    return reports
