"""The discrete-event kernel of classic and pipeline serving.

One :class:`Kernel` runs every :func:`serve` and
:func:`~repro.serve.pipeline.serve_pipeline` experiment.  It owns a single
heap of ``(time, sequence, kind, pool, payload)`` events, pulls arrivals
lazily from :meth:`~repro.serve.traffic.TrafficPattern.iter_arrivals` (the
heap holds in-flight work plus exactly one future arrival), routes each
request onto a :class:`Pool` — a fleet with its least-loaded
:class:`~repro.serve.cluster.LoadIndex`, an optional autoscaler and a batch
sink — and lets the replica's batching policy fold its queue into
single-model batches.  Every batch's service time/energy comes from the
engine (``simulate`` of a batched ``RunSpec`` through the run's own
LRU-bounded :class:`~repro.engine.ResultCache`), plus
``dispatch_overhead_seconds`` of host-side launch cost — the cost batching
amortises, without which the engine's linear batch scaling would make
batching a no-op.

Classic :func:`serve` is one pool whose sink records each completion.  A
pipeline run is one pool per stage whose sinks draw the next stage and hand
the request back to the kernel as a ``"hop"`` event; the kernel itself knows
nothing about stages.  Arrival events are sequenced by request index and all
runtime events from a disjoint higher range, so event ordering (ties
included) is identical whether arrivals are prefetched lazily or were all
pushed up front, and every random draw comes from a seeded generator — a
run's arguments map to one bit-exact :class:`ServeReport`.

``summary="exact"`` keeps one record per request and reports nearest-rank
order statistics; ``summary="streaming"`` folds completions into
bounded-memory log histograms (:class:`~repro.serve.metrics.ReportAccumulator`),
making memory independent of request count.

Pools may be *dynamic*: with an autoscaler (see :mod:`repro.plan.autoscaler`)
the kernel adds periodic ``"scale"`` control events — the policy decides a
desired replica count, scale-ups come online ``provision_seconds`` later (a
``"provision"`` event), and scale-downs drain: the replica leaves the
routing set at once but its queue keeps dispatching (with the policy's drain
flush) until it empties, at which point it retires.  Everything stays on the
one heap, so autoscaled runs are exactly as deterministic as static ones.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from typing import Callable, Sequence

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
from repro.serve.traffic import Request, TrafficPattern
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


def check_args(*, summary: str, percentiles: Sequence[float],
               slo_seconds: float = DEFAULT_SLO,
               dispatch_overhead_seconds: float = 0.0,
               window_seconds: float | None = None) -> None:
    """Reject bad run arguments up front, before any event is simulated
    (shared by :func:`serve`, ``serve_pipeline`` and ``serve_llm``)."""

    if dispatch_overhead_seconds < 0:
        raise ValueError(f"dispatch_overhead_seconds must be >= 0, "
                         f"got {dispatch_overhead_seconds}")
    if slo_seconds <= 0:
        raise ValueError(f"slo_seconds must be positive, got {slo_seconds}")
    if window_seconds is not None and window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    if summary not in SUMMARY_MODES:
        raise ValueError(f"summary must be one of {SUMMARY_MODES}, "
                         f"got {summary!r}")
    outside = [fraction for fraction in percentiles if not 0 <= fraction <= 1]
    if outside:
        raise ValueError(f"percentiles must be fractions in [0, 1], "
                         f"got {outside}")


class Pool:
    """One routing domain of a run: a fleet plus its load index, optional
    autoscaler and the caller's batch sink.

    ``complete(replica, batch, now, finish)`` runs once per dispatched batch
    and returns the ``(pool, request)`` hops to schedule at each hop's
    ``request.arrival``, or ``None``.  ``model``, when set, is the workload
    every request runs as on this pool (a pipeline stage's); ``None`` keeps
    each request's own model.
    """

    __slots__ = ("fleet", "complete", "autoscaler", "model", "index")

    def __init__(self, fleet: Fleet, complete: Callable | None = None, *,
                 autoscaler=None, model: str | None = None):
        self.fleet = fleet
        self.complete = complete
        self.autoscaler = autoscaler
        self.model = model
        self.index: LoadIndex | None = None


class Kernel:
    """The shared event loop: heap, arrivals, routing, dispatch and fold.

    Construct one per run, hand :meth:`run` its pools, then fold the outcome
    with :meth:`report`.  Completed requests reach the report through
    :attr:`finish` — ``finish(index, model, arrival, replica, batch_size,
    dispatch, completion, queue_wait)`` — which sinks may capture: it holds
    the fold and the observer, never the kernel, so a run leaves no
    kernel/sink reference cycle behind.
    """

    def __init__(self, traffic: TrafficPattern, policy: BatchPolicy | str,
                 router: Router | str, *, duration: float, seed: int,
                 slo_seconds: float, dispatch_overhead_seconds: float,
                 cache: ResultCache | None, percentiles: Sequence[float],
                 window_seconds: float | None, summary: str, obs):
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.router = make_router(router) if isinstance(router, str) else router
        self.duration = duration
        self.arrivals = _iter_arrivals(traffic, duration, seed)
        self.slo_seconds = slo_seconds
        self.dispatch_overhead_seconds = dispatch_overhead_seconds
        self.cache = (ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
                      if cache is None else cache)
        self.percentiles = percentiles
        self.window_seconds = window_seconds
        self.summary = summary
        self.obs = obs
        self.pools: tuple[Pool, ...] = ()
        self.events: list[tuple[float, int, str, Pool, object]] = []
        self.sequence = itertools.count(RUNTIME_SEQUENCE_BASE)
        self.offered = 0
        self.exhausted = False
        # Routing estimates are memoised outside the result cache: one engine
        # simulation per (model, replica kind) for the whole run, and the
        # reported cache counters keep describing batch-dispatch reuse instead
        # of being swamped by per-arrival estimate lookups.
        self.estimates: dict[tuple[str, ReplicaSpec], Estimate] = {}

        records: list[RequestRecord] = []
        accumulator = None
        if summary == "streaming":
            accumulator = ReportAccumulator(
                slo_seconds=slo_seconds, percentiles=percentiles,
                window_seconds=window_seconds)

        def finish(index: int, model: str, arrival: float, replica: Replica,
                   batch_size: int, dispatch: float, completion: float,
                   queue_wait: float) -> None:
            if accumulator is not None:
                accumulator.observe(model, arrival, dispatch, completion)
            else:
                records.append(RequestRecord(
                    index=index, model=model, arrival=arrival,
                    replica=replica.name, batch_size=batch_size,
                    dispatch=dispatch, completion=completion))
            if obs is not None:
                obs.request_finished(index, model, arrival, queue_wait,
                                     completion)

        self.records = records
        self.accumulator = accumulator
        self.finish = finish

    def estimate(self, model: str, replica: Replica) -> Estimate:
        key = (model, replica.spec)
        cached = self.estimates.get(key)
        if cached is None:
            result = simulate(RunSpec(model, target=replica.spec.target,
                                      attention=replica.spec.attention),
                              cache=self.cache)
            cached = Estimate(self.dispatch_overhead_seconds
                              + result.end_to_end_latency,
                              result.end_to_end_energy)
            self.estimates[key] = cached
        return cached

    def enqueue(self, pool: Pool, request: Request, now: float,
                entry: bool) -> None:
        index = pool.index
        if index is not None:
            replica = index.argmin(now)
            if replica is None:                  # every replica is draining
                replica = self.router.choose(pool.fleet.replicas, request.model,
                                             now, self.estimate)
        else:
            fleet = pool.fleet
            replica = self.router.choose(fleet.active_replicas or fleet.replicas,
                                         request.model, now, self.estimate)
        replica.queue.append(request)
        replica.queued_seconds += self.estimate(request.model,
                                                replica).latency_seconds
        if index is not None and replica.active:
            index.update(replica, now)
        if self.obs is not None:
            self.obs.request_routed(request, replica, now, len(replica.queue),
                                    entry=entry)
        self.dispatch(pool, replica, now)

    def dispatch(self, pool: Pool, replica: Replica, now: float) -> None:
        policy, events, sequence, obs, estimate = (
            self.policy, self.events, self.sequence, self.obs, self.estimate)
        # A draining replica flushes like a run-end drain: it will never see
        # another arrival, so holding out for a fuller batch only delays its
        # retirement (and the requests already queued on it).
        while replica.idle(now) and replica.queue:
            batch = policy.take(replica.queue, now,
                                draining=(self.exhausted or not replica.active))
            if batch is None:
                deadline = policy.deadline(replica.queue)
                if deadline is not None and deadline > now:
                    heapq.heappush(events, (deadline, next(sequence), "poll",
                                            pool, replica))
                break
            for request in batch:
                replica.queued_seconds -= estimate(request.model,
                                                   replica).latency_seconds
            if not replica.queue:
                replica.queued_seconds = 0.0    # shed float residue when empty
            spec = RunSpec(batch[0].model, target=replica.spec.target,
                           attention=replica.spec.attention,
                           batch_size=len(batch))
            result = simulate(spec, cache=self.cache)
            service = self.dispatch_overhead_seconds + result.end_to_end_latency
            finish = now + service
            replica.busy_until = finish
            replica.busy_seconds += service
            replica.energy_joules += result.end_to_end_energy
            replica.batches += 1
            replica.served += len(batch)
            if obs is not None:
                obs.batch_dispatched(replica, batch, now, finish, replica.stage)
            hops = pool.complete(replica, batch, now, finish)
            if hops:
                for target, request in hops:
                    heapq.heappush(events, (request.arrival, next(sequence),
                                            "hop", target, request))
            heapq.heappush(events, (finish, next(sequence), "free", pool,
                                    replica))
            logger.debug("t=%.6f dispatch %s: %s x%d (service %.6fs, %d queued)",
                         now, replica.name, batch[0].model, len(batch), service,
                         len(replica.queue))
        if (not replica.active and replica.retired_at is None
                and not replica.queue and replica.idle(now)):
            replica.retired_at = now
            if obs is not None:
                obs.replica_retired(replica, now)
            logger.debug("t=%.6f retired %s", now, replica.name)
        if pool.index is not None and replica.active:
            pool.index.update(replica, now)

    def run(self, pools: Sequence[Pool], entry: Pool, label: str) -> None:
        """Simulate until every request has left; arrivals enter at ``entry``."""

        self.pools = pools = tuple(pools)
        obs, events, sequence = self.obs, self.events, self.sequence
        uses_index = getattr(self.router, "uses_load_index", False)
        for pool in pools:
            pool.index = LoadIndex(pool.fleet.replicas) if uses_index else None
        if obs is not None:
            obs.begin_run(self.replicas, label)
        arrivals = self.arrivals
        first = next(arrivals, None)
        self.exhausted = first is None
        if first is not None:
            events.append((first.arrival, first.index, "arrival", entry, first))
        for pool in pools:
            scaler = pool.autoscaler
            if scaler is not None:
                scaler.begin(pool.fleet, observer=obs)
                if scaler.interval <= self.duration:
                    events.append((scaler.interval, next(sequence), "scale",
                                   pool, None))
        heapq.heapify(events)

        enqueue, dispatch = self.enqueue, self.dispatch
        offered = 0
        tick = obs.event_tick if obs is not None else None
        while events:
            now, _, kind, pool, payload = heapq.heappop(events)
            if tick is not None:
                tick(now)
            if kind == "arrival":
                offered += 1
                upcoming = next(arrivals, None)
                if upcoming is None:
                    self.exhausted = True
                else:
                    heapq.heappush(events, (upcoming.arrival, upcoming.index,
                                            "arrival", pool, upcoming))
                if pool.model is not None:
                    payload = Request(index=payload.index, model=pool.model,
                                      arrival=payload.arrival)
                enqueue(pool, payload, now, True)
                if self.exhausted:
                    # Last arrival processed: policies holding out for bigger
                    # batches will never see another trigger, so flush every
                    # pool (later hops dispatch in draining mode).
                    for other in pools:
                        for replica in other.fleet.replicas:
                            dispatch(other, replica, now)
            elif kind == "hop":
                enqueue(pool, payload, now, False)
            elif kind == "scale":
                scaler = pool.autoscaler
                additions, drained = scaler.check(now, pool.fleet)
                for _ in range(additions):
                    heapq.heappush(events, (now + scaler.provision_seconds,
                                            next(sequence), "provision", pool,
                                            None))
                for replica in drained:
                    if pool.index is not None:
                        pool.index.remove(replica)
                    dispatch(pool, replica, now)  # flush or retire immediately
                next_check = now + scaler.interval
                if next_check <= self.duration:
                    heapq.heappush(events, (next_check, next(sequence), "scale",
                                            pool, None))
            elif kind == "provision":
                replica = pool.autoscaler.provision(now, pool.fleet)
                if pool.index is not None:
                    pool.index.update(replica, now)
            else:                                # "free" and "poll" re-evaluate
                dispatch(pool, payload, now)
        self.offered = offered

    @property
    def replicas(self) -> list[Replica]:
        """Every replica of every pool, autoscaled additions included."""

        return [replica for pool in self.pools for replica in pool.fleet.replicas]

    def makespan(self) -> float:
        """``max(duration, last completion)`` of the run so far."""

        last = (self.accumulator.last_completion if self.accumulator is not None
                else max((record.completion for record in self.records),
                         default=0.0))
        return max(self.duration, last)

    def report(self, config: dict[str, object], label: str,
               pipeline: dict[str, object] | None = None) -> ServeReport:
        """Fold the run into its :class:`ServeReport` (exact or streaming).

        ``config`` is the caller's echo of its arguments; the shared keys
        (extra percentiles, windows, summary mode) are appended here.
        """

        scale_events = tuple(sorted(
            (event for pool in self.pools if pool.autoscaler is not None
             for event in pool.autoscaler.collect_events(pool.fleet)),
            key=lambda event: (event.time, event.action, event.replica)))
        if tuple(self.percentiles) != DEFAULT_PERCENTILES:
            config["percentiles"] = sorted(set(self.percentiles))
        if self.window_seconds is not None:
            config["window_seconds"] = self.window_seconds
        if self.accumulator is not None:
            config["summary"] = self.summary
            report = self.accumulator.finalize(
                config, offered=self.offered, duration=self.duration,
                replicas=self.replicas, cache_stats=self.cache.stats(),
                scale_events=scale_events, pipeline=pipeline)
        else:
            self.records.sort(key=lambda record: record.index)
            report = build_report(
                config, self.records, offered=self.offered,
                duration=self.duration, slo_seconds=self.slo_seconds,
                replicas=self.replicas, cache_stats=self.cache.stats(),
                percentiles=self.percentiles, scale_events=scale_events,
                window_seconds=self.window_seconds, pipeline=pipeline)
        logger.info("%s: completed %d/%d requests, p99 %.4fs, "
                    "throughput %.1f rps", label, report.completed,
                    report.offered, report.latency.p99, report.throughput_rps)
        if self.obs is not None:
            self.obs.end_run(report)
        return report


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

    check_args(summary=summary, percentiles=percentiles, slo_seconds=slo_seconds,
               dispatch_overhead_seconds=dispatch_overhead_seconds,
               window_seconds=window_seconds)
    if isinstance(fleet, str):
        fleet = Fleet.parse(fleet)
    kernel = Kernel(traffic, policy, router, duration=duration, seed=seed,
                    slo_seconds=slo_seconds,
                    dispatch_overhead_seconds=dispatch_overhead_seconds,
                    cache=cache, percentiles=percentiles,
                    window_seconds=window_seconds, summary=summary, obs=obs)
    fleet.reset()
    logger.info("serve: streaming arrivals over %.3fs on %s "
                "(policy=%s router=%s summary=%s)", duration, fleet.describe(),
                kernel.policy.name, kernel.router.name, summary)
    finish = kernel.finish

    def complete(replica: Replica, batch: list, now: float,
                 end: float) -> None:
        size = len(batch)
        for request in batch:
            finish(request.index, request.model, request.arrival, replica,
                   size, now, end, now - request.arrival)

    pool = Pool(fleet, complete, autoscaler=autoscaler)
    kernel.run([pool], pool, "serve")
    config = {
        "traffic": traffic.to_dict(),
        "fleet": fleet.describe(),
        "policy": kernel.policy.to_dict(),
        "router": kernel.router.name,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "dispatch_overhead_seconds": dispatch_overhead_seconds,
    }
    if autoscaler is not None:
        config["autoscaler"] = autoscaler.to_dict()
    return kernel.report(config, "serve")


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
