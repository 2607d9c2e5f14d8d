"""The discrete-event kernel behind every serving simulator.

One :class:`Kernel` runs every :func:`serve`,
:func:`~repro.serve.pipeline.serve_pipeline` and
:func:`~repro.serve.llm.serve_llm` experiment.  It owns a single heap of
``(time, sequence, kind, pool, payload)`` events, pulls arrivals lazily from
:meth:`~repro.serve.traffic.TrafficPattern.iter_arrivals` (the heap holds
in-flight work plus exactly one future arrival), hands every event to the
:class:`Pool` it names, and folds completions into the report.  Pools own
routing, dispatch and completion effects:

* a :class:`BatchPool` (classic and pipeline serving) routes onto a fleet
  through its least-loaded :class:`~repro.serve.cluster.LoadIndex` and lets
  each replica's batching policy fold its queue into single-model batches.
  A batch costs the engine's service time (``simulate`` of a batched
  ``RunSpec`` through the run's LRU-bounded
  :class:`~repro.engine.ResultCache`) plus ``dispatch_overhead_seconds`` of
  host-side launch cost, the cost batching amortises;
* an :class:`~repro.serve.llm.LLMPool` runs prefill chunks, continuous
  decode steps or monolithic gang steps against per-replica KV caches.

Classic :func:`serve` is one batch pool whose sink records each completion.
A pipeline run is one pool per stage whose sinks hand each request to the
next stage as a ``"hop"`` event; a disaggregated LLM run hops each prefilled
request into its decode pool the same way.  The kernel knows nothing about
stages or phases.  Arrival events are sequenced by request index and all
runtime events from a disjoint higher range, so event ordering (ties
included) is identical whether arrivals are prefetched lazily or were all
pushed up front, and every random draw comes from a seeded generator — a
run's arguments map to one bit-exact :class:`ServeReport`.

``summary="exact"`` keeps one record per request and reports nearest-rank
order statistics; ``summary="streaming"`` folds completions into
bounded-memory log histograms (:class:`~repro.serve.metrics.ReportAccumulator`),
making memory independent of request count.  LLM runs add TTFT/TPOT
summaries and per-phase SLO attainment counters to either fold.

Batch pools may be *dynamic*: with an autoscaler (see
:mod:`repro.plan.autoscaler`) the kernel adds periodic ``"scale"`` control
events — the policy decides a desired replica count, scale-ups come online
``provision_seconds`` later (a ``"provision"`` event), and scale-downs drain:
the replica leaves the routing set at once but its queue keeps dispatching
(with the policy's drain flush) until it empties, at which point it retires.
Everything stays on the one heap, so autoscaled runs are exactly as
deterministic as static ones.
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
    """One routing domain of a run: the interface :class:`Kernel` drives.

    ``enqueue(kernel, request, now, entry)`` places an arrival (``entry``)
    or a hop; ``dispatch(kernel, replica, now)`` starts what ``replica`` can
    run now (``"poll"`` events, drained replicas); ``free(kernel, payload,
    now)`` applies a finished operation's effects, then dispatches again;
    ``flush(kernel, now)`` runs once, after the last arrival.  ``replicas``
    lists what the report covers.  The kernel is passed in, never stored,
    so a run leaves no kernel/pool reference cycle behind.
    """

    __slots__ = ()

    autoscaler = None

    def flush(self, kernel: "Kernel", now: float) -> None:
        """Arrivals ran out; nothing to do unless the pool holds work back."""


class BatchPool(Pool):
    """A fleet whose replicas batch their queues (classic and pipeline).

    ``complete(replica, batch, now, finish)`` runs once per dispatched batch
    and returns the ``(pool, request)`` hops to schedule at each hop's
    ``request.arrival``, or ``None``.  ``model``, when set, is the workload
    every arrival runs as on this pool (a pipeline stage's); ``None`` keeps
    each request's own model.
    """

    __slots__ = ("fleet", "complete", "policy", "router", "autoscaler",
                 "model", "index")

    def __init__(self, fleet: Fleet, complete: Callable | None = None, *,
                 policy: BatchPolicy, router: Router, autoscaler=None,
                 model: str | None = None):
        self.fleet = fleet
        self.complete = complete
        self.policy = policy
        self.router = router
        self.autoscaler = autoscaler
        self.model = model
        self.index = (LoadIndex(fleet.replicas)
                      if getattr(router, "uses_load_index", False) else None)

    @property
    def replicas(self) -> tuple[Replica, ...]:
        return self.fleet.replicas

    def enqueue(self, kernel: "Kernel", request: Request, now: float,
                entry: bool) -> None:
        if entry and self.model is not None:
            request = Request(index=request.index, model=self.model,
                              arrival=request.arrival)
        index, estimate = self.index, kernel.estimate
        if index is not None:
            replica = index.argmin(now)
            if replica is None:                  # every replica is draining
                replica = self.router.choose(self.fleet.replicas, request.model,
                                             now, estimate)
        else:
            fleet = self.fleet
            replica = self.router.choose(fleet.active_replicas or fleet.replicas,
                                         request.model, now, estimate)
        replica.queue.append(request)
        replica.queued_seconds += estimate(request.model, replica).latency_seconds
        if index is not None and replica.active:
            index.update(replica, now)
        if kernel.obs is not None:
            kernel.obs.request_routed(request, replica, now, len(replica.queue),
                                      entry=entry)
        self.dispatch(kernel, replica, now)

    def dispatch(self, kernel: "Kernel", replica: Replica, now: float) -> None:
        policy, schedule, obs, estimate = (
            self.policy, kernel.schedule, kernel.obs, kernel.estimate)
        # A draining replica flushes like a run-end drain: it will never see
        # another arrival, so holding out for a fuller batch only delays its
        # retirement (and the requests already queued on it).
        while replica.idle(now) and replica.queue:
            batch = policy.take(replica.queue, now,
                                draining=(kernel.exhausted or not replica.active))
            if batch is None:
                deadline = policy.deadline(replica.queue)
                if deadline is not None and deadline > now:
                    schedule(deadline, "poll", self, replica)
                break
            for request in batch:
                replica.queued_seconds -= estimate(request.model,
                                                   replica).latency_seconds
            if not replica.queue:
                replica.queued_seconds = 0.0    # shed float residue when empty
            spec = RunSpec(batch[0].model, target=replica.spec.target,
                           attention=replica.spec.attention,
                           batch_size=len(batch))
            result = simulate(spec, cache=kernel.cache)
            service = kernel.dispatch_overhead_seconds + result.end_to_end_latency
            finish = now + service
            replica.busy_until = finish
            replica.busy_seconds += service
            replica.energy_joules += result.end_to_end_energy
            replica.batches += 1
            replica.served += len(batch)
            if obs is not None:
                obs.batch_dispatched(replica, batch, now, finish, replica.stage)
            hops = self.complete(replica, batch, now, finish)
            if hops:
                for target, request in hops:
                    schedule(request.arrival, "hop", target, request)
            schedule(finish, "free", self, replica)
            logger.debug("t=%.6f dispatch %s: %s x%d (service %.6fs, %d queued)",
                         now, replica.name, batch[0].model, len(batch), service,
                         len(replica.queue))
        if (not replica.active and replica.retired_at is None
                and not replica.queue and replica.idle(now)):
            replica.retired_at = now
            if obs is not None:
                obs.replica_retired(replica, now)
            logger.debug("t=%.6f retired %s", now, replica.name)
        if self.index is not None and replica.active:
            self.index.update(replica, now)

    #: A finished batch's effects were applied at dispatch (its sink ran
    #: then), so freeing the replica only re-evaluates its queue.
    free = dispatch

    def flush(self, kernel: "Kernel", now: float) -> None:
        # Policies holding out for bigger batches will never see another
        # trigger, so every replica dispatches now (later hops dispatch in
        # draining mode).
        for replica in self.fleet.replicas:
            self.dispatch(kernel, replica, now)


class Kernel:
    """The shared event loop: heap, arrivals, pools and the report fold.

    Construct one per run, hand :meth:`run` its pools, then fold the outcome
    with :meth:`report`.  Pools may capture two closures that hold the heap,
    or the fold and the observer, but never the kernel:
    :attr:`schedule` — ``schedule(time, kind, pool, payload)`` pushes a
    runtime event — and :attr:`finish` — ``finish(index, model, arrival,
    replica, batch_size, dispatch, completion, queue_wait)`` records one
    completed request.  An LLM run passes ``phase_slos=(ttft, tpot)`` and
    calls ``finish`` with the request's ``first_token`` time and
    ``decode_target`` too; the fold then keeps TTFT/TPOT summaries and
    counts per-phase SLO attainment (:meth:`attainment`), and the pool
    notifies the observer itself.
    """

    def __init__(self, traffic: TrafficPattern, *, duration: float, seed: int,
                 slo_seconds: float, cache: ResultCache | None,
                 percentiles: Sequence[float], summary: str, obs,
                 dispatch_overhead_seconds: float = 0.0,
                 window_seconds: float | None = None,
                 phase_slos: tuple[float, float] | None = None):
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
        self.events = events = []
        self.sequence = sequence = itertools.count(RUNTIME_SEQUENCE_BASE)
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
                window_seconds=window_seconds, phases=phase_slos is not None)
        # Exact-mode (index, TTFT, TPOT) samples (the report folds them in
        # index order), and the attainment counters both modes report: TTFT
        # met, TPOT met, TPOT samples, both met.
        samples: list[tuple[int, float, float | None]] = []
        counts = [0, 0, 0, 0]
        ttft_slo, tpot_slo = phase_slos or (0.0, 0.0)

        def finish(index: int, model: str, arrival: float, replica,
                   batch_size: int, dispatch: float, completion: float,
                   queue_wait: float | None, first_token: float | None = None,
                   decode_target: int = 0) -> None:
            if accumulator is not None:
                accumulator.observe(model, arrival, dispatch, completion)
            else:
                records.append(RequestRecord(
                    index=index, model=model, arrival=arrival,
                    replica=replica.name, batch_size=batch_size,
                    dispatch=dispatch, completion=completion))
            if first_token is None:
                if obs is not None:
                    obs.request_finished(index, model, arrival, queue_wait,
                                         completion)
                return
            ttft, tpot = first_token - arrival, None
            if decode_target:
                tpot = (completion - first_token) / decode_target
                counts[1] += tpot <= tpot_slo
                counts[2] += 1
            if accumulator is None:
                samples.append((index, ttft, tpot))
            else:
                accumulator.ttft.add(ttft)
                if tpot is not None:
                    accumulator.tpot.add(tpot)
            if ttft <= ttft_slo:
                counts[0] += 1
                counts[3] += tpot is None or tpot <= tpot_slo

        def schedule(time: float, kind: str, pool: Pool, payload) -> None:
            heapq.heappush(events, (time, next(sequence), kind, pool, payload))

        self.records = records
        self.accumulator = accumulator
        self.finish = finish
        self.schedule = schedule
        self.phases = (None if phase_slos is None
                       else (phase_slos, samples, counts))

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

    def run(self, pools: Sequence[Pool], entry: Pool, label: str) -> None:
        """Simulate until every request has left; arrivals enter at ``entry``."""

        self.pools = pools = tuple(pools)
        obs, events, sequence = self.obs, self.events, self.sequence
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

        heappop, heappush = heapq.heappop, heapq.heappush
        offered = 0
        tick = obs.event_tick if obs is not None else None
        while events:
            now, _, kind, pool, payload = heappop(events)
            if tick is not None:
                tick(now)
            if kind == "arrival":
                offered += 1
                upcoming = next(arrivals, None)
                if upcoming is None:
                    self.exhausted = True
                else:
                    heappush(events, (upcoming.arrival, upcoming.index,
                                      "arrival", pool, upcoming))
                pool.enqueue(self, payload, now, True)
                if upcoming is None:
                    for other in pools:
                        other.flush(self, now)
            elif kind == "free":
                pool.free(self, payload, now)
            elif kind == "hop":
                pool.enqueue(self, payload, now, False)
            elif kind == "poll":
                pool.dispatch(self, payload, now)
            elif kind == "scale":
                scaler = pool.autoscaler
                additions, drained = scaler.check(now, pool.fleet)
                for _ in range(additions):
                    heappush(events, (now + scaler.provision_seconds,
                                      next(sequence), "provision", pool, None))
                for replica in drained:
                    if pool.index is not None:
                        pool.index.remove(replica)
                    pool.dispatch(self, replica, now)  # flush or retire now
                next_check = now + scaler.interval
                if next_check <= self.duration:
                    heappush(events, (next_check, next(sequence), "scale",
                                      pool, None))
            else:                                # "provision"
                replica = pool.autoscaler.provision(now, pool.fleet)
                if pool.index is not None:
                    pool.index.update(replica, now)
        self.offered = offered

    @property
    def replicas(self) -> list:
        """Every replica of every pool, autoscaled additions included."""

        return [replica for pool in self.pools for replica in pool.replicas]

    def makespan(self) -> float:
        """``max(duration, last completion)`` of the run so far."""

        last = (self.accumulator.last_completion if self.accumulator is not None
                else max((record.completion for record in self.records),
                         default=0.0))
        return max(self.duration, last)

    def attainment(self) -> dict[str, float]:
        """The per-phase SLOs of a ``phase_slos`` run and the fraction of
        completions meeting TTFT, TPOT (of those that decode) and both."""

        (ttft_slo, tpot_slo), _, counts = self.phases
        ttft_ok, tpot_ok, tpot_count, joint_ok = counts
        completed = (self.accumulator.latency.count
                     if self.accumulator is not None else len(self.records))
        return {"ttft_slo_seconds": ttft_slo, "tpot_slo_seconds": tpot_slo,
                "ttft_attainment": ttft_ok / completed if completed else 1.0,
                "tpot_attainment": tpot_ok / tpot_count if tpot_count else 1.0,
                "slo_attainment": joint_ok / completed if completed else 1.0}

    def report(self, config: dict[str, object], label: str,
               pipeline: dict[str, object] | None = None,
               llm: dict[str, object] | None = None) -> ServeReport:
        """Fold the run into its :class:`ServeReport` (exact or streaming).

        ``config`` is the caller's echo of its arguments; the shared keys
        (extra percentiles, windows, summary mode) are appended here.
        ``pipeline`` and ``llm`` are the callers' additive report blocks.
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
                scale_events=scale_events, llm=llm, pipeline=pipeline)
        else:
            self.records.sort(key=lambda record: record.index)
            ttft_values = tpot_values = None
            if self.phases is not None:
                ordered = sorted(self.phases[1])
                ttft_values = [ttft for _, ttft, _ in ordered]
                tpot_values = [tpot for _, _, tpot in ordered if tpot is not None]
            report = build_report(
                config, self.records, offered=self.offered,
                duration=self.duration, slo_seconds=self.slo_seconds,
                replicas=self.replicas, cache_stats=self.cache.stats(),
                percentiles=self.percentiles, scale_events=scale_events,
                window_seconds=self.window_seconds, ttft_values=ttft_values,
                tpot_values=tpot_values, llm=llm, pipeline=pipeline)
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
    policy = make_policy(policy) if isinstance(policy, str) else policy
    router = make_router(router) if isinstance(router, str) else router
    kernel = Kernel(traffic, duration=duration, seed=seed,
                    slo_seconds=slo_seconds,
                    dispatch_overhead_seconds=dispatch_overhead_seconds,
                    cache=cache, percentiles=percentiles,
                    window_seconds=window_seconds, summary=summary, obs=obs)
    fleet.reset()
    logger.info("serve: streaming arrivals over %.3fs on %s "
                "(policy=%s router=%s summary=%s)", duration, fleet.describe(),
                policy.name, router.name, summary)
    finish = kernel.finish

    def complete(replica: Replica, batch: list, now: float,
                 end: float) -> None:
        size = len(batch)
        for request in batch:
            finish(request.index, request.model, request.arrival, replica,
                   size, now, end, now - request.arrival)

    pool = BatchPool(fleet, complete, policy=policy, router=router,
                     autoscaler=autoscaler)
    kernel.run([pool], pool, "serve")
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
