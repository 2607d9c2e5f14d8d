"""Multi-stage request DAGs: RAG-style pipeline serving.

A :class:`PipelineSpec` names a DAG of stages, each serving one (possibly
configured) workload on its own replica pool — retrieval→generation chains,
encoder/reranker mixes, cascade draft→verify.  :func:`serve_pipeline` runs
the discrete-event simulation: every request enters at the entry stage,
queues and batches on that stage's pool exactly like classic :func:`serve`,
then *hops* — after a fixed handoff delay — to a successor stage drawn from
the stage's routing table, until it exits.  Probabilistic routes model
cascades (a draft stage exits with the seeded acceptance probability and
escalates to the verifier otherwise); deterministic routes model linear
chains, spelled with the arrow grammar::

    rag = encoder[tokens=512] -> rerank:encoder[tokens=128] -> deit-tiny

Each stage keeps its own queues, batching and routing over its own pool
(pools may be different hardware kinds), so the whole run is a tandem
queueing network; :mod:`repro.plan.queueing` carries the matching analytic
composition and ``plan_pipeline_capacity`` sizes all pools jointly.

Determinism contract: arrivals come from the traffic pattern's seeded
stream, route draws come from one dedicated generator seeded from the run
seed and consumed in event order — identical under ``summary="exact"`` and
``"streaming"`` — so a (traffic, pipeline, pools, policy, router, duration,
seed) tuple maps to one bit-exact :class:`ServeReport`.  The report is the
classic shape plus an additive ``pipeline`` block (per-stage latency/SLO
breakdown, handoff accounting); per-request end-to-end latency spans
arrival at the entry stage to completion at the exit stage, and the report's
``queue_wait`` is the *sum* of the request's per-stage queue waits.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    LatencySummary,
    ReportAccumulator,
    RequestRecord,
    ScaleEvent,
    ServeReport,
    build_report,
)
from repro.serve.simulator import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_DISPATCH_OVERHEAD,
    DEFAULT_SLO,
    RUNTIME_SEQUENCE_BASE,
    check_summary,
)
from repro.serve.traffic import Request, TrafficPattern, _check_workload_name
from repro.serve.traffic import iter_arrivals as _iter_arrivals

logger = logging.getLogger(__name__)

#: Default stage-to-stage handoff delay (seconds): the host-side cost of
#: shipping one request's intermediate state to the next stage's pool.
DEFAULT_STAGE_HANDOFF = 1e-3

#: Replica-index stride between stage pools: keeps ``replica.index`` globally
#: unique across one run's pools (observability thread ids and LoadIndex
#: entries key on it) with plenty of headroom for autoscaled additions.
_STAGE_INDEX_STRIDE = 1024


class StageRoute(NamedTuple):
    """One outgoing edge of a stage: successor name (``None`` = exit the
    pipeline) and the probability this request takes it."""

    to: str | None
    probability: float


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: a name, the workload it serves, and its routes.

    ``routes`` empty means the stage is terminal (every request exits with
    probability 1); otherwise the probabilities must sum to 1.
    """

    name: str
    model: str
    routes: tuple[StageRoute, ...] = ()

    def exit_probability(self) -> float:
        """Probability a request leaving this stage exits the pipeline."""

        if not self.routes:
            return 1.0
        return sum(route.probability for route in self.routes if route.to is None)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "model": self.model,
                "routes": [{"to": route.to, "probability": route.probability}
                           for route in (self.routes or
                                         (StageRoute(None, 1.0),))]}


@dataclass(frozen=True)
class PipelineSpec:
    """A validated DAG of :class:`PipelineStage`s with one entry point.

    Construction validates everything the simulator would otherwise trip
    over mid-run: stage names are unique, every stage's workload resolves
    through the knob grammar (errors name the offending stage), route
    targets exist, per-stage route probabilities are positive and sum to 1,
    the graph is acyclic, and every stage is reachable from ``entry``.
    """

    name: str
    stages: tuple[PipelineStage, ...]
    entry: str

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError(f"pipeline {self.name!r} needs at least one stage")
        names = [stage.name for stage in self.stages]
        seen: set[str] = set()
        for stage_name in names:
            if stage_name in seen:
                raise ValueError(f"pipeline {self.name!r} has duplicate stage "
                                 f"name {stage_name!r}; label stages "
                                 f"explicitly ('rerank:encoder[tokens=128]')")
            seen.add(stage_name)
        if self.entry not in seen:
            raise ValueError(f"pipeline {self.name!r} entry {self.entry!r} "
                             f"names no stage (stages: {', '.join(names)})")
        for stage in self.stages:
            _check_workload_name(
                stage.model, f"pipeline {self.name!r} stage {stage.name!r}")
            if stage.routes:
                total = 0.0
                for route in stage.routes:
                    if route.to is not None and route.to not in seen:
                        raise ValueError(
                            f"pipeline {self.name!r} stage {stage.name!r} "
                            f"routes to unknown stage {route.to!r}")
                    if route.probability <= 0:
                        raise ValueError(
                            f"pipeline {self.name!r} stage {stage.name!r} "
                            f"route probability must be positive, "
                            f"got {route.probability}")
                    total += route.probability
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"pipeline {self.name!r} stage {stage.name!r} route "
                        f"probabilities must sum to 1, got {total}")
        self.topological()                   # raises on cycles
        reachable = self._reachable()
        unreachable = [n for n in names if n not in reachable]
        if unreachable:
            raise ValueError(f"pipeline {self.name!r} stages "
                             f"{', '.join(repr(n) for n in unreachable)} are "
                             f"unreachable from entry {self.entry!r}")

    # -------------------------------------------------------------- grammar

    @classmethod
    def parse(cls, text: str) -> "PipelineSpec":
        """Parse the arrow grammar: ``"rag = encoder[tokens=512] ->
        rerank:encoder[tokens=128] -> deit-tiny"``.

        The leading ``name =`` is optional (default ``"pipeline"``); each
        stage is ``[label:]model`` where the model may carry knobs and the
        label defaults to the model's family name.  Arrow chains are linear;
        build branching DAGs (cascades) via :meth:`cascade` or the
        constructor.
        """

        eq, bracket = text.find("="), text.find("[")
        if eq != -1 and (bracket == -1 or eq < bracket):
            name, body = text[:eq].strip(), text[eq + 1:]
        else:
            name, body = "pipeline", text
        if not name:
            raise ValueError(f"empty pipeline name in {text!r}")
        parts = [part.strip() for part in body.split("->")]
        if not all(parts):
            raise ValueError(f"empty stage in pipeline spec {text!r}")
        labelled: list[tuple[str, str]] = []
        for part in parts:
            bracket, colon = part.find("["), part.find(":")
            if colon != -1 and (bracket == -1 or colon < bracket):
                label, model = part[:colon].strip(), part[colon + 1:].strip()
            else:
                model = part
                label = (part[:bracket] if bracket != -1 else part).strip()
            if not label or not model:
                raise ValueError(f"malformed stage {part!r} in pipeline "
                                 f"spec {text!r}")
            labelled.append((label, model))
        labels = [label for label, _ in labelled]
        stages = tuple(
            PipelineStage(label, model,
                          routes=(() if position == len(labelled) - 1
                                  else (StageRoute(labels[position + 1], 1.0),)))
            for position, (label, model) in enumerate(labelled))
        return cls(name, stages, entry=labels[0])

    @classmethod
    def cascade(cls, name: str, draft: str, verify: str,
                acceptance_rate: float, *, draft_name: str = "draft",
                verify_name: str = "verify") -> "PipelineSpec":
        """A two-stage draft→verify cascade: requests exit at the draft
        stage with probability ``acceptance_rate`` and escalate to the
        verify stage otherwise."""

        if not 0.0 < acceptance_rate < 1.0:
            raise ValueError(f"acceptance_rate must be in (0, 1), "
                             f"got {acceptance_rate}")
        stages = (
            PipelineStage(draft_name, draft, routes=(
                StageRoute(None, acceptance_rate),
                StageRoute(verify_name, 1.0 - acceptance_rate))),
            PipelineStage(verify_name, verify),
        )
        return cls(name, stages, entry=draft_name)

    # ------------------------------------------------------------- topology

    def stage(self, name: str) -> PipelineStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"pipeline {self.name!r} has no stage {name!r}")

    def topological(self) -> tuple[PipelineStage, ...]:
        """The stages in topological order (definition order breaks ties);
        raises ``ValueError`` on a routing cycle."""

        indegree = {stage.name: 0 for stage in self.stages}
        for stage in self.stages:
            for route in stage.routes:
                if route.to is not None:
                    indegree[route.to] += 1
        ready = [stage for stage in self.stages if indegree[stage.name] == 0]
        order: list[PipelineStage] = []
        while ready:
            stage = ready.pop(0)
            order.append(stage)
            for route in stage.routes:
                if route.to is None:
                    continue
                indegree[route.to] -= 1
                if indegree[route.to] == 0:
                    ready.append(self.stage(route.to))
        if len(order) != len(self.stages):
            cyclic = sorted(name for name, degree in indegree.items()
                            if degree > 0)
            raise ValueError(f"pipeline {self.name!r} has a routing cycle "
                             f"through {', '.join(repr(n) for n in cyclic)}")
        return tuple(order)

    def _reachable(self) -> set[str]:
        frontier, reachable = [self.entry], {self.entry}
        while frontier:
            stage = self.stage(frontier.pop())
            for route in stage.routes:
                if route.to is not None and route.to not in reachable:
                    reachable.add(route.to)
                    frontier.append(route.to)
        return reachable

    def visit_ratios(self) -> dict[str, float]:
        """Expected visits per entering request, stage by stage.

        The tandem-queue composition: the entry stage sees every request;
        downstream stages see the sum over predecessors of (predecessor
        visits × branch probability).  Acyclicity makes one topological
        pass exact.
        """

        visits = {stage.name: 0.0 for stage in self.stages}
        visits[self.entry] = 1.0
        for stage in self.topological():
            for route in stage.routes:
                if route.to is not None:
                    visits[route.to] += visits[stage.name] * route.probability
        return visits

    def expected_handoffs(self) -> float:
        """Expected stage-to-stage hops per request (each pays the handoff
        delay once)."""

        visits = self.visit_ratios()
        return sum(visits[stage.name] * (1.0 - stage.exit_probability())
                   for stage in self.stages)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "entry": self.entry,
                "stages": [stage.to_dict() for stage in self.stages]}


class _Flight:
    """Mutable per-request traversal state (index → flight while in flight)."""

    __slots__ = ("arrival", "queue_wait", "hops")

    def __init__(self, arrival: float):
        self.arrival = arrival
        self.queue_wait = 0.0
        self.hops = 0


class _StageStats:
    """Per-stage request accounting, exact (lists) or streaming (log
    histograms) — same output shape either way, and the SLO counter is exact
    in both."""

    def __init__(self, streaming: bool, percentiles: Sequence[float],
                 slo_seconds: float | None):
        self.slo_seconds = slo_seconds
        self.count = 0
        self.violations = 0
        self.percentiles = tuple(percentiles)
        if streaming:
            from repro.obs.sketch import StreamingLatency

            self._latency = StreamingLatency(percentiles)
            self._wait = StreamingLatency(percentiles)
            self._service = StreamingLatency(percentiles)
            self._exact = None
        else:
            self._exact = ([], [], [])        # latency, wait, service

    def observe(self, wait: float, service: float) -> None:
        latency = wait + service
        self.count += 1
        if self.slo_seconds is not None and latency > self.slo_seconds:
            self.violations += 1
        if self._exact is not None:
            self._exact[0].append(latency)
            self._exact[1].append(wait)
            self._exact[2].append(service)
        else:
            self._latency.add(latency)
            self._wait.add(wait)
            self._service.add(service)

    def summaries(self) -> tuple[LatencySummary, LatencySummary, LatencySummary]:
        if self._exact is not None:
            return tuple(LatencySummary.of(values, self.percentiles)
                         for values in self._exact)
        return (self._latency.summary(), self._wait.summary(),
                self._service.summary())


class _StageState:
    """One stage's runtime bundle: spec, pool, routing index, autoscaler."""

    __slots__ = ("stage", "pool", "index", "autoscaler", "stats", "successors")

    def __init__(self, stage: PipelineStage, pool: Fleet,
                 index: LoadIndex | None, autoscaler, stats: _StageStats):
        self.stage = stage
        self.pool = pool
        self.index = index
        self.autoscaler = autoscaler
        self.stats = stats
        self.successors = stage.routes or (StageRoute(None, 1.0),)


def _stage_pool(pool: "Fleet | str", ordinal: int, stage_name: str) -> Fleet:
    """Build a stage's pool with globally unique replica indices/names."""

    base = ordinal * _STAGE_INDEX_STRIDE
    prefix = f"{stage_name}/"
    if isinstance(pool, Fleet):
        return Fleet(pool.replica_specs, index_base=base, name_prefix=prefix)
    return Fleet.parse(pool, index_base=base, name_prefix=prefix)


def serve_pipeline(traffic: TrafficPattern, pipeline: "PipelineSpec | str",
                   pools: "dict[str, Fleet | str]",
                   policy: BatchPolicy | str = "timeout",
                   router: Router | str = "least-loaded", *,
                   duration: float, seed: int = 0,
                   slo_seconds: float = DEFAULT_SLO,
                   stage_slo_seconds: "dict[str, float] | None" = None,
                   handoff_seconds: float = DEFAULT_STAGE_HANDOFF,
                   dispatch_overhead_seconds: float = DEFAULT_DISPATCH_OVERHEAD,
                   cache: ResultCache | None = None,
                   autoscalers: "dict[str, object] | None" = None,
                   percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                   window_seconds: float | None = None,
                   summary: str = "exact",
                   obs=None) -> ServeReport:
    """Serve a multi-stage pipeline and return its :class:`ServeReport`.

    ``traffic`` supplies arrival times (and request indices) only — each
    stage serves its *own* workload, so the mix's model names are ignored.
    ``pools`` maps every stage name to its replica pool (a :class:`Fleet` or
    a ``"2xvitality"``-style spec string); stages may run different hardware
    kinds.  ``stage_slo_seconds`` optionally attaches per-stage latency SLOs
    (reported in the ``pipeline`` block); ``slo_seconds`` stays the
    end-to-end SLO.  ``autoscalers`` maps stage names to per-stage
    :class:`repro.plan.Autoscaler` instances (one instance per stage — they
    carry per-fleet state).

    The report is the classic :class:`ServeReport` shape — latency is
    end-to-end (entry arrival to exit completion), ``queue_wait`` sums the
    per-stage waits, ``model`` is the pipeline name — plus the additive
    ``pipeline`` block with per-stage breakdowns and handoff accounting.

    ``summary`` mirrors :func:`repro.serve.serve`: ``"exact"`` (default)
    keeps per-request records and exact order statistics; ``"streaming"``
    folds end-to-end and per-stage latencies into log histograms, bounding
    memory with every quantile within 1 % relative of the exact one.
    """

    if isinstance(pipeline, str):
        pipeline = PipelineSpec.parse(pipeline)
    if isinstance(policy, str):
        policy = make_policy(policy)
    if isinstance(router, str):
        router = make_router(router)
    if dispatch_overhead_seconds < 0:
        raise ValueError(f"dispatch_overhead_seconds must be >= 0, "
                         f"got {dispatch_overhead_seconds}")
    if handoff_seconds < 0:
        raise ValueError(f"handoff_seconds must be >= 0, got {handoff_seconds}")
    if slo_seconds <= 0:
        raise ValueError(f"slo_seconds must be positive, got {slo_seconds}")
    if window_seconds is not None and window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    check_summary(summary)
    stage_names = [stage.name for stage in pipeline.stages]
    missing = [name for name in stage_names if name not in pools]
    if missing:
        raise ValueError(f"pools is missing stages "
                         f"{', '.join(repr(n) for n in missing)} of "
                         f"pipeline {pipeline.name!r}")
    unknown = [name for name in pools if name not in stage_names]
    if unknown:
        raise ValueError(f"pools names unknown stages "
                         f"{', '.join(repr(n) for n in unknown)} "
                         f"(pipeline {pipeline.name!r} has: "
                         f"{', '.join(stage_names)})")
    stage_slo_seconds = dict(stage_slo_seconds or {})
    for name, slo in stage_slo_seconds.items():
        if name not in stage_names:
            raise ValueError(f"stage_slo_seconds names unknown stage {name!r}")
        if slo <= 0:
            raise ValueError(f"stage SLO for {name!r} must be positive, got {slo}")
    autoscalers = dict(autoscalers or {})
    for name in autoscalers:
        if name not in stage_names:
            raise ValueError(f"autoscalers names unknown stage {name!r}")
    if len({id(scaler) for scaler in autoscalers.values()}) != len(autoscalers):
        raise ValueError("each stage needs its own Autoscaler instance "
                         "(they carry per-fleet state)")
    cache = ResultCache(max_entries=DEFAULT_CACHE_ENTRIES) if cache is None else cache

    uses_index = getattr(router, "uses_load_index", False)
    streaming = summary == "streaming"
    states: dict[str, _StageState] = {}
    for ordinal, stage in enumerate(pipeline.stages):
        pool = _stage_pool(pools[stage.name], ordinal, stage.name)
        pool.reset()
        for replica in pool.replicas:
            replica.stage = stage.name
        states[stage.name] = _StageState(
            stage, pool,
            LoadIndex(pool.replicas) if uses_index else None,
            autoscalers.get(stage.name),
            _StageStats(streaming, percentiles,
                        stage_slo_seconds.get(stage.name)))
    all_replicas = [replica for name in stage_names
                    for replica in states[name].pool.replicas]
    if obs is not None:
        obs.begin_run(all_replicas, "serve-pipeline")

    logger.info("serve_pipeline: %s over %.3fs, %d stages "
                "(policy=%s router=%s summary=%s)",
                pipeline.name, duration, len(pipeline.stages), policy.name,
                router.name, summary)

    records: list[RequestRecord] = []
    accumulator = None
    if streaming:
        accumulator = ReportAccumulator(
            slo_seconds=slo_seconds, percentiles=percentiles,
            window_seconds=window_seconds)

    estimates: dict[tuple[str, ReplicaSpec], Estimate] = {}

    def estimate(model: str, replica: Replica) -> Estimate:
        key = (model, replica.spec)
        cached = estimates.get(key)
        if cached is None:
            result = simulate(RunSpec(model, target=replica.spec.target,
                                      attention=replica.spec.attention),
                              cache=cache)
            cached = Estimate(dispatch_overhead_seconds + result.end_to_end_latency,
                              result.end_to_end_energy)
            estimates[key] = cached
        return cached

    # One dedicated generator for route draws, consumed in event order —
    # string seeding hashes deterministically, so the draw sequence is part
    # of the run's bit-reproducibility contract.
    route_rng = random.Random(f"pipeline-routes:{pipeline.name}:{seed}")

    sequence = itertools.count(RUNTIME_SEQUENCE_BASE)
    arrival_stream = _iter_arrivals(traffic, duration, seed)
    offered = 0
    handoffs = 0
    first = next(arrival_stream, None)
    exhausted = first is None
    events: list[tuple[float, int, str, object]] = []
    if first is not None:
        events.append((first.arrival, first.index, "arrival", first))
    for name in stage_names:
        scaler = states[name].autoscaler
        if scaler is not None:
            scaler.begin(states[name].pool, observer=obs)
            if scaler.interval <= duration:
                events.append((scaler.interval, next(sequence), "scale", name))
    heapq.heapify(events)

    flights: dict[int, _Flight] = {}
    entry_state = states[pipeline.entry]

    def choose_route(state: _StageState) -> str | None:
        routes = state.successors
        if len(routes) == 1:
            return routes[0].to
        pick = route_rng.random()
        cumulative = 0.0
        for route in routes:
            cumulative += route.probability
            if pick < cumulative:
                return route.to
        return routes[-1].to

    def finish_request(state: _StageState, request: Request, replica: Replica,
                       now: float, finish: float, batch_size: int) -> None:
        flight = flights[request.index]
        wait = now - request.arrival
        flight.queue_wait += wait
        state.stats.observe(wait, finish - now)
        target = choose_route(state)
        if target is None:
            del flights[request.index]
            # The report's dispatch is synthetic — arrival plus the summed
            # per-stage waits — so RequestRecord.queue_wait is the total
            # time spent queued across every stage the request visited.
            synthetic_dispatch = flight.arrival + flight.queue_wait
            if accumulator is not None:
                accumulator.observe(pipeline.name, flight.arrival,
                                    synthetic_dispatch, finish)
            else:
                records.append(RequestRecord(
                    index=request.index, model=pipeline.name,
                    arrival=flight.arrival, replica=replica.name,
                    batch_size=batch_size, dispatch=synthetic_dispatch,
                    completion=finish))
            if obs is not None:
                obs.pipeline_completed(request.index, pipeline.name,
                                       flight.arrival, flight.queue_wait, finish)
            return
        nonlocal handoffs
        handoffs += 1
        flight.hops += 1
        next_state = states[target]
        next_arrival = finish + handoff_seconds
        hop = Request(index=request.index, model=next_state.stage.model,
                      arrival=next_arrival)
        heapq.heappush(events, (next_arrival, next(sequence), "hop",
                                (next_state, hop)))
        if obs is not None:
            obs.stage_handoff(request.index, request.model, replica.name,
                              finish, next_arrival, state.stage.name)

    def dispatch(state: _StageState, replica: Replica, now: float) -> None:
        while replica.idle(now) and replica.queue:
            batch = policy.take(replica.queue, now,
                                draining=(exhausted or not replica.active))
            if batch is None:
                deadline = policy.deadline(replica.queue)
                if deadline is not None and deadline > now:
                    heapq.heappush(events, (deadline, next(sequence), "poll",
                                            (state, replica)))
                break
            for request in batch:
                replica.queued_seconds -= estimate(request.model,
                                                   replica).latency_seconds
            if not replica.queue:
                replica.queued_seconds = 0.0    # shed float residue when empty
            spec = RunSpec(batch[0].model, target=replica.spec.target,
                           attention=replica.spec.attention,
                           batch_size=len(batch))
            result = simulate(spec, cache=cache)
            service = dispatch_overhead_seconds + result.end_to_end_latency
            finish = now + service
            replica.busy_until = finish
            replica.busy_seconds += service
            replica.energy_joules += result.end_to_end_energy
            replica.batches += 1
            replica.served += len(batch)
            if obs is not None:
                obs.stage_dispatched(replica, batch, now, finish,
                                     state.stage.name)
            for request in batch:
                finish_request(state, request, replica, now, finish, len(batch))
            heapq.heappush(events, (finish, next(sequence), "free",
                                    (state, replica)))
            logger.debug("t=%.6f dispatch %s[%s]: %s x%d (service %.6fs)",
                         now, replica.name, state.stage.name, batch[0].model,
                         len(batch), service)
        if (not replica.active and replica.retired_at is None
                and not replica.queue and replica.idle(now)):
            replica.retired_at = now
            if obs is not None:
                obs.replica_retired(replica, now)
        if state.index is not None and replica.active:
            state.index.update(replica, now)

    def enqueue(state: _StageState, request: Request, now: float) -> None:
        if state.index is not None:
            replica = state.index.argmin(now)
            if replica is None:              # every replica is draining
                replica = router.choose(state.pool.replicas, request.model,
                                        now, estimate)
        else:
            candidates = state.pool.active_replicas or state.pool.replicas
            replica = router.choose(candidates, request.model, now, estimate)
        replica.queue.append(request)
        replica.queued_seconds += estimate(request.model, replica).latency_seconds
        if state.index is not None and replica.active:
            state.index.update(replica, now)
        if obs is not None:
            obs.pipeline_routed(request, replica, now, len(replica.queue),
                                entry=(state is entry_state))
        dispatch(state, replica, now)

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
            flights[payload.index] = _Flight(payload.arrival)
            entry_request = Request(index=payload.index,
                                    model=entry_state.stage.model,
                                    arrival=payload.arrival)
            enqueue(entry_state, entry_request, now)
            if exhausted:
                # Last entry arrival processed: flush every pool so policies
                # holding out for bigger batches drain (hops arriving later
                # dispatch immediately in draining mode).
                for name in stage_names:
                    state = states[name]
                    for other in state.pool.replicas:
                        dispatch(state, other, now)
        elif kind == "hop":
            state, request = payload
            enqueue(state, request, now)
        elif kind == "scale":
            state = states[payload]
            scaler = state.autoscaler
            additions, drained = scaler.check(now, state.pool)
            for _ in range(additions):
                heapq.heappush(events, (now + scaler.provision_seconds,
                                        next(sequence), "provision", payload))
            for replica in drained:
                if state.index is not None:
                    state.index.remove(replica)
                dispatch(state, replica, now)
            next_check = now + scaler.interval
            if next_check <= duration:
                heapq.heappush(events, (next_check, next(sequence), "scale",
                                        payload))
        elif kind == "provision":
            state = states[payload]
            replica = state.autoscaler.provision(now, state.pool)
            replica.stage = state.stage.name
            if state.index is not None:
                state.index.update(replica, now)
        else:                                # "free" and "poll" re-evaluate
            state, replica = payload
            dispatch(state, replica, now)

    all_replicas = [replica for name in stage_names
                    for replica in states[name].pool.replicas]
    makespan = duration
    if accumulator is not None:
        makespan = max(duration, accumulator.last_completion)
    elif records:
        makespan = max(duration, max(record.completion for record in records))

    stage_rows = []
    for name in stage_names:
        state = states[name]
        latency, wait, service = state.stats.summaries()
        pool_replicas = state.pool.replicas
        utilization = (sum(replica.busy_seconds for replica in pool_replicas)
                       / (len(pool_replicas) * makespan)
                       if pool_replicas and makespan else 0.0)
        slo = state.stats.slo_seconds
        stage_rows.append({
            "name": name,
            "model": state.stage.model,
            "pool": state.pool.describe(),
            "requests": state.stats.count,
            "latency": latency.to_dict(),
            "queue_wait": wait.to_dict(),
            "service": service.to_dict(),
            "utilization": utilization,
            "slo_seconds": slo,
            "slo_attainment": (1.0 - state.stats.violations / state.stats.count
                               if slo is not None and state.stats.count
                               else None),
        })
    pipeline_block: dict[str, object] = {
        "name": pipeline.name,
        "entry": pipeline.entry,
        "handoff_seconds": handoff_seconds,
        "handoffs": handoffs,
        "stages": stage_rows,
    }

    config: dict[str, object] = {
        "traffic": traffic.to_dict(),
        "pipeline": pipeline.to_dict(),
        "pools": {name: states[name].pool.describe() for name in stage_names},
        "policy": policy.to_dict(),
        "router": router.name,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "handoff_seconds": handoff_seconds,
        "dispatch_overhead_seconds": dispatch_overhead_seconds,
    }
    if stage_slo_seconds:
        config["stage_slo_seconds"] = dict(sorted(stage_slo_seconds.items()))
    scale_events: tuple[ScaleEvent, ...] = ()
    if autoscalers:
        config["autoscalers"] = {name: autoscalers[name].to_dict()
                                 for name in sorted(autoscalers)}
        merged: list[ScaleEvent] = []
        for name in stage_names:
            scaler = states[name].autoscaler
            if scaler is not None:
                merged.extend(scaler.collect_events(states[name].pool))
        scale_events = tuple(sorted(
            merged, key=lambda event: (event.time, event.action, event.replica)))
    if tuple(percentiles) != DEFAULT_PERCENTILES:
        config["percentiles"] = sorted(set(percentiles))
    if window_seconds is not None:
        config["window_seconds"] = window_seconds
    if accumulator is not None:
        config["summary"] = summary
        report = accumulator.finalize(config, offered=offered,
                                      duration=duration, replicas=all_replicas,
                                      cache_stats=cache.stats(),
                                      scale_events=scale_events,
                                      pipeline=pipeline_block)
    else:
        records.sort(key=lambda record: record.index)
        report = build_report(config, records, offered=offered,
                              duration=duration, slo_seconds=slo_seconds,
                              replicas=all_replicas, cache_stats=cache.stats(),
                              percentiles=percentiles,
                              scale_events=scale_events,
                              window_seconds=window_seconds,
                              pipeline=pipeline_block)
    logger.info("serve_pipeline: completed %d/%d requests (%d handoffs), "
                "p99 %.4fs", report.completed, report.offered, handoffs,
                report.latency.p99)
    if obs is not None:
        obs.end_run(report)
    return report
