"""Continuous batching and prefill/decode disaggregation for LLM serving.

Classic :func:`repro.serve.serve` treats a request as one monolithic batch
job.  Autoregressive workloads are different: a request *prefills* its
prompt once (parallel over tokens, compute-bound) and then *decodes* one
token at a time against its growing KV cache (bandwidth-bound, hundreds of
tiny steps).  :func:`serve_llm` models the two serving disciplines built
around that split:

* **Continuous (iteration-level) batching** — every decode replica runs a
  rolling batch; requests join the moment their prefill hands over and leave
  the moment their last token is generated, at iteration granularity.  Each
  step lowers the current batch to one engine run of
  ``decoder[tokens=1,kv_tokens=K,phase=decode]`` (``K`` bucketed so the
  result cache stays small) at ``batch_size = len(batch)``; prefill runs as
  chunked ``phase=prefill`` calls through the same engine.
* **Monolithic (request-level) batching** — the classic baseline: a gang of
  up to ``max_batch`` requests is admitted together, prefilled sequentially
  and decoded in lockstep at the *initial* gang size until the longest
  member finishes.  Early finishers pad the batch and their KV stays
  resident, which is exactly the waste continuous batching removes.

Replicas carry **KV-cache accounting**: capacity derives from the hardware
core's SRAM knob (``target_sram_kb`` times a DRAM-backing ratio, divided by
the model's bytes-per-token) and admission is reservation-based — a request
reserves ``prompt + output`` tokens when its prefill is admitted and frees
them on completion, so admission blocks (queues) when KV is full and a
completion unblocks the queue head.

Fleets come in two shapes.  A **colocated** fleet (``fleet=...``) serves
both phases on every replica — prefill chunks interleave with decode steps,
so a long prompt stalls every in-flight decode on that replica (TPOT
interference).  A **disaggregated** deployment (``prefill_fleet=`` +
``decode_fleet=``) dedicates one pool per phase, with a ``handoff_seconds``
KV-transfer event between them: decode steps never wait behind prefill, at
the cost of the handoff latency and a statically split fleet.

TTFT (time-to-first-token: arrival to prefill completion) and TPOT
(time-per-output-token over the decode phase) are threaded through
:class:`~repro.serve.metrics.ServeReport` as additive ``ttft`` / ``tpot``
latency summaries plus an ``llm`` token-accounting block.

:func:`serve_llm` adds no event loop of its own: it runs on the shared
:class:`~repro.serve.simulator.Kernel`, with replica state and scheduling
expressed as :class:`LLMPool` behaviour — a colocated fleet is one pool, a
disaggregated deployment a prefill pool whose KV handoffs hop into a decode
pool.  Determinism is the kernel's, so a fixed (traffic, fleets, scheduler,
duration, seed) tuple maps to one bit-exact report.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import asdict, dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Sequence

from repro.engine import ResultCache, RunSpec, simulate, target_sram_kb
from repro.serve.cluster import Fleet, Replica, ReplicaSpec
from repro.serve.metrics import DEFAULT_PERCENTILES, ServeReport
from repro.serve.simulator import Kernel, Pool, check_args
from repro.serve.traffic import Request, TrafficPattern, traffic_models
from repro.workloads import get_family, get_workload

logger = logging.getLogger(__name__)

#: Scheduler names accepted by :func:`serve_llm` and the CLI.
SCHEDULERS = ("continuous", "monolithic")

#: Replica roles an LLM run reports (``role`` in each replica report).
ROLE_UNIFIED = "unified"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"

#: Token defaults for requests whose traffic carries no per-request counts.
DEFAULT_PROMPT_TOKENS = 512
DEFAULT_OUTPUT_TOKENS = 64

#: Default prompt-chunk size for prefill (one engine call per chunk).
DEFAULT_PREFILL_CHUNK = 256

#: Default cap on a decode batch (and a monolithic gang).
DEFAULT_MAX_BATCH = 8

#: Host-side cost of launching one iteration (chunk or decode step) — the
#: per-step overhead continuous batching amortises across the batch.
DEFAULT_STEP_OVERHEAD = 2e-4

#: KV-cache transfer delay from a prefill replica to a decode replica.
DEFAULT_HANDOFF_SECONDS = 2e-3

#: KV lengths are rounded up to this granularity when lowered to the engine,
#: so a run touches O(tens) of distinct decode shapes instead of one per step.
DEFAULT_KV_BUCKET = 256

#: Default per-phase SLOs (seconds): time-to-first-token, time-per-output-token.
DEFAULT_TTFT_SLO = 0.2
DEFAULT_TPOT_SLO = 0.01

#: Default end-to-end latency SLO for LLM runs (a full prefill+decode pass is
#: orders slower than one classic batch job, so the classic 50 ms is wrong).
DEFAULT_LLM_SLO = 1.0


@dataclass(frozen=True)
class KVCacheConfig:
    """How replica KV-cache capacity is derived and accounted.

    Capacity per replica is ``sram_kb * 1024 * dram_ratio`` bytes — the
    accelerator's SRAM knob scaled by the off-chip pool backing it — divided
    by the model's KV bytes per token (``(qk_dim + v_dim) * heads`` summed
    over layers, at ``bytes_per_value`` precision).  Platform targets (no
    SRAM model) fall back to ``platform_sram_kb``; ``capacity_tokens`` pins
    the capacity directly, bypassing the derivation (the tests' knob).
    Multi-model runs convert conservatively at the largest bytes-per-token.
    """

    capacity_tokens: int | None = None
    bytes_per_value: int = 2
    dram_ratio: float = 1024.0
    platform_sram_kb: float = 512.0

    def __post_init__(self):
        if self.capacity_tokens is not None and self.capacity_tokens < 1:
            raise ValueError(f"capacity_tokens must be >= 1, "
                             f"got {self.capacity_tokens}")
        if self.bytes_per_value < 1:
            raise ValueError(f"bytes_per_value must be >= 1, "
                             f"got {self.bytes_per_value}")
        if self.dram_ratio <= 0 or self.platform_sram_kb <= 0:
            raise ValueError("dram_ratio and platform_sram_kb must be positive")

    def bytes_per_token(self, workload) -> int:
        """KV bytes one cached token costs for ``workload``'s geometry."""

        values = sum((layer.qk_dim + layer.v_dim) * layer.heads * layer.repeats
                     for layer in workload.attention_layers)
        return values * self.bytes_per_value

    def capacity_for(self, spec: ReplicaSpec, bytes_per_token: int) -> int:
        """KV capacity (tokens) of one ``spec`` replica."""

        if self.capacity_tokens is not None:
            return self.capacity_tokens
        sram_kb = target_sram_kb(spec.target)
        if sram_kb is None:
            sram_kb = self.platform_sram_kb
        return max(1, int(sram_kb * 1024 * self.dram_ratio // bytes_per_token))

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


class LLMRequest:
    """Mutable in-flight state of one autoregressive request."""

    __slots__ = ("index", "model", "arrival", "prompt_tokens", "output_tokens",
                 "decode_target", "reserved_tokens", "prefilled", "decoded",
                 "prefill_start", "first_token_time", "completion",
                 "decode_batch")

    def __init__(self, request: Request, prompt_tokens: int, output_tokens: int):
        if prompt_tokens < 1 or output_tokens < 1:
            raise ValueError(f"request {request.index} needs prompt_tokens and "
                             f"output_tokens >= 1, got {prompt_tokens}/"
                             f"{output_tokens}")
        self.index = request.index
        self.model = request.model
        self.arrival = request.arrival
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        # Decode steps still owed after prefill emits the first token, and
        # the KV tokens a reservation-based admission holds.
        self.decode_target = output_tokens - 1
        self.reserved_tokens = prompt_tokens + output_tokens
        self.prefilled = 0                      # prompt tokens cached so far
        self.decoded = 0                        # tokens generated after the first
        self.prefill_start: float | None = None
        self.first_token_time: float | None = None
        self.completion: float | None = None
        self.decode_batch = 1                   # batch size when decode admitted


class LLMReplica(Replica):
    """One LLM-serving instance: a :class:`~repro.serve.cluster.Replica`
    with KV-cache accounting, phase queues and the LLM report extras (role,
    KV capacity/peak, decode steps).  Non-unified roles prefix the name."""

    def __init__(self, index: int, ordinal: int, spec: ReplicaSpec, role: str,
                 kv_capacity: int):
        super().__init__(index, ordinal, spec)
        self.role = role
        if role != ROLE_UNIFIED:
            self.name = f"{role}/{self.name}"
        self.kv_capacity = kv_capacity
        self.kv_used = 0
        self.kv_peak = 0
        self.decode_steps = 0
        self.prefill_queue: deque[LLMRequest] = deque()
        self.current_prefill: LLMRequest | None = None
        self.decode_ready: list[LLMRequest] = []   # KV-admitted, awaiting a slot
        self.batch: list[LLMRequest] = []          # running decode batch
        self.gang: list[LLMRequest] = []           # monolithic request-level gang
        self.gang_steps_left = 0

    @property
    def kv_free(self) -> int:
        return self.kv_capacity - self.kv_used

    def reserve(self, tokens: int) -> None:
        self.kv_used += tokens
        self.kv_peak = max(self.kv_peak, self.kv_used)

    @property
    def slots_used(self) -> int:
        return len(self.batch) + len(self.decode_ready) + len(self.gang)

    @property
    def pending_load(self) -> int:
        """Requests routed here and not yet finished (routing tie-break)."""

        return (len(self.prefill_queue) + self.slots_used
                + (1 if self.current_prefill is not None else 0))

    @property
    def pending_prefill_tokens(self) -> int:
        tokens = sum(request.prompt_tokens for request in self.prefill_queue)
        if self.current_prefill is not None:
            tokens += self.current_prefill.prompt_tokens - self.current_prefill.prefilled
        return tokens


@lru_cache(maxsize=1024)
def _configured(model: str, **overrides) -> str:
    """Merge knob overrides into a configured workload name (text level).

    Memoised per (model, overrides) in a 1024-entry LRU: the serving loop
    and the LLM queueing estimate render one name per step from a handful
    of distinct shapes.  Empty knob parts (``decoder[]``) are skipped.
    """

    base, _, bracket = model.partition("[")
    knobs: dict[str, str] = {}
    for part in bracket[:-1].split(","):
        if part.strip():
            key, _, value = part.partition("=")
            knobs[key.strip()] = value.strip()
    for key, value in overrides.items():
        knobs[key] = str(value)
    text = ",".join(f"{key}={value}" for key, value in sorted(knobs.items()))
    return f"{base}[{text}]"


def _check_sequence_model(model: str) -> None:
    """LLM serving needs a family with the autoregressive knob set."""

    base = model.partition("[")[0]
    family = get_family(base)        # unknown names raise here with the usual hint
    if "phase" not in family.schema.knobs:
        raise ValueError(
            f"LLM serving needs a sequence-family workload with "
            f"kv_tokens/phase knobs (encoder, decoder, transformer); "
            f"got {model!r} from family {base!r}")


def _bucket(kv_tokens: int, granularity: int) -> int:
    return max(granularity, math.ceil(kv_tokens / granularity) * granularity)


class LLMPool(Pool):
    """LLM replicas of one role as a :class:`~repro.serve.simulator.Kernel`
    pool: their routing, dispatch and completion effects.

    ``role`` is :data:`ROLE_UNIFIED` (colocated: both phases on every
    replica), :data:`ROLE_PREFILL` (hands each prompt's KV to the ``decode``
    pool as a kernel ``"hop"`` after ``handoff_seconds``) or
    :data:`ROLE_DECODE` (admits hopped requests strict-FIFO from
    ``pending``).  Arrivals pass ``accept`` (token defaults plus the KV
    feasibility check) and route among the replicas whose KV capacity covers
    their prefill admission, to the least pending load.

    Each replica runs one engine call at a time — a prefill chunk, a
    continuous decode step or a monolithic gang step — scheduled as a
    ``"free"`` event whose payload ``(replica, work, chunk)`` snapshots the
    call, so its completion effects (``prefilled``/``decoded``, KV release,
    gang retirement) apply when it fires, never at dispatch.
    """

    __slots__ = ("replicas", "role", "monolithic", "accept", "decode",
                 "pending", "handoff_seconds", "prefill_chunk", "max_batch",
                 "step_overhead_seconds", "kv_bucket", "cache", "obs",
                 "finish", "schedule", "prefill_tokens", "generated_tokens")

    def __init__(self, replicas: list[LLMReplica], role: str, kernel: Kernel,
                 *, scheduler: str, prefill_chunk: int, max_batch: int,
                 step_overhead_seconds: float, kv_bucket: int, accept=None,
                 decode: "LLMPool | None" = None,
                 handoff_seconds: float = 0.0):
        self.replicas = replicas
        self.role = role
        self.monolithic = scheduler == "monolithic"
        self.accept = accept
        self.decode = decode
        self.pending: deque[LLMRequest] = deque()
        self.handoff_seconds = handoff_seconds
        self.prefill_chunk = prefill_chunk
        self.max_batch = max_batch
        self.step_overhead_seconds = step_overhead_seconds
        self.kv_bucket = kv_bucket
        # The kernel's closures, not the kernel: no pool/kernel cycle.
        self.cache = kernel.cache
        self.obs = kernel.obs
        self.finish = kernel.finish
        self.schedule = kernel.schedule
        self.prefill_tokens = 0
        self.generated_tokens = 0

    def enqueue(self, kernel, request, now: float, entry: bool) -> None:
        if not entry:                    # KV handed off by the prefill pool
            self.pending.append(request)
            self._admit_pending(kernel, now)
            return
        request = self.accept(request)
        prefill = self.role == ROLE_PREFILL
        need = request.prompt_tokens if prefill else request.reserved_tokens
        replica = min((r for r in self.replicas if r.kv_capacity >= need),
                      key=attrgetter("pending_prefill_tokens" if prefill
                                     else "pending_load", "index"))
        replica.prefill_queue.append(request)
        if self.obs is not None:
            self.obs.request_routed(request, replica, now,
                                    len(replica.prefill_queue))
        self.dispatch(kernel, replica, now)

    def dispatch(self, kernel, replica: LLMReplica, now: float) -> None:
        if not replica.idle(now):
            return
        if self.monolithic:
            self._dispatch_gang(replica, now)
            return
        if replica.decode_ready:
            # Fold KV-admitted requests into the running batch (same model
            # only — a decode step lowers to one engine shape).
            batch, kept = replica.batch, []
            model = (batch[0] if batch else replica.decode_ready[0]).model
            for request in replica.decode_ready:
                if len(batch) < self.max_batch and request.model == model:
                    request.decode_batch = len(batch) + 1
                    batch.append(request)
                    if self.obs is not None:
                        self.obs.decode_joined(request, replica, now)
                else:
                    kept.append(request)
            replica.decode_ready = kept
        if self.role != ROLE_DECODE:
            if replica.current_prefill is None and replica.prefill_queue:
                head = replica.prefill_queue[0]
                need = (head.prompt_tokens if self.role == ROLE_PREFILL
                        else head.reserved_tokens)
                if need <= replica.kv_free:
                    replica.current_prefill = self._admit(replica, need, now)
            # Prefill-priority: new prompts preempt the decode batch at the
            # iteration boundary — colocated TPOT pays for it, which is the
            # interference disaggregation exists to remove.
            if replica.current_prefill is not None:
                self._launch(replica, now)
                return
        if replica.batch:
            self._launch(replica, now, tuple(replica.batch))

    def free(self, kernel, payload, now: float) -> None:
        replica, work, chunk = payload
        if chunk:                                    # a prefill chunk
            work.prefilled += chunk
            self.prefill_tokens += chunk
            if work.prefilled >= work.prompt_tokens:
                self._first_token(replica, work, now)
        elif self.monolithic:                        # a gang step
            replica.gang_steps_left -= 1
            for member in work:
                if member.decoded < member.decode_target:
                    member.decoded += 1
                    self.generated_tokens += 1
                    if member.decoded == member.decode_target:
                        member.completion = now
            if replica.gang_steps_left == 0:
                self._retire_gang(replica)
        else:                                        # a decode step
            self.generated_tokens += len(work)
            for request in work:
                request.decoded += 1
                if request.decoded >= request.decode_target:
                    replica.batch.remove(request)
                    replica.kv_used -= request.reserved_tokens
                    self._complete(request, replica, now, request.decode_batch)
            if self.role == ROLE_DECODE:
                self._admit_pending(kernel, now)
        self.dispatch(kernel, replica, now)

    def _admit(self, replica: LLMReplica, need: int, now: float) -> LLMRequest:
        """Reserve ``need`` KV tokens for the prefill queue's head and start
        its prefill phase."""

        request = replica.prefill_queue.popleft()
        replica.reserve(need)
        request.prefill_start = now
        if self.obs is not None:
            self.obs.prefill_admitted(request, replica, now)
        return request

    def _launch(self, replica: LLMReplica, now: float,
                members: tuple[LLMRequest, ...] | None = None) -> None:
        """Start one engine call: a chunk of ``replica.current_prefill``'s
        prompt, or (given ``members``) one decode step over them."""

        if members is None:
            work = replica.current_prefill
            chunk = min(self.prefill_chunk, work.prompt_tokens - work.prefilled)
            name = _configured(work.model, tokens=chunk,
                               kv_tokens=work.prefilled + chunk, phase="prefill")
            size = 1
        else:
            work, chunk, size = members, 0, len(members)
            kv_tokens = max(member.prompt_tokens + member.decoded
                            for member in members)
            name = _configured(members[0].model, tokens=1,
                               kv_tokens=_bucket(kv_tokens, self.kv_bucket),
                               phase="decode")
            replica.decode_steps += 1
        spec = replica.spec
        result = simulate(RunSpec(name, target=spec.target,
                                  attention=spec.attention, batch_size=size),
                          cache=self.cache)
        service = self.step_overhead_seconds + result.end_to_end_latency
        finish = now + service
        replica.busy_until = finish
        replica.busy_seconds += service
        replica.energy_joules += result.end_to_end_energy
        replica.batches += 1
        self.schedule(finish, "free", self, (replica, work, chunk))
        obs = self.obs
        if obs is not None:
            if chunk:
                obs.prefill_chunk(replica, work, now, finish, chunk)
            else:
                obs.decode_step(replica, work, now, finish)
        if chunk:
            logger.debug("t=%.6f %s: prefill chunk of %d tokens for request %d",
                         now, replica.name, chunk, work.index)

    def _first_token(self, replica: LLMReplica, request: LLMRequest,
                     now: float) -> None:
        request.first_token_time = now
        replica.current_prefill = None
        obs = self.obs
        if obs is not None:
            obs.prefill_finished(request, replica, now)
        if self.monolithic:
            if request.decode_target == 0:
                request.completion = now        # recorded at gang retirement
        elif self.decode is not None:
            replica.kv_used -= request.prompt_tokens   # KV ships to the decode pool
            if request.decode_target == 0:
                self._complete(request, replica, now, 1)
            else:
                arrival = now + self.handoff_seconds
                self.schedule(arrival, "hop", self.decode, request)
                if obs is not None:
                    obs.handoff(request, replica, now, arrival)
        elif request.decode_target == 0:
            replica.kv_used -= request.reserved_tokens
            self._complete(request, replica, now, 1)
        else:
            replica.decode_ready.append(request)
            if obs is not None:
                obs.decode_pending(request, now)

    def _complete(self, request: LLMRequest, replica: LLMReplica, now: float,
                  batch_size: int) -> None:
        request.completion = now
        replica.served += 1
        self.finish(request.index, request.model, request.arrival, replica,
                    batch_size, request.prefill_start, now, None,
                    request.first_token_time, request.decode_target)
        if self.obs is not None:
            self.obs.request_completed(request, replica, now, batch_size)

    def _admit_pending(self, kernel, now: float) -> None:
        """Strict-FIFO admission from the decode pool's queue."""

        pending = self.pending
        while pending:
            head = pending[0]
            candidates = [replica for replica in self.replicas
                          if replica.slots_used < self.max_batch
                          and head.reserved_tokens <= replica.kv_free]
            if not candidates:
                return
            replica = max(candidates, key=lambda r: (r.kv_free, -r.index))
            pending.popleft()
            replica.reserve(head.reserved_tokens)
            replica.decode_ready.append(head)
            if self.obs is not None:
                self.obs.decode_admitted(head, replica, now)
            self.dispatch(kernel, replica, now)

    def _dispatch_gang(self, replica: LLMReplica, now: float) -> None:
        """Monolithic scheduling: admit a gang, prefill its members one by
        one, then decode in lockstep at the full gang size — members that
        already finished pad the batch until the gang drains."""

        gang = replica.gang
        if not gang:
            queue = replica.prefill_queue
            while (queue and len(gang) < self.max_batch
                   and queue[0].reserved_tokens <= replica.kv_free):
                gang.append(self._admit(replica, queue[0].reserved_tokens, now))
            replica.gang_steps_left = -1    # set once every prefill completes
            if not gang:
                return
        if replica.current_prefill is None:
            for member in gang:
                if member.prefilled < member.prompt_tokens:
                    replica.current_prefill = member
                    break
        if replica.current_prefill is not None:
            self._launch(replica, now)
            return
        if replica.gang_steps_left < 0:     # prefills just drained: arm decode
            replica.gang_steps_left = max(member.decode_target
                                          for member in gang)
            if replica.gang_steps_left == 0:
                self._retire_gang(replica)
                self._dispatch_gang(replica, now)
                return
        if replica.gang_steps_left > 0:
            self._launch(replica, now, tuple(gang))

    def _retire_gang(self, replica: LLMReplica) -> None:
        size = len(replica.gang)
        for member in replica.gang:
            replica.kv_used -= member.reserved_tokens
            self._complete(member, replica, member.completion, size)
        replica.gang = []


def serve_llm(traffic: TrafficPattern, fleet: Fleet | str | None = None, *,
              prefill_fleet: Fleet | str | None = None,
              decode_fleet: Fleet | str | None = None,
              scheduler: str = "continuous",
              duration: float, seed: int = 0,
              prompt_tokens: int = DEFAULT_PROMPT_TOKENS,
              output_tokens: int = DEFAULT_OUTPUT_TOKENS,
              prefill_chunk: int = DEFAULT_PREFILL_CHUNK,
              max_batch: int = DEFAULT_MAX_BATCH,
              kv: KVCacheConfig | None = None,
              step_overhead_seconds: float = DEFAULT_STEP_OVERHEAD,
              handoff_seconds: float = DEFAULT_HANDOFF_SECONDS,
              kv_bucket: int = DEFAULT_KV_BUCKET,
              ttft_slo_seconds: float = DEFAULT_TTFT_SLO,
              tpot_slo_seconds: float = DEFAULT_TPOT_SLO,
              slo_seconds: float = DEFAULT_LLM_SLO,
              percentiles: Sequence[float] = DEFAULT_PERCENTILES,
              cache: ResultCache | None = None,
              summary: str = "exact",
              obs=None) -> ServeReport:
    """Run one LLM-serving simulation and return its :class:`ServeReport`.

    Pass ``fleet`` for a colocated deployment (every replica serves both
    phases) or ``prefill_fleet`` + ``decode_fleet`` for a disaggregated one
    (mutually exclusive; spec strings like ``"2xvitality"`` are accepted
    everywhere).  ``scheduler`` is ``"continuous"`` (iteration-level) or
    ``"monolithic"`` (request-level gangs, colocated fleets only — it is the
    baseline continuous batching is measured against).

    Requests take their prompt/output token counts from the traffic (token
    profiles or token-carrying traces), falling back to ``prompt_tokens`` /
    ``output_tokens``.  A request whose KV reservation cannot fit the
    largest relevant replica raises ``ValueError`` when it arrives; one that
    fits only when capacity frees queues on a replica large enough for it.  The report's ``ttft`` / ``tpot``
    summaries and ``llm`` block carry the phase-level results.

    ``summary`` mirrors :func:`repro.serve.serve`: ``"exact"`` (default)
    keeps per-request records and exact order statistics; ``"streaming"``
    folds each completion into log histograms, bounding memory for
    arbitrarily long runs with every quantile within 1 % relative of the
    exact one.  Both pull arrivals lazily and size KV capacity from the
    models the traffic *declares* (mix entries or trace models).

    ``obs`` (a :class:`repro.obs.Observability`) attaches tracing, streaming
    metrics and/or progress reporting; hooks are pure observers and
    ``obs=None`` skips them all, so reports stay bit-identical either way.
    """

    disaggregated = prefill_fleet is not None or decode_fleet is not None
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; "
                         f"available: {', '.join(SCHEDULERS)}")
    if disaggregated:
        if fleet is not None:
            raise ValueError("pass either fleet= (colocated) or "
                             "prefill_fleet=+decode_fleet= (disaggregated), not both")
        if prefill_fleet is None or decode_fleet is None:
            raise ValueError("disaggregated serving needs both prefill_fleet "
                             "and decode_fleet")
        if scheduler == "monolithic":
            raise ValueError("monolithic batching is the colocated baseline; "
                             "disaggregated pools imply continuous scheduling")
    elif fleet is None:
        raise ValueError("serve_llm needs a fleet (colocated) or "
                         "prefill_fleet+decode_fleet (disaggregated)")
    if prefill_chunk < 1:
        raise ValueError(f"prefill_chunk must be >= 1, got {prefill_chunk}")
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    if kv_bucket < 1:
        raise ValueError(f"kv_bucket must be >= 1, got {kv_bucket}")
    if step_overhead_seconds < 0 or handoff_seconds < 0:
        raise ValueError("step_overhead_seconds and handoff_seconds must be >= 0")
    if min(ttft_slo_seconds, tpot_slo_seconds, slo_seconds) <= 0:
        raise ValueError("SLOs must be positive")
    check_args(summary=summary, percentiles=percentiles)
    kv = KVCacheConfig() if kv is None else kv
    fleets = ({"prefill_fleet": prefill_fleet, "decode_fleet": decode_fleet}
              if disaggregated else {"fleet": fleet})
    fleets = {key: Fleet.parse(spec) if isinstance(spec, str) else spec
              for key, spec in fleets.items()}

    # KV capacity is sized from the models the traffic declares (mix entries
    # or trace models); patterns that cannot declare them are generated once
    # to find out.
    models = traffic_models(traffic)
    if models is None:
        models = sorted({request.model
                         for request in traffic.arrivals(duration, seed)})
    for model in models:
        _check_sequence_model(model)
    bytes_per_token = max((kv.bytes_per_token(get_workload(model))
                           for model in models), default=1)

    def _replicas(key: str, role: str, start_index: int) -> list[LLMReplica]:
        ordinals: dict[str, int] = {}
        replicas = []
        for offset, spec in enumerate(fleets[key].replica_specs):
            ordinal = ordinals.get(spec.label, 0)
            ordinals[spec.label] = ordinal + 1
            capacity = kv.capacity_for(spec, bytes_per_token)
            replicas.append(LLMReplica(start_index + offset, ordinal, spec,
                                       role, capacity))
        return replicas

    if disaggregated:
        prefill_replicas = _replicas("prefill_fleet", ROLE_PREFILL, 0)
        decode_replicas = _replicas("decode_fleet", ROLE_DECODE,
                                    len(prefill_replicas))
    else:
        prefill_replicas = decode_replicas = _replicas("fleet", ROLE_UNIFIED, 0)

    # Each arrival's KV feasibility is checked as it enters, so an impossible
    # request is a clean ValueError, not an event loop that never drains.
    prefill_cap = max(replica.kv_capacity for replica in prefill_replicas)
    decode_cap = max(replica.kv_capacity for replica in decode_replicas)

    def accept(raw: Request) -> LLMRequest:
        request = LLMRequest(raw, raw.prompt_tokens or prompt_tokens,
                             raw.output_tokens or output_tokens)
        need = request.prompt_tokens if disaggregated else request.reserved_tokens
        if need > prefill_cap:
            raise ValueError(
                f"request {request.index} ({request.model!r}) needs {need} KV "
                f"tokens for prefill admission but the largest "
                f"{'prefill ' if disaggregated else ''}replica holds "
                f"{prefill_cap}")
        if disaggregated and request.reserved_tokens > decode_cap:
            raise ValueError(
                f"request {request.index} ({request.model!r}) needs "
                f"{request.reserved_tokens} KV tokens for decode admission "
                f"but the largest decode replica holds {decode_cap}")
        return request

    kernel = Kernel(traffic, duration=duration, seed=seed,
                    slo_seconds=slo_seconds, cache=cache,
                    percentiles=percentiles, summary=summary, obs=obs,
                    phase_slos=(ttft_slo_seconds, tpot_slo_seconds))
    shared = dict(scheduler=scheduler, prefill_chunk=prefill_chunk,
                  max_batch=max_batch, kv_bucket=kv_bucket,
                  step_overhead_seconds=step_overhead_seconds)
    if disaggregated:
        decode = LLMPool(decode_replicas, ROLE_DECODE, kernel, **shared)
        entry = LLMPool(prefill_replicas, ROLE_PREFILL, kernel, accept=accept,
                        decode=decode, handoff_seconds=handoff_seconds,
                        **shared)
        pools = [entry, decode]
    else:
        entry = LLMPool(prefill_replicas, ROLE_UNIFIED, kernel, accept=accept,
                        **shared)
        pools = [entry]
    logger.info("serve_llm: arrivals over %.3fs, scheduler=%s, %d replica(s)%s",
                duration, scheduler,
                len(prefill_replicas) + len(decode_replicas) * disaggregated,
                " (disaggregated)" if disaggregated else "")
    kernel.run(pools, entry, "serve-llm")

    config: dict[str, object] = {
        "traffic": traffic.to_dict(),
        "scheduler": scheduler,
        "duration": duration,
        "seed": seed,
        "slo_seconds": slo_seconds,
        "prompt_tokens": prompt_tokens,
        "output_tokens": output_tokens,
        "prefill_chunk": prefill_chunk,
        "max_batch": max_batch,
        "step_overhead_seconds": step_overhead_seconds,
        "kv_bucket": kv_bucket,
        "ttft_slo_seconds": ttft_slo_seconds,
        "tpot_slo_seconds": tpot_slo_seconds,
        "kv": kv.to_dict(),
        **{key: value.describe() for key, value in fleets.items()},
    }
    if disaggregated:
        config["handoff_seconds"] = handoff_seconds

    generated = sum(pool.generated_tokens for pool in pools)
    steps = sum(replica.decode_steps for replica in kernel.replicas)
    llm_block: dict[str, object] = {
        "scheduler": scheduler,
        "disaggregated": disaggregated,
        "prefill_tokens": sum(pool.prefill_tokens for pool in pools),
        "generated_tokens": generated,
        "decode_steps": steps,
        "mean_decode_batch": generated / steps if steps else 0.0,
        "decode_tokens_per_second": generated / kernel.makespan(),
        **kernel.attainment(),
        "kv_bytes_per_token": bytes_per_token,
    }
    return kernel.report(config, "serve-llm", llm=llm_block)
