"""The benchmark's workloads: seeded inputs, one measured operation, checks.

Each workload turns ``--seed`` into its inputs, and exposes one *operation*
(``run_op(index)``): a single call into a public ``repro`` API on inputs
derived from ``(seed, index)``.  The operation reports the host time of that
call, the work items it completed, how many checked outcomes it attempted
and how many failed, and a JSON-serialisable record of its deterministic
simulated outputs (hashed into ``sim_digest``).  The harness in ``run.py``
repeats operations for the run's time budget.

Why these workloads — each loads a different layer of the stack:

* ``serve-stream`` — streaming ``serve()`` on a warm engine cache: arrival
  generation, routing, batch formation and P² report accumulation do the
  work; memsim and the planners are idle.
* ``hw-dse`` — the paper's Fig. 11/12 matrix, then a memsim-active
  pe x freq x sram_kb x dram_gbps sweep on a cold cache: knob parsing,
  target builds, the analytic accelerator and the memsim tile loop do the
  work; the serving layers are idle.
* ``plan-fleet`` / ``plan-pipeline`` / ``plan-llm`` — the three capacity
  planners, each with analytic pruning plus exact-mode validation through
  ``serve``, ``serve_pipeline`` and ``serve_llm`` respectively (per-request
  records, short runs, many distinct engine misses).  They are separate
  workloads so a speed-up in one planner cannot hide a slowdown in another.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from repro.engine import ResultCache, RunSpec, cache_stats, clear_cache, simulate
from repro.experiments.dse_exps import explore_design_space
from repro.experiments.hardware_exps import (
    PAPER_ATTENTION_ENERGY,
    PAPER_ATTENTION_SPEEDUP,
    PAPER_FIG11_AVERAGE,
    PAPER_FIG12_AVERAGE,
    fig11_latency_speedup,
    fig12_energy_efficiency,
)
from repro.plan import plan_capacity, plan_llm_capacity, plan_pipeline_capacity
from repro.serve import (
    DEFAULT_CACHE_ENTRIES,
    Fleet,
    LeastLoadedRouter,
    PipelineSpec,
    PoissonTraffic,
    SizeBatchPolicy,
    WorkloadMix,
    serve,
)

from bench_trace import TimedTraffic

#: Leading operations whose records form the printed ``sim_digest``; every
#: run executes them, traced or not, so digests compare across runs.
PREFIX_OPS = 1

BASELINES = ("cpu", "edge_gpu", "gpu", "sanger")


@dataclass
class OpResult:
    """Outcome of one measured operation."""

    seconds: float                 # host time of the measured API call(s)
    items: int                     # work items completed (requests, points, plans)
    attempted: int                 # checked outcomes (items plus output checks)
    failed: int
    record: object                 # deterministic simulated outputs (JSON-able)
    engine_hits: int = 0
    engine_misses: int = 0
    detail: dict = field(default_factory=dict)
    #: Set by the harness: host speed relative to the reference host while
    #: the operation ran, and the process's peak RSS (MiB) once it finished.
    speed: float = 1.0
    rss_mib: float = 0.0

    @property
    def reference_seconds(self) -> float:
        """``seconds`` scaled to the reference host speed."""

        return self.seconds * self.speed

    @property
    def rate(self) -> float:
        """Items per second at the reference host speed."""

        return self.items / self.reference_seconds


def digest_records(results) -> str:
    """sha256 of the canonical JSON of each operation's record, in order."""

    sha = hashlib.sha256()
    for result in results:
        sha.update(json.dumps(result.record, sort_keys=True,
                              separators=(",", ":")).encode())
    return sha.hexdigest()


def _traffic(traffic, tracer):
    return traffic if tracer is None else TimedTraffic(traffic, tracer)


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


class Workload:
    """Shared seeding; subclasses define ``run_op`` and their metrics."""

    name = ""
    why = ""
    #: What one ``items_per_s`` item is, for the printed legend.
    item = ""
    #: Operations whose deterministic outputs define ``model_err``.
    err_ops = PREFIX_OPS
    #: Operations per half of a traced run (fixed, so counts repeat exactly).
    trace_ops = 1
    #: ``peak_rss_mib`` is read after this many operations, so it measures
    #: the same work whatever the host speed.
    rss_ops = 8

    def __init__(self, seed: int):
        self.seed = seed

    def op_seed(self, index: int) -> int:
        return random.Random(f"{self.name}:{self.seed}:{index}").randrange(2 ** 31)

    def params(self) -> dict:
        raise NotImplementedError

    def run_op(self, index: int, tracer=None) -> OpResult:
        raise NotImplementedError

    def model_err(self, results: list[OpResult]) -> float:
        """Simulated-output error over ``results[:err_ops]`` (deterministic)."""

        raise NotImplementedError

    def aliases(self, results: list[OpResult], model_err: float) -> dict:
        """The workload's end-to-end figures under their descriptive names."""

        return {}


class ServeStream(Workload):
    name = "serve-stream"
    why = ("streaming serve on a warm cache: traffic, routing, batching and "
           "P2 report accumulation do the work; memsim and planners idle")
    item = "simulated requests completed"
    MODELS = ("deit-tiny", "levit-128", "deit-tiny[tokens=512]")
    FLEET = "4xvitality"
    #: Open-loop Poisson rate: ~90% utilisation of the fleet, stationary (no
    #: growing backlog) and past the low-load regime where strict size
    #: batching starves half-filled queues.
    RATE = 3600.0
    BATCH = 8
    REQUESTS_PER_OP = 5_000
    #: Per-window rows of ~200 requests; ``model_err`` averages the window
    #: p99 error over ``err_ops`` operations (1000 windows), which keeps it
    #: steady across seeds where a single overall p99 is not.
    WINDOWS = 25
    err_ops = 40
    trace_ops = 12
    rss_ops = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.traffic = PoissonTraffic(rate=self.RATE, mix=WorkloadMix.of(self.MODELS))
        self.fleet = Fleet.parse(self.FLEET)
        self.policy = SizeBatchPolicy(self.BATCH)
        self.router = LeastLoadedRouter()
        self.duration = self.REQUESTS_PER_OP / self.RATE
        # One warm cache for every run: each (model, batch) shape the fleet
        # can dispatch is simulated here, so engine lookups while serving
        # are all hits.
        self.cache = ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
        self.fleet.warmup(self.MODELS, batch_sizes=range(1, self.BATCH + 1),
                          cache=self.cache)
        #: |streaming - exact| / exact overall p99 of operation 0, set by
        #: :meth:`model_err` (one run's p99 error swings widely with the seed,
        #: so it is printed, not gated).
        self.overall_p99_rel_err = math.nan

    def params(self) -> dict:
        return {"models": list(self.MODELS), "fleet": self.FLEET,
                "rate_rps": self.RATE, "policy": self.policy.to_dict(),
                "router": self.router.name, "summary": "streaming",
                "duration_s": self.duration, "windows": self.WINDOWS,
                "arrivals": "open-loop poisson"}

    def _serve(self, index: int, summary: str, tracer=None):
        before = self.cache.stats()
        start = perf_counter()
        report = serve(_traffic(self.traffic, tracer), self.fleet, self.policy,
                       self.router, duration=self.duration,
                       seed=self.op_seed(index), cache=self.cache,
                       window_seconds=self.duration / self.WINDOWS,
                       summary=summary)
        seconds = perf_counter() - start
        after = self.cache.stats()
        return report, seconds, after.hits - before.hits, after.misses - before.misses

    @staticmethod
    def backlog_bounded(windows) -> bool:
        """False when the last third's window p99 has grown past 3x the first
        third's — the signature of a queue that grows without bound."""

        third = max(1, len(windows) // 3)
        first = statistics.median(window.p99 for window in windows[:third])
        last = statistics.median(window.p99 for window in windows[-third:])
        return last <= 3.0 * first

    def run_op(self, index: int, tracer=None) -> OpResult:
        report, seconds, hits, misses = self._serve(index, "streaming", tracer)
        failed = (report.offered - report.completed
                  + (0 if self.backlog_bounded(report.windows) else 1))
        # The shared cache's running counters depend on what ran before;
        # everything else in the report is a function of (seed, index).
        record = report.to_dict()
        del record["cache"]
        return OpResult(seconds=seconds, items=report.completed,
                        attempted=report.offered + 1, failed=failed,
                        record=record, engine_hits=hits,
                        engine_misses=misses, detail={"report": report})

    def model_err(self, results):
        """Mean |streaming - exact| / exact window p99 over the same arrivals."""

        errors = []
        for index, result in enumerate(results[:self.err_ops]):
            exact, _, _, _ = self._serve(index, "exact")
            streamed = result.detail["report"]
            errors.extend(abs(s.p99 - e.p99) / e.p99
                          for s, e in zip(streamed.windows, exact.windows) if e.p99 > 0)
            if index == 0:
                self.overall_p99_rel_err = (abs(streamed.latency.p99 - exact.latency.p99)
                                            / exact.latency.p99)
        return statistics.fmean(errors)

    def aliases(self, results, model_err):
        return {"serve_rps": ("1/s", statistics.median(r.rate for r in results)),
                "stream_p99_rel_err": ("ratio", self.overall_p99_rel_err),
                "stream_window_p99_rel_err": ("ratio", model_err)}


def paper_averages(rows: dict) -> tuple[dict, dict]:
    """Per-baseline arithmetic means over models: end-to-end, attention-only."""

    end_to_end = {key: statistics.fmean(row[key] for row in rows.values())
                  for key in BASELINES}
    attention = {key: statistics.fmean(row[f"attention_{key}"] for row in rows.values())
                 for key in BASELINES}
    return end_to_end, attention


def fidelity_rows(fig11: dict, fig12: dict) -> list[tuple[str, str, float, float]]:
    """(figure, baseline, reproduced, paper) for every paper-reported average."""

    latency, attention = paper_averages(fig11)
    energy, attention_energy = paper_averages(fig12)
    rows = []
    for figure, reproduced, paper in (
            ("fig11 end-to-end speedup", latency, PAPER_FIG11_AVERAGE),
            ("fig11 attention speedup", attention, PAPER_ATTENTION_SPEEDUP),
            ("fig12 end-to-end energy", energy, PAPER_FIG12_AVERAGE),
            ("fig12 attention energy", attention_energy, PAPER_ATTENTION_ENERGY)):
        rows.extend((figure, key, reproduced[key], paper[key]) for key in BASELINES)
    return rows


class HwDse(Workload):
    name = "hw-dse"
    why = ("paper fig11/12 matrix then a memsim-active design sweep on a cold "
           "cache: knobs, target builds, analytic model and memsim tile loop")
    item = "design points simulated"
    MODEL = "deit-tiny"
    TARGET = "vitality"
    PE = ("16x16", "32x32", "64x64", "128x128")
    FREQ = ("250mhz", "500mhz", "750mhz", "1ghz")
    SRAM_KB = (100, 200, 400)
    #: One log-uniform DRAM bandwidth per band and operation (GB/s): every
    #: operation builds fresh design points, and the starved band keeps some
    #: of them memory-bound.  Bandwidth leaves the tile count unchanged, so
    #: the work per operation is the same for every seed.
    DRAM_BANDS = ((4.0, 8.0), (8.0, 24.0), (24.0, 64.0), (64.0, 160.0))
    trace_ops = 6

    def params(self) -> dict:
        return {"model": self.MODEL, "target": self.TARGET, "pe": list(self.PE),
                "freq": list(self.FREQ), "sram_kb": list(self.SRAM_KB),
                "dram_gbps_bands": [list(band) for band in self.DRAM_BANDS],
                "points_per_op": (len(self.PE) * len(self.FREQ) * len(self.SRAM_KB)
                                  * len(self.DRAM_BANDS)),
                "paper_matrix": "fig11+fig12, all models vs cpu/edge_gpu/gpu/sanger"}

    def dram_gbps(self, index: int) -> tuple[float, ...]:
        rng = random.Random(self.op_seed(index))
        return tuple(round(low * (high / low) ** rng.random(), 3)
                     for low, high in self.DRAM_BANDS)

    def run_op(self, index: int, tracer=None) -> OpResult:
        expected = (len(self.PE) * len(self.FREQ) * len(self.SRAM_KB)
                    * len(self.DRAM_BANDS))
        cache = ResultCache()
        start = perf_counter()
        clear_cache()
        fig11 = fig11_latency_speedup()
        fig12 = fig12_energy_efficiency()
        paper = cache_stats()
        outcome = explore_design_space(
            self.MODEL, self.TARGET, pe=self.PE, freq=self.FREQ,
            sram_kb=self.SRAM_KB, dram_gbps=self.dram_gbps(index), cache=cache)
        seconds = perf_counter() - start
        stats = cache.stats()
        points = outcome["points"]
        bad = sum(1 for point in points
                  if not all(_finite_positive(point[key])
                             for key in ("latency_ms", "energy_mj", "area_mm2")))
        failed = (bad + (expected - len(points))
                  + (0 if outcome["pareto_frontier"] else 1)
                  + (0 if any(point.get("memory_bound_layers") for point in points) else 1))
        detail = {"fig11": fig11, "fig12": fig12}
        if index < PREFIX_OPS:
            detail["roofline"] = self._roofline_shares(points, cache)
        return OpResult(seconds=seconds, items=len(points) - bad,
                        attempted=expected + 2, failed=failed,
                        record={"fig11": fig11, "fig12": fig12, "dse": outcome,
                                "roofline": detail.get("roofline")},
                        engine_hits=stats.hits + paper.hits,
                        engine_misses=stats.misses + paper.misses, detail=detail)

    def _roofline_shares(self, points, cache) -> dict:
        """Memory-bound layer share and stall-cycle share over every point's
        per-layer rooflines (repeat-weighted), read back from the sweep's own
        warm cache after the timed call."""

        layers = memory_bound = stall = cycles = 0
        for point in points:
            result = simulate(RunSpec(self.MODEL, target=point["target"]), cache=cache)
            for record in result.roofline:
                layers += record.repeats
                memory_bound += record.repeats * (record.bound == "memory")
                stall += record.repeats * record.stall_cycles
                cycles += record.repeats * (record.compute_cycles + record.stall_cycles)
        return {"memory_bound_share": memory_bound / layers if layers else 0.0,
                "stall_share": stall / cycles if cycles else 0.0}

    @staticmethod
    def log_errors(result: OpResult) -> dict[str, float]:
        """Mean |ln(reproduced / paper)| over the Fig. 11 averages, the
        Fig. 12 averages (held out from latency-side tuning) and both."""

        errors = {"fig11": [], "fig12": []}
        for figure, _, reproduced, paper in fidelity_rows(result.detail["fig11"],
                                                          result.detail["fig12"]):
            errors[figure[:5]].append(abs(math.log(reproduced / paper)))
        return {"fig11": statistics.fmean(errors["fig11"]),
                "fig12": statistics.fmean(errors["fig12"]),
                "both": statistics.fmean(errors["fig11"] + errors["fig12"])}

    def model_err(self, results):
        return self.log_errors(results[0])["both"]

    def aliases(self, results, model_err):
        errors = self.log_errors(results[0])
        return {"dse_points_per_s": ("1/s", statistics.median(r.rate for r in results)),
                "fig11_log_err": ("ratio", errors["fig11"]),
                "fig12_log_err": ("ratio", errors["fig12"])}


class _Planner(Workload):
    """Shared shape of the three planner workloads."""

    item = "planner runs"
    #: Name of the planner's wall-time figure in the printed aliases.
    alias = ""
    err_ops = 48
    trace_ops = 8

    def plan(self, traffic, seed: int, cache: ResultCache) -> dict:
        raise NotImplementedError

    def base_traffic(self) -> PoissonTraffic:
        raise NotImplementedError

    def errors(self, candidate: dict) -> list[float]:
        """|predicted - measured| / measured for one validated candidate."""

        raise NotImplementedError

    def run_op(self, index: int, tracer=None) -> OpResult:
        cache = ResultCache()
        start = perf_counter()
        payload = self.plan(_traffic(self.base_traffic(), tracer),
                            self.op_seed(index), cache)
        seconds = perf_counter() - start
        stats = cache.stats()
        chosen = payload["chosen"]
        met = chosen is not None and chosen["slo_attained"]
        validated = payload["validated"]
        detail = {
            "candidates": len(payload["candidates"]),
            "feasible": sum(1 for c in payload["candidates"] if c["predicted_feasible"]),
            "validated": len(validated),
            "attained": sum(1 for c in validated if c["slo_attained"]),
            "errors": [error for c in validated for error in self.errors(c)],
        }
        return OpResult(seconds=seconds, items=1, attempted=1, failed=0 if met else 1,
                        record=payload, engine_hits=stats.hits,
                        engine_misses=stats.misses, detail=detail)

    def model_err(self, results):
        """Mean analytic-vs-simulated percentile error over validated candidates."""

        return statistics.fmean(error for result in results[:self.err_ops]
                                for error in result.detail["errors"])

    def aliases(self, results, model_err):
        return {self.alias: ("s", statistics.median(r.reference_seconds for r in results)),
                "queueing_pred_err": ("ratio", model_err)}


def _relative(predicted, measured) -> list[float]:
    if predicted is None or not measured:
        return []
    return [abs(predicted - measured) / measured]


class PlanFleet(_Planner):
    name = "plan-fleet"
    why = ("plan_capacity over three replica kinds and a two-model mix: "
           "analytic M/M/c prune plus exact-mode serve validations")
    alias = "plan_fleet_s"
    MODELS = ("deit-tiny", "levit-128")
    TARGETS = ("vitality", "vitality[pe=32x32]", "sanger")
    RATE = 1500.0
    SLO_S = 0.02
    DURATION = 1.0

    def params(self):
        return {"planner": "plan_capacity", "models": list(self.MODELS),
                "targets": list(self.TARGETS), "rate_rps": self.RATE,
                "slo_ms": self.SLO_S * 1e3, "percentile": 0.99,
                "duration_s": self.DURATION, "max_replicas": 6, "top_k": 3,
                "policy": "timeout"}

    def base_traffic(self):
        return PoissonTraffic(rate=self.RATE, mix=WorkloadMix.of(self.MODELS))

    def plan(self, traffic, seed, cache):
        return plan_capacity(self.RATE, list(self.MODELS), slo_seconds=self.SLO_S,
                             duration=self.DURATION, targets=self.TARGETS,
                             max_replicas=6, top_k=3, traffic=traffic,
                             policy="timeout", seed=seed, cache=cache)

    def errors(self, candidate):
        return _relative(candidate["predicted_p99_ms"], candidate["p99_ms"])


class PlanPipeline(_Planner):
    name = "plan-pipeline"
    why = ("plan_pipeline_capacity on the RAG chain: tandem-queue prune plus "
           "exact-mode serve_pipeline validations")
    alias = "plan_pipeline_s"
    PIPELINE = "rag = encoder[tokens=128] -> deit-tiny"
    RATE = 120.0
    SLO_S = 0.02
    DURATION = 2.0

    def params(self):
        return {"planner": "plan_pipeline_capacity", "pipeline": self.PIPELINE,
                "rate_rps": self.RATE, "slo_ms": self.SLO_S * 1e3,
                "percentile": 0.95, "duration_s": self.DURATION,
                "max_replicas_per_stage": 3, "policy": "fifo"}

    def base_traffic(self):
        spec = PipelineSpec.parse(self.PIPELINE)
        return PoissonTraffic(rate=self.RATE,
                              mix=WorkloadMix.of([spec.stage(spec.entry).model]))

    def plan(self, traffic, seed, cache):
        return plan_pipeline_capacity(
            self.RATE, self.PIPELINE, slo_seconds=self.SLO_S, slo_percentile=0.95,
            duration=self.DURATION, targets="vitality", max_replicas_per_stage=3,
            traffic=traffic, policy="fifo", seed=seed, cache=cache)

    def errors(self, candidate):
        return _relative(candidate["predicted_p95_ms"], candidate["p95_ms"])


class PlanLLM(_Planner):
    name = "plan-llm"
    why = ("plan_llm_capacity on decoder: prefill/decode pool prune plus "
           "exact-mode serve_llm validations")
    alias = "plan_llm_s"
    MODEL = "decoder"
    RATE = 8.0
    TTFT_SLO_S = 0.2
    TPOT_SLO_S = 0.01
    DURATION = 2.0
    MAX_REPLICAS = 4
    TOP_K = 3

    def params(self):
        return {"planner": "plan_llm_capacity", "model": self.MODEL,
                "rate_rps": self.RATE, "ttft_slo_ms": self.TTFT_SLO_S * 1e3,
                "tpot_slo_ms": self.TPOT_SLO_S * 1e3, "percentile": 0.95,
                "duration_s": self.DURATION, "max_replicas": self.MAX_REPLICAS,
                "top_k": self.TOP_K}

    def base_traffic(self):
        return PoissonTraffic(rate=self.RATE, mix=WorkloadMix.of([self.MODEL]))

    def plan(self, traffic, seed, cache):
        return plan_llm_capacity(
            self.RATE, self.MODEL, ttft_slo_seconds=self.TTFT_SLO_S,
            tpot_slo_seconds=self.TPOT_SLO_S, duration=self.DURATION,
            max_replicas=self.MAX_REPLICAS, top_k=self.TOP_K, traffic=traffic, seed=seed, cache=cache)

    def errors(self, candidate):
        return (_relative(candidate["predicted_ttft_p95_ms"], candidate["ttft_p95_ms"])
                + _relative(candidate["predicted_tpot_ms"], candidate["tpot_p95_ms"]))


WORKLOADS = {workload.name: workload
             for workload in (ServeStream, HwDse, PlanFleet, PlanPipeline, PlanLLM)}
