"""Outside-in per-layer timers for the traced benchmark run.

A :class:`Tracer` swaps selected public callables of the ``repro`` package
for thin wrappers that count calls and accumulate ``perf_counter_ns`` time,
and :meth:`Tracer.restore` puts every original object back.  Spans nest: a
span's *self* time is its duration minus the part its child spans cover, so
the serving loop's own cost is separable from the routing, batching, report
and engine calls it makes.  Nothing under ``src/`` is edited; the wrappers
live only for the traced half of a traced run.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

#: Span names of the serving event loops; their self time is the loop's own.
SERVE_SPANS = ("serve", "serve_pipeline", "serve_llm")

#: Module prefixes whose global bindings are re-pointed at wrappers.
PATCH_MODULE_PREFIXES = ("repro", "bench_workloads")

_WRAPPER_MARK = "__perfbench_wrapper__"


class SpanStats:
    """Call count, inclusive time and self time of one span name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span accumulators plus the patch ledger that undoes every wrap."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, int] = defaultdict(int)
        #: Inclusive time of serving runs started inside a planner span.
        self.validate_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []          # [name, child_ns] per open span
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, start: int) -> None:
        elapsed = perf_counter_ns() - start
        _, child = self._stack.pop()
        stats = self.spans[name]
        stats.calls += 1
        stats.total_ns += elapsed
        stats.self_ns += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed
            if name in SERVE_SPANS and any(frame[0] == "plan" for frame in self._stack):
                self.validate_ns[name] += elapsed

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs inside it."""

        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            stack.append([name, 0])
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                close(name, start)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _WRAPPER_MARK, True)
        return wrapper

    def timed_iterator(self, name: str, iterator, counter: str):
        """An iterator whose every ``next()`` is one span of ``name``."""

        return _TimedIterator(self, name, iterator, counter)

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        """Set ``owner.attr`` (a class or module) to ``wrapper``, recorded."""

        had = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had))

    def patch_function(self, fn, wrapper) -> None:
        """Re-point every module-level binding of ``fn`` at ``wrapper``.

        Modules import public functions by name, so one function has several
        bindings (``repro.serve.simulator.serve``, ``repro.serve.serve``,
        ``repro.plan.optimizer.serve``...); all of them are swapped, and each
        swap is recorded for :meth:`restore`.
        """

        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(PATCH_MODULE_PREFIXES):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""

        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Dotted names of wrappers still bound anywhere in the patched
        modules or on their classes (empty once :meth:`restore` ran)."""

        found = []
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(PATCH_MODULE_PREFIXES):
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, _WRAPPER_MARK, False):
                    found.append(f"{name}.{attr}")
                elif isinstance(value, type) and value.__module__ == name:
                    found.extend(f"{name}.{attr}.{method}"
                                 for method, member in vars(value).items()
                                 if getattr(member, _WRAPPER_MARK, False))
        return found

    # -- metrics -------------------------------------------------------------

    def seconds(self, name: str, kind: str = "self") -> float:
        stats = self.spans.get(name)
        if stats is None:
            return 0.0
        return (stats.self_ns if kind == "self" else stats.total_ns) / 1e9

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return 0 if stats is None else stats.calls


class _TimedIterator:
    __slots__ = ("_tracer", "_name", "_iterator", "_counter")

    def __init__(self, tracer: Tracer, name: str, iterator, counter: str):
        self._tracer = tracer
        self._name = name
        self._iterator = iterator
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer._stack.append([self._name, 0])
        start = perf_counter_ns()
        try:
            item = next(self._iterator)
            tracer.counters[self._counter] += 1
            return item
        finally:
            tracer._close(self._name, start)


class TimedTraffic:
    """A traffic pattern whose arrival generation is traced.

    Delegates every attribute to the wrapped pattern (``to_dict``, ``mix``,
    ``rate``...), so reports are unchanged; only ``iter_arrivals`` and
    ``arrivals`` are timed.
    """

    def __init__(self, traffic, tracer: Tracer):
        self._traffic = traffic
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._traffic, attr)

    def iter_arrivals(self, duration: float, seed: int):
        return self._tracer.timed_iterator(
            "traffic", self._traffic.iter_arrivals(duration, seed),
            "traffic.arrivals")

    def arrivals(self, duration: float, seed: int):
        def count(result, _args):
            self._tracer.counters["traffic.arrivals"] += len(result)

        return self._tracer.timed("traffic", self._traffic.arrivals,
                                  after=count)(duration, seed)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""

    from repro.engine import ResultCache
    from repro.engine import targets as engine_targets
    from repro.hardware.memsim import simulator as memsim_simulator
    from repro.plan import optimizer, queueing
    from repro.serve import batching, cluster, llm, metrics, pipeline, simulator

    counters = tracer.counters

    # Serving loops and planners (module-level functions, bound by name in
    # several modules).
    for name, fn in (("serve", simulator.serve),
                     ("serve_pipeline", pipeline.serve_pipeline),
                     ("serve_llm", llm.serve_llm),
                     ("plan", optimizer.plan_capacity),
                     ("plan", optimizer.plan_pipeline_capacity),
                     ("plan", optimizer.plan_llm_capacity),
                     ("queueing", queueing.estimate_fleet),
                     ("queueing", queueing.estimate_pipeline),
                     ("queueing", queueing.estimate_llm_pools),
                     ("pareto", optimizer.pareto_frontier)):
        tracer.patch_function(fn, tracer.timed(name, fn))

    # Routing: the incremental least-loaded index and the router's scan.
    for owner, attr in ((cluster.LoadIndex, "argmin"),
                        (cluster.LoadIndex, "update"),
                        (cluster.LeastLoadedRouter, "choose")):
        tracer.patch_attr(owner, attr, tracer.timed("route", vars(owner)[attr]))

    # Batch formation: every policy's take().
    def count_batch(batch, _args):
        counters["batch.takes"] += 1
        if batch:
            counters["batch.formed"] += 1
            counters["batch.size_sum"] += len(batch)

    for policy in (batching.FIFOPolicy, batching.SizeBatchPolicy,
                   batching.TimeoutBatchPolicy):
        tracer.patch_attr(policy, "take",
                          tracer.timed("batch", vars(policy)["take"],
                                       after=count_batch))

    # Streaming report accumulation (P² sketches live under observe()).
    accumulator = metrics.ReportAccumulator
    tracer.patch_attr(accumulator, "observe",
                      tracer.timed("metrics.observe", vars(accumulator)["observe"]))
    tracer.patch_attr(accumulator, "finalize",
                      tracer.timed("metrics.finalize", vars(accumulator)["finalize"]))

    # Engine lookups; a miss's runner is the target's analytic model.
    def count_miss(result, _args):
        for record in result.roofline:
            counters["memsim.tile_passes_weighted"] += record.tiles * record.repeats

    original_get_or_run = vars(ResultCache)["get_or_run"]
    timed_get_or_run = tracer.timed("engine", original_get_or_run)

    def get_or_run(self, spec, runner):
        return timed_get_or_run(self, spec,
                                tracer.timed("hw.analytic", runner, after=count_miss))

    setattr(get_or_run, _WRAPPER_MARK, True)
    get_or_run.__wrapped__ = original_get_or_run
    tracer.patch_attr(ResultCache, "get_or_run", get_or_run)

    # Configured-target resolution: knob parsing plus, on first use of a
    # design point, the target build (the ViTALiTy family's ``configured``
    # factory; every configured name the workloads use is a ViTALiTy one).
    original_get_target = engine_targets.get_target
    timed_get_target = tracer.timed("target", original_get_target)

    def get_target(name):
        if "[" not in name:
            return original_get_target(name)
        return timed_get_target(name)

    setattr(get_target, _WRAPPER_MARK, True)
    get_target.__wrapped__ = original_get_target
    tracer.patch_function(original_get_target, get_target)
    family = engine_targets.VitalityTarget
    tracer.patch_attr(family, "configured",
                      tracer.timed("target.build", vars(family)["configured"]))

    # The memsim tile loop: one call per unique simulated GEMM.
    def count_tiles(trace, _args):
        counters["memsim.tile_passes"] += trace.tiles

    tiled = memsim_simulator.simulate_tiled_gemm
    tracer.patch_function(tiled, tracer.timed("memsim", tiled, after=count_tiles))
