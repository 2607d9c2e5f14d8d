"""Repository benchmark: end-to-end and per-layer figures from one command.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload's operation for ``--seconds`` seconds with
no instrumentation and reports the end-to-end metrics; ``--trace 1`` runs a
fixed number of operations untraced, the same number of fresh operations
with per-layer timers wrapped around the public ``repro`` entry points
(``bench_trace.install``), and reports the per-layer metrics plus the
tracing overhead.  Everything runs in this one process with no worker pools;
set-up time is measured by timing fresh child processes up to the point the
first operation could start.  Host times are scaled to a reference host
speed measured by a calibration loop around each operation and probe
(:func:`calibrate`), because the shared host's own speed drifts far more
than the regressions the bounds are meant to catch.

Before the final line the benchmark prints each metric by name and unit,
the workload's figures under their descriptive names (``serve_rps``,
``dse_points_per_s``, ``plan_fleet_s``...), a fidelity ledger for
``hw-dse``, and one JSON record with provenance and ``sim_digest`` (the
sha256 of the leading operations' simulated outputs, equal across traced and
untraced runs of one seed).  The last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Child processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 7

#: Seconds the calibration loop takes on the 2-vCPU Xeon host the benchmark
#: was tuned on, in its fast phases.  Host-time metrics are scaled to this
#: reference speed (see :func:`calibrate`).
REFERENCE_CALIBRATION_S = 0.0105

#: End-to-end metrics: name -> unit (direction and bound live in BENCHMARK.json).
END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "model_err": "ratio",
}

#: Per-layer metrics from the traced run: name -> unit.
PER_LAYER = {
    "traffic.arrivals": "count", "traffic.self_s": "s",
    "route.calls": "count", "route.self_s": "s",
    "batch.takes": "count", "batch.formed": "count", "batch.fill": "ratio",
    "batch.mean_size": "requests", "batch.self_s": "s",
    "metrics.observes": "count", "metrics.observe_s": "s", "metrics.finalize_s": "s",
    "serve.loop_self_s": "s",
    "engine.calls": "count", "engine.hits": "count", "engine.misses": "count",
    "engine.self_s": "s",
    "target.builds": "count", "target.self_s": "s",
    "hw.analytic_self_s": "s",
    "memsim.gemms": "count", "memsim.tile_passes": "count",
    "memsim.tile_passes_weighted": "count", "memsim.self_s": "s",
    "memsim.us_per_pass": "us",
    "memsim.memory_bound_share": "ratio", "memsim.stall_share": "ratio",
    "queueing.calls": "count", "queueing.self_s": "s", "queueing.pred_err": "ratio",
    "plan.candidates": "count", "plan.feasible": "count", "plan.validated": "count",
    "plan.validate_yield": "ratio",
    "plan.validate_serve_s": "s", "plan.validate_pipeline_s": "s",
    "plan.validate_llm_s": "s", "pareto.self_s": "s",
    "fig11_log_err": "ratio", "fig12_log_err": "ratio",
    "trace_overhead": "ratio",
}


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""

    sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"error: cannot import repro from {SOURCE}: {error}") from None
    location = Path(repro.__file__).resolve()
    if SOURCE.resolve() not in location.parents:
        raise SystemExit(f"error: repro imported from {location}, not from {SOURCE}")
    return repro


def provenance(repro, args, workload) -> dict:
    describe = None
    if (ROOT / ".git").exists():
        try:
            completed = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                capture_output=True, text=True, timeout=30)
            describe = completed.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            describe = None
    return {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "params": workload.params(),
            "package_version": repro.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_describe": describe}


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


def calibrate() -> float:
    """Seconds a fixed interpreter-bound loop takes right now.

    The shared host's speed drifts by up to 2x over seconds to minutes, far
    more than any regression worth catching.  Every host time is therefore
    taken between two calibrations and multiplied by
    ``REFERENCE_CALIBRATION_S / mean(calibrations)``: the time the host would
    have shown at the reference speed.  The loop exercises what the
    simulator does (small objects, attribute reads, dict updates, heap
    pushes and pops) and runs with the cyclic collector paused, so the
    program's own heap cannot slow it.
    """

    import gc
    import heapq

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap, counts, total = [], {}, 0
        for index in range(12_000):
            node = _Node(index, (index * 7919) % 1000)
            heapq.heappush(heap, (node.weight, index, node))
            counts[node.weight] = counts.get(node.weight, 0) + 1
            if len(heap) > 32:
                total += heapq.heappop(heap)[2].key
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first possible
    operation (imports plus input construction), once per probe, scaled to
    the reference host speed by calibrations the probe runs around its own
    set-up (and which are not counted in it)."""

    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        fields = line.split()
        if child.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise SystemExit("error: set-up probe did not start")
        first, last = float(fields[1]), float(fields[2])
        samples.append((elapsed - first - last)
                       * REFERENCE_CALIBRATION_S / ((first + last) / 2))
    return samples


def setup_probe(args) -> int:
    """The child side of :func:`measure_setup`."""

    first = calibrate()
    import_program()
    from bench_workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    last = calibrate()
    print(f"ready {first!r} {last!r}", flush=True)
    return 0


def run_ops(workload, first: int, *, budget: float | None = None,
            count: int | None = None, tracer=None) -> list:
    """Run operations ``first, first+1, ...`` until the time budget is spent
    (at least the digest prefix) or ``count`` of them ran.  An operation that
    raises counts as one failed attempt instead of ending the run."""

    from bench_workloads import PREFIX_OPS, OpResult

    results = []
    start = perf_counter()
    index = first
    before = calibrate()
    while True:
        op_start = perf_counter()
        try:
            result = workload.run_op(index, tracer)
        except Exception as error:
            result = OpResult(seconds=perf_counter() - op_start, items=0,
                              attempted=1, failed=1,
                              record={"error": f"{type(error).__name__}: {error}"})
        after = calibrate()
        result.speed = REFERENCE_CALIBRATION_S / ((before + after) / 2)
        result.rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        before = after
        results.append(result)
        index += 1
        if count is not None:
            if len(results) >= count:
                return results
        elif perf_counter() - start >= budget and len(results) >= PREFIX_OPS:
            return results


def top_up(workload, results, count: int) -> None:
    """Run untimed operations until ``results`` holds at least ``count``."""

    if len(results) < count:
        results.extend(run_ops(workload, len(results), count=count - len(results)))


def model_error(workload, results) -> float:
    """The workload's deterministic ``model_err`` over its leading operations."""

    top_up(workload, results, workload.err_ops)
    try:
        return workload.model_err(results)
    except (KeyError, ValueError, ZeroDivisionError, statistics.StatisticsError):
        return math.nan


def untraced(workload, args) -> tuple[dict, list, dict]:
    setup = measure_setup(args)
    results = run_ops(workload, 0, budget=args.seconds)
    timed = len(results)
    good = [result for result in results if not result.failed] or list(results)
    items_per_s = statistics.median(result.rate for result in good)
    top_up(workload, results, workload.rss_ops)
    peak_rss_mib = results[workload.rss_ops - 1].rss_mib
    error = model_error(workload, results)
    metrics = {"items_per_s": items_per_s, "setup_s": statistics.median(setup),
               "peak_rss_mib": peak_rss_mib, "model_err": error}
    try:
        aliases = workload.aliases(good, error)
    except (KeyError, ValueError, AttributeError, statistics.StatisticsError):
        aliases = {}
    notes = {"timed_ops": timed, "setup_samples_s": setup}
    return metrics, results, {"aliases": aliases, "notes": notes}


def traced(workload, args) -> tuple[dict, list, dict]:
    from bench_trace import SERVE_SPANS, Tracer, install
    from bench_workloads import PREFIX_OPS, HwDse, _Planner, digest_records

    n = workload.trace_ops
    plain = run_ops(workload, 0, count=n)
    tracer = Tracer()
    install(tracer)
    try:
        observed = run_ops(workload, n, count=n, tracer=tracer)
    finally:
        tracer.restore()
    # Purity: the leading operations replayed under fresh wrappers must
    # reproduce the untraced outputs bit for bit.
    replay_tracer = Tracer()
    install(replay_tracer)
    try:
        replay = run_ops(workload, 0, count=PREFIX_OPS, tracer=replay_tracer)
    finally:
        replay_tracer.restore()
    leftovers = Tracer.leftover_wrappers()
    checks = {
        "traced_digest_equal": digest_records(replay) == digest_records(plain[:PREFIX_OPS]),
        "wrappers_restored": not leftovers,
    }

    counters = tracer.counters
    spans = tracer.seconds
    takes, formed = counters["batch.takes"], counters["batch.formed"]
    tiles = counters["memsim.tile_passes"]
    planner = isinstance(workload, _Planner)
    details = [result.detail for result in observed]
    validated = sum(detail.get("validated", 0) for detail in details)
    roofline = plain[0].detail.get("roofline") or {}
    fig11 = fig12 = 0.0
    if isinstance(workload, HwDse) and "fig11" in plain[0].detail:
        errors = HwDse.log_errors(plain[0])
        fig11, fig12 = errors["fig11"], errors["fig12"]
    plain_median = statistics.median(r.reference_seconds for r in plain)
    pred_err = model_error(workload, plain) if planner else 0.0
    metrics = {
        "traffic.arrivals": counters["traffic.arrivals"],
        "traffic.self_s": spans("traffic"),
        "route.calls": tracer.calls("route"),
        "route.self_s": spans("route"),
        "batch.takes": takes,
        "batch.formed": formed,
        "batch.fill": formed / takes if takes else 0.0,
        "batch.mean_size": counters["batch.size_sum"] / formed if formed else 0.0,
        "batch.self_s": spans("batch"),
        "metrics.observes": tracer.calls("metrics.observe"),
        "metrics.observe_s": spans("metrics.observe", "total"),
        "metrics.finalize_s": spans("metrics.finalize", "total"),
        "serve.loop_self_s": sum(spans(name) for name in SERVE_SPANS),
        "engine.calls": sum(r.engine_hits + r.engine_misses for r in observed),
        "engine.hits": sum(r.engine_hits for r in observed),
        "engine.misses": sum(r.engine_misses for r in observed),
        "engine.self_s": spans("engine"),
        "target.builds": tracer.calls("target.build"),
        "target.self_s": spans("target", "total"),
        "hw.analytic_self_s": spans("hw.analytic"),
        "memsim.gemms": tracer.calls("memsim"),
        "memsim.tile_passes": tiles,
        "memsim.tile_passes_weighted": counters["memsim.tile_passes_weighted"],
        "memsim.self_s": spans("memsim"),
        "memsim.us_per_pass": spans("memsim") / tiles * 1e6 if tiles else 0.0,
        "memsim.memory_bound_share": roofline.get("memory_bound_share", 0.0),
        "memsim.stall_share": roofline.get("stall_share", 0.0),
        "queueing.calls": tracer.calls("queueing"),
        "queueing.self_s": spans("queueing"),
        "queueing.pred_err": pred_err,
        "plan.candidates": sum(detail.get("candidates", 0) for detail in details),
        "plan.feasible": sum(detail.get("feasible", 0) for detail in details),
        "plan.validated": validated,
        "plan.validate_yield": (sum(detail.get("attained", 0) for detail in details)
                                / validated if validated else 0.0),
        "plan.validate_serve_s": tracer.validate_ns["serve"] / 1e9,
        "plan.validate_pipeline_s": tracer.validate_ns["serve_pipeline"] / 1e9,
        "plan.validate_llm_s": tracer.validate_ns["serve_llm"] / 1e9,
        "pareto.self_s": spans("pareto"),
        "fig11_log_err": fig11,
        "fig12_log_err": fig12,
        "trace_overhead": (statistics.median(r.reference_seconds for r in observed)
                           / plain_median - 1.0),
    }
    # Layer times, like the end-to-end ones, at the reference host speed.
    speed = statistics.fmean(result.speed for result in observed)
    for name, unit in PER_LAYER.items():
        if unit in ("s", "us"):
            metrics[name] *= speed
    notes = {"trace_ops": n, "leftover_wrappers": leftovers,
             "untraced_op_s": plain_median}
    return metrics, plain + observed + replay, {"checks": checks, "notes": notes}


def fidelity_ledger(workload, results) -> list[str]:
    from bench_workloads import HwDse, fidelity_rows

    if not isinstance(workload, HwDse) or "fig11" not in results[0].detail:
        return []
    lines = ["fidelity ledger: the paper's reported averages are the only "
             "reference; the model is otherwise unvalidated",
             f"{'figure':<26} {'baseline':<9} {'reproduced':>11} {'paper':>8} "
             f"{'ratio':>7}"]
    for figure, baseline, reproduced, paper in fidelity_rows(
            results[0].detail["fig11"], results[0].detail["fig12"]):
        lines.append(f"{figure:<26} {baseline:<9} {reproduced:>11.2f} "
                     f"{paper:>8.1f} {reproduced / paper:>7.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    repro = import_program()
    from bench_workloads import PREFIX_OPS, WORKLOADS, digest_records

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    run = traced if args.trace else untraced
    metrics, results, extra = run(workload, args)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    checks = extra.get("checks", {})
    finite = all(math.isfinite(value) for value in metrics.values())
    correct = failed == 0 and all(checks.values()) and finite

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"items are {workload.item}; host times at the reference host speed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, (unit, value) in extra.get("aliases", {}).items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    for line in fidelity_ledger(workload, results):
        print(line)
    print(json.dumps({
        "provenance": provenance(repro, args, workload),
        "sim_digest": digest_records(results[:PREFIX_OPS]),
        "checks": checks,
        "aliases": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in extra.get("aliases", {}).items()},
        **extra.get("notes", {}),
    }, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
