"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bench_trace
import run
from bench_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed(benchmark_json):
    names = ([metric["name"] for metric in benchmark_json["end_to_end"]]
             + [metric["name"] for metric in benchmark_json["per_layer"]]
             + [workload["name"] for workload in benchmark_json["workloads"]])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    for workload in benchmark_json["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_benchmark_json_matches_the_harness(benchmark_json):
    assert benchmark_json["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in benchmark_json["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == run.PER_LAYER
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])


def _last_json(*argv: str) -> dict:
    completed = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT,
                               capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload, benchmark_json):
    result = _last_json("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json["per_layer"]}


def test_untraced_run_emits_every_end_to_end_metric(benchmark_json):
    result = _last_json("--workload", "plan-pipeline", "--seed", "3", "--seconds", "1",
                        "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in benchmark_json["end_to_end"]}
    assert all(metrics[name]["value"] > 0 for name in metrics)


def _bindings():
    """Every attribute of the patched modules and their classes, by identity."""

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(bench_trace.PATCH_MODULE_PREFIXES):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if isinstance(value, type):
                for member, inner in list(vars(value).items()):
                    seen[(name, attr, member)] = inner
    return seen


def test_wrappers_restore_every_binding():
    before = _bindings()
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    patched = [key for key, value in _bindings().items() if before.get(key) is not value]
    assert patched, "install() wrapped nothing"
    tracer.restore()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert bench_trace.Tracer.leftover_wrappers() == []


def test_wrapper_is_transparent_and_nests_self_time():
    tracer = bench_trace.Tracer()

    def inner(x):
        return x * 2

    def outer(x):
        return timed_inner(x) + 1

    def failing():
        raise ValueError("boom")

    timed_inner = tracer.timed("inner", inner)
    timed_outer = tracer.timed("outer", outer)
    assert timed_outer(20) == 41
    assert timed_outer(1) == 3
    with pytest.raises(ValueError):
        tracer.timed("failing", failing)()
    assert tracer._stack == []
    assert timed_inner.__wrapped__ is inner
    outer_stats, inner_stats = tracer.spans["outer"], tracer.spans["inner"]
    assert outer_stats.calls == 2 and inner_stats.calls == 2
    assert outer_stats.self_ns + inner_stats.total_ns == outer_stats.total_ns
    assert tracer.calls("failing") == 1


def test_timed_traffic_preserves_arrivals():
    from repro.serve import PoissonTraffic, WorkloadMix

    traffic = PoissonTraffic(rate=500.0, mix=WorkloadMix.of(["deit-tiny", "levit-128"]))
    tracer = bench_trace.Tracer()
    timed = bench_trace.TimedTraffic(traffic, tracer)
    assert timed.to_dict() == traffic.to_dict()
    assert list(timed.iter_arrivals(1.0, 5)) == traffic.arrivals(1.0, 5)
    assert timed.arrivals(1.0, 5) == traffic.arrivals(1.0, 5)
    assert tracer.counters["traffic.arrivals"] == 2 * len(traffic.arrivals(1.0, 5))
