"""Tile-level memory simulator throughput: design-point simulations per second.

Not a paper artifact — the performance guard for the memsim subsystem
(``repro.hardware.memsim``).  The stall accounting is closed-form: each
unique GEMM costs the same whatever its tile count, because the pipeline's
passes are counted by shape rather than walked.  This benchmark sweeps the
sequence length (197 -> 1024 tokens) at 25 GB/s on cold caches, checks
every run still produces memory-bound layers with nonzero stalls, and
records how many full-model memsim simulations run per second.

Two tile-pass figures go with it: ``tile_passes`` counts the passes of each
unique simulated layer once (``Σ record.tiles``), and
``tile_passes_weighted`` scales them by the layer's repeat count, i.e. the
passes the modelled hardware executes.  Neither is a count of work done by
the simulator.
"""

from __future__ import annotations

import time

from repro.engine import ResultCache, RunSpec, simulate

TARGET = "vitality[dram_gbps=25]"
TOKEN_SWEEP = (197, 512, 1024)
#: Cold-cache repetitions of the sweep, so the rate is not a 3-sample figure.
ROUNDS = 10


def memsim_layer_sweep() -> dict[str, object]:
    tile_passes = 0
    tile_passes_weighted = 0
    memory_bound_layers = 0
    stall_cycles = 0
    start = time.perf_counter()
    for _ in range(ROUNDS):
        cache = ResultCache()
        results = [simulate(RunSpec(f"deit-tiny[tokens={tokens}]", target=TARGET),
                            cache=cache)
                   for tokens in TOKEN_SWEEP]
    seconds = time.perf_counter() - start
    for result in results:
        assert result.roofline, "memsim design point must emit rooflines"
        tile_passes += sum(record.tiles for record in result.roofline)
        tile_passes_weighted += sum(record.tiles * record.repeats
                                    for record in result.roofline)
        memory_bound_layers += sum(record.repeats for record in result.roofline
                                   if record.bound == "memory")
        stall_cycles += sum(record.stall_cycles * record.repeats
                            for record in result.roofline)
    simulations = ROUNDS * len(TOKEN_SWEEP)
    return {
        "tokens": list(TOKEN_SWEEP),
        "simulations": simulations,
        "tile_passes": tile_passes,
        "tile_passes_weighted": tile_passes_weighted,
        "memory_bound_layers": memory_bound_layers,
        "stall_cycles": stall_cycles,
        "seconds": seconds,
        "simulations_per_second": simulations / seconds,
    }


def test_memsim_simulations_per_second(benchmark, report, bench_json):
    rows = benchmark.pedantic(memsim_layer_sweep, rounds=1, iterations=1)
    report("Memsim — cold simulations over a DeiT-Tiny sequence-length sweep",
           rows)
    bench_json("memsim", rows["seconds"],
               tile_passes=rows["tile_passes"],
               tile_passes_weighted=rows["tile_passes_weighted"],
               simulations_per_second=rows["simulations_per_second"],
               memory_bound_layers=rows["memory_bound_layers"])
    assert rows["tile_passes"] > 0
    assert rows["tile_passes_weighted"] >= rows["tile_passes"]
    assert rows["memory_bound_layers"] > 0
    assert rows["stall_cycles"] > 0
