"""Tests for the tile-level memory-hierarchy simulator (``repro.hardware.memsim``):
knob-grammar edge cases, activation gating and cache identity, stall/roofline
physics, golden pinning, JSON shapes and the bandwidth-aware DSE axis.  The
per-pass walk of the tile pipeline lives here as the oracle the closed-form
simulator is property-tested against."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ResultCache, RunSpec, get_target, simulate
from repro.engine.results import RunResult
from repro.experiments import run_experiment
from repro.experiments.dse_exps import explore_design_space, roofline_experiment
from repro.hardware import KnobError, VITALITY_SCHEMA, matmul_cycles
from repro.hardware.memsim import (
    GemmMemTrace,
    MemSimConfig,
    buffer_words,
    simulate_tiled_gemm,
)
from repro.hardware.memsim.config import TilePlan

GOLDEN_PATH = Path(__file__).parent / "data" / "memsim_golden.json"
SEED_GOLDEN_PATH = Path(__file__).parent / "data" / "seed_hardware_golden.json"


def walk_tiled_gemm(m, k, n, *, rows, columns, utilization, batch, plan,
                    dram_words_per_cycle, sram_words_per_cycle,
                    drain_words_per_cycle, stationary_dram, streamed_dram):
    """Reference oracle: the tile pipeline walked one pass at a time.

    Same contract as :func:`simulate_tiled_gemm`, which counts the pass
    shapes in closed form instead; the property tests hold the two equal.
    """

    def transfer(words, words_per_cycle):
        if words <= 0 or math.isinf(words_per_cycle):
            return 0
        return math.ceil(words / words_per_cycle)

    def chunks(total, size):
        full, rest = divmod(total, size)
        return [size] * full + ([rest] if rest else [])

    stationary_rate = dram_words_per_cycle if stationary_dram else sram_words_per_cycle
    streamed_rate = dram_words_per_cycle if streamed_dram else sram_words_per_cycle
    computes, loads, drains = [], [], []
    dram_words = sram_words = 0
    k_tiles = chunks(k, plan.tile_k)
    for _ in range(batch):
        for chunk_m in chunks(m, plan.tile_m):
            for tile_n in chunks(n, plan.tile_n):
                for index_k, tile_k in enumerate(k_tiles):
                    stationary_words = tile_k * tile_n
                    streamed_words = chunk_m * tile_k
                    output_words = (chunk_m * tile_n
                                    if index_k == len(k_tiles) - 1 else 0)
                    computes.append(math.ceil(chunk_m / utilization))
                    loads.append(transfer(stationary_words, stationary_rate)
                                 + transfer(streamed_words, streamed_rate))
                    drains.append(transfer(output_words, drain_words_per_cycle))
                    if stationary_dram:
                        dram_words += stationary_words
                    else:
                        sram_words += stationary_words
                    if streamed_dram:
                        dram_words += streamed_words
                    else:
                        sram_words += streamed_words
                    sram_words += output_words
    load_stall = loads[0] + sum(
        max(0, loads[i] - computes[i - 1]) for i in range(1, len(loads)))
    drain_stall = drains[-1] + sum(
        max(0, drains[i] - computes[i + 1]) for i in range(len(drains) - 1))
    return GemmMemTrace(
        tiles=len(computes),
        compute_cycles=rows + columns + sum(computes),
        load_stall_cycles=load_stall,
        drain_stall_cycles=drain_stall,
        dram_words=dram_words,
        sram_words=sram_words,
        macs=m * k * n * batch,
    )


DIMS = st.integers(1, 300)
ARRAY_EDGES = st.integers(1, 128)
BATCHES = st.integers(1, 4)
UTILIZATIONS = st.floats(0.01, 1.0)
FINITE_RATES = st.floats(0.05, 64.0)
RATES = st.one_of(st.just(math.inf), FINITE_RATES)

#: Tiles per dimension stay <= 8, so the oracle walks at most 2048 passes.
MAX_TILES = 8


@st.composite
def gemm_cases(draw):
    """``((m, k, n), kwargs)`` for a random tiled GEMM, residency left out."""

    shape = tuple(draw(DIMS) for _ in range(3))
    tile_m, tile_k, tile_n = (
        draw(st.integers(math.ceil(size / MAX_TILES), size)) for size in shape)
    return shape, dict(
        rows=draw(ARRAY_EDGES), columns=draw(ARRAY_EDGES),
        utilization=draw(UTILIZATIONS), batch=draw(BATCHES),
        plan=TilePlan(tile_m=tile_m, tile_k=tile_k, tile_n=tile_n),
        dram_words_per_cycle=draw(RATES), sram_words_per_cycle=draw(RATES),
        drain_words_per_cycle=draw(RATES))


#: The JSON keys every default (analytic-path) result has — and no others.
DEFAULT_RESULT_KEYS = {
    "model", "target", "attention_latency", "linear_latency",
    "end_to_end_latency", "attention_energy", "linear_energy",
    "end_to_end_energy", "energy_breakdown", "config",
}


class TestMemsimKnobs:
    def test_unknown_tile_knob_lists_valid_knobs(self):
        with pytest.raises(KnobError) as excinfo:
            VITALITY_SCHEMA.parse("tile_q=4")
        message = str(excinfo.value)
        assert "unknown knob 'tile_q'" in message
        assert "tile_m" in message and "dram_gbps" in message

    @pytest.mark.parametrize("text,fragment", [
        ("dram_gbps=0", "positive"),
        ("dram_gbps=-5", "positive"),
        ("dram_gbps=nan", "GB/s"),
        ("dram_gbps=fast", "number"),
        ("tile_m=0", "positive integer"),
        ("tile_k=-2", "positive integer"),
        ("tile_n=big", "positive integer"),
    ])
    def test_invalid_memsim_knobs_raise_actionable_errors(self, text, fragment):
        with pytest.raises(KnobError) as excinfo:
            VITALITY_SCHEMA.parse(text)
        assert fragment in str(excinfo.value)

    def test_dram_gbps_inf_is_the_reference_value(self):
        config = VITALITY_SCHEMA.parse("dram_gbps=inf")
        assert config.is_reference
        assert VITALITY_SCHEMA.render(config) == ""

    @pytest.mark.parametrize("target,fragment", [
        ("vitality[tile_k=65]", "stationary rows"),
        ("vitality[tile_n=65]", "columns"),
        ("vitality[tile_k=64,tile_n=64,sram_kb=4]", "weight-buffer half"),
        ("vitality[tile_m=10000,tile_k=64]", "input-buffer half"),
        ("vitality[tile_m=10000,tile_n=64]", "output-buffer half"),
    ])
    def test_impossible_tilings_fail_at_target_construction(self, target, fragment):
        with pytest.raises(KnobError) as excinfo:
            get_target(target)
        assert fragment in str(excinfo.value)

    def test_ideal_bandwidth_spelling_resolves_to_base_target(self):
        assert get_target("vitality[dram_gbps=inf]") is get_target("vitality")

    def test_ideal_bandwidth_spelling_shares_cache_entry(self):
        cache = ResultCache()
        simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=inf]"), cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_from_design_is_inactive_without_memsim_knobs(self):
        assert MemSimConfig.from_design(None, 200, 64, 64) is None
        design = VITALITY_SCHEMA.parse("pe=32x32,freq=1ghz")
        assert MemSimConfig.from_design(design, 200, 32, 32) is None


class TestMemsimActivation:
    def test_default_result_has_no_roofline(self):
        result = simulate(RunSpec("deit-tiny", target="vitality"),
                          cache=ResultCache())
        assert result.roofline == ()
        assert set(result.to_dict()) == DEFAULT_RESULT_KEYS
        assert set(result.to_dict(include_layers=True)) == \
            DEFAULT_RESULT_KEYS | {"layers"}

    def test_memsim_result_carries_the_roofline_block(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=25]"),
                          cache=ResultCache())
        assert result.roofline
        assert set(result.to_dict()) == DEFAULT_RESULT_KEYS | {"roofline"}
        for record in result.roofline:
            assert record.bound in ("memory", "compute")
            assert record.peak_gbps == 25.0
            assert record.attained_gbps <= record.peak_gbps * 1.001

    def test_low_bandwidth_is_memory_bound_with_nonzero_stalls(self):
        cache = ResultCache()
        base = simulate(RunSpec("deit-tiny", target="vitality"), cache=cache)
        starved = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=8]"),
                           cache=cache)
        memory_bound = [record for record in starved.roofline
                        if record.bound == "memory"]
        assert memory_bound
        assert all(record.stall_cycles > 0 for record in memory_bound)
        assert starved.end_to_end_latency > base.end_to_end_latency

    def test_high_bandwidth_is_compute_bound(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=100]"),
                          cache=ResultCache())
        assert all(record.bound == "compute" for record in result.roofline)

    def test_round_trip_preserves_the_roofline(self):
        result = simulate(RunSpec("deit-tiny", target="vitality[dram_gbps=25]"),
                          cache=ResultCache())
        payload = json.loads(json.dumps(result.to_dict(include_layers=True)))
        assert RunResult.from_dict(payload) == result


class TestMemsimGolden:
    """The memsim outputs for two reference design points are pinned exactly,
    and activating the subsystem must not move any seed experiment."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("target", [
        "vitality[dram_gbps=25]",
        "vitality[pe=128x128,dram_gbps=25]",
    ])
    def test_design_point_matches_golden_bit_identically(self, golden, target):
        result = simulate(RunSpec("deit-tiny", target=target), cache=ResultCache())
        assert json.loads(json.dumps(result.to_dict())) == golden[target]

    @pytest.fixture(scope="class")
    def seed_golden(self):
        return json.loads(SEED_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("experiment", ["fig11", "fig12", "tab5", "salo",
                                            "table2"])
    def test_seed_experiments_stay_bit_identical(self, seed_golden, experiment):
        current = run_experiment("tab2" if experiment == "table2" else experiment)
        assert json.loads(json.dumps(current)) == seed_golden[experiment]


class TestTilePipeline:
    def _config(self, dram_gbps=math.inf, sram_kb=200):
        words = buffer_words(sram_kb)
        return MemSimConfig(dram_gbps=dram_gbps, tile_m=None, tile_k=None,
                            tile_n=None, ibuf_words=words, wbuf_words=words,
                            obuf_words=words)

    def test_buffer_words_reference_budget(self):
        # 200 KB / 4 operand buffers / 2 bytes per word = 25600 words each.
        assert buffer_words(200) == 25600

    def test_plan_respects_array_and_buffer_capacities(self):
        config = self._config(sram_kb=4)
        plan = config.plan(197, 192, 576, rows=64, columns=64)
        half = max(1, config.wbuf_words // 2)
        assert plan.tile_k <= 64 and plan.tile_n <= 64
        assert plan.tile_k * plan.tile_n <= half
        assert plan.tile_m * plan.tile_k <= max(1, config.ibuf_words // 2)
        assert plan.tile_m * plan.tile_n <= max(1, config.obuf_words // 2)

    @settings(max_examples=150, deadline=None)
    @given(case=gemm_cases(), residency=st.tuples(st.booleans(), st.booleans()))
    def test_closed_form_matches_per_pass_oracle(self, case, residency):
        shape, kwargs = case
        kwargs.update(stationary_dram=residency[0], streamed_dram=residency[1])
        assert simulate_tiled_gemm(*shape, **kwargs) == \
            walk_tiled_gemm(*shape, **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(m=DIMS, k=DIMS, n=DIMS, rows=ARRAY_EDGES, columns=ARRAY_EDGES,
           utilization=UTILIZATIONS, batch=BATCHES,
           extra_m=st.integers(0, 64))
    def test_infinite_bandwidth_single_chunk_matches_analytic_cycles(
            self, m, k, n, rows, columns, utilization, batch, extra_m):
        trace = simulate_tiled_gemm(
            m, k, n, rows=rows, columns=columns, utilization=utilization,
            batch=batch,
            plan=TilePlan(tile_m=m + extra_m, tile_k=min(k, rows),
                          tile_n=min(n, columns)),
            dram_words_per_cycle=math.inf, sram_words_per_cycle=math.inf,
            drain_words_per_cycle=math.inf, stationary_dram=True,
            streamed_dram=True)
        assert trace.cycles == matmul_cycles(m, k, n, rows=rows,
                                             columns=columns,
                                             utilization=utilization,
                                             batch=batch)
        assert trace.load_stall_cycles == 0
        assert trace.drain_stall_cycles == 0

    @settings(max_examples=40, deadline=None)
    @given(case=gemm_cases(), residency=st.tuples(st.booleans(), st.booleans()))
    def test_stall_decomposition_is_exact(self, case, residency):
        (m, k, n), kwargs = case
        kwargs.update(stationary_dram=residency[0], streamed_dram=residency[1])
        trace = simulate_tiled_gemm(m, k, n, **kwargs)
        plan, batch = kwargs["plan"], kwargs["batch"]
        m_chunks = math.ceil(m / plan.tile_m)
        n_tiles = math.ceil(n / plan.tile_n)
        assert trace.tiles == batch * m_chunks * n_tiles * math.ceil(k / plan.tile_k)
        assert trace.dram_words + trace.sram_words == batch * (
            m_chunks * k * n + m * k * n_tiles + m * n)
        assert trace.cycles == (trace.compute_cycles
                                + trace.load_stall_cycles
                                + trace.drain_stall_cycles)
        # Nothing overlaps the first load or the last drain, so any finite
        # port rate shows up as a stall.
        rate = {True: kwargs["dram_words_per_cycle"],
                False: kwargs["sram_words_per_cycle"]}
        if not all(math.isinf(rate[from_dram]) for from_dram in residency):
            assert trace.load_stall_cycles > 0
        if not math.isinf(kwargs["drain_words_per_cycle"]):
            assert trace.drain_stall_cycles > 0

    @settings(max_examples=40, deadline=None)
    @given(case=gemm_cases(), residency=st.tuples(st.booleans(), st.booleans()),
           slow=FINITE_RATES, speedup=st.floats(1.0, 16.0))
    def test_less_bandwidth_never_runs_faster(self, case, residency, slow,
                                              speedup):
        shape, kwargs = case
        kwargs.update(stationary_dram=residency[0], streamed_dram=residency[1])

        def cycles(words_per_cycle):
            kwargs["dram_words_per_cycle"] = words_per_cycle
            return simulate_tiled_gemm(*shape, **kwargs).cycles
        assert cycles(slow) >= cycles(slow * speedup) >= cycles(math.inf)


class TestBandwidthAwareDSE:
    def test_dram_axis_adds_roofline_annotations(self):
        payload = explore_design_space(pe=("64x64",), freq=("500mhz",),
                                       sram_kb=(200,), dram_gbps=(25.0,),
                                       cache=ResultCache())
        assert payload["evaluated"] == 1
        assert payload["space"]["dram_gbps"] == [25.0]
        point = payload["points"][0]
        assert point["dram_gbps"] == 25.0
        assert point["memory_bound_layers"] > 0

    def test_without_dram_axis_the_point_schema_is_unchanged(self):
        payload = explore_design_space(pe=("64x64",), freq=("500mhz",),
                                       sram_kb=(200,), cache=ResultCache())
        assert "dram_gbps" not in payload["space"]
        assert set(payload["points"][0]) == {
            "target", "config", "latency_ms", "energy_mj", "area_mm2",
            "peak_gmacs", "pareto"}

    def test_roofline_demotes_the_bandwidth_starved_big_array(self):
        payload = roofline_experiment(pe=("64x64", "128x128"),
                                      dram_gbps=(25.0, 100.0),
                                      cache=ResultCache())
        by_target = {point["target"]: point for point in payload["points"]}
        starved_big = by_target["vitality[dram_gbps=25.0,pe=128x128]"]
        balanced = by_target["vitality[dram_gbps=100.0]"]
        assert not starved_big["pareto"]
        assert balanced["pareto"]
        assert starved_big["memory_bound_layers"] > 0
        demoted = {entry["demoted"]: entry for entry in payload["demotions"]}
        entry = demoted["vitality[dram_gbps=25.0,pe=128x128]"]
        assert entry["demoted_by"] == "vitality[dram_gbps=100.0]"
        assert entry["latency_ratio"] > 1.0

    def test_registered_as_experiment(self):
        payload = run_experiment("roofline", pe=("64x64",), dram_gbps=(25.0,),
                                 cache=ResultCache())
        assert payload["evaluated"] == 1
        assert payload["points"][0]["memory_bound_layers"] > 0
