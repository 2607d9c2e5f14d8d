"""The double-buffered tile pipeline: compute vs load-stall vs drain-stall.

One GEMM ``O (M x N) = A (M x K) @ B (K x N)`` is executed as a sequence of
tile passes ordered ``batch -> m-chunk -> n-tile -> k-tile`` (output
stationary: the partial sums for one ``(m-chunk, n-tile)`` output tile
accumulate in the obuf across the inner k loop and drain once, after the
last k-tile).  Each pass streams ``chunk_m`` activation rows through one
``tile_k x tile_n`` stationary tile, exactly like the analytic
:func:`~repro.hardware.core.arrays.matmul_cycles` model — at infinite
bandwidth and single-chunk ``M`` the tiled cycle count collapses to the
analytic one.

Double buffering overlaps the memory system with compute: while pass ``i``
computes, the operands of pass ``i+1`` load into the spare buffer halves and
the output drained by pass ``i-1`` writes back.  Loads and drains use
independent ports, so each is compared against the compute window on its
own:

* ``load_stall``   — the first pass's full load (nothing to overlap with)
  plus every later pass's load cycles in excess of the previous pass's
  compute cycles;
* ``drain_stall``  — the last pass's full drain plus every earlier drain's
  cycles in excess of the next pass's compute cycles.

The stall sums are counted in closed form rather than by walking the
passes.  Every dimension splits into at most two *shape classes* — full
tiles and one edge tile — each with a count, so a GEMM has at most
``2 x 2 x 2`` distinct pass shapes.  A pass computes for ``ceil(chunk_m /
utilization)`` cycles, which depends only on its m-chunk, so inside a chunk
every pass but the first loads against its own chunk's compute, and every
last-k pass but the chunk's last drains against it: one term per
``(n-tile, k-tile)`` shape, weighted by its count.  The remaining passes sit
at *chunk boundaries*: a chunk's first load and its predecessor's final
drain overlap the neighbouring chunk's compute.  Consecutive chunks form
boundary pairs — full→full, full→edge within a batch and last→first across
batches — which are likewise counted by multiplicity, never walked.  The
cost of one call is therefore independent of the number of tile passes.

The per-pass walk is kept as the reference oracle in
``tests/test_memsim.py``; property tests hold the closed form equal to it on
random shapes, tilings, utilizations, bandwidths and operand residencies.

Stalled cycles are idle (clock-gated): the energy model charges the array
for compute cycles only, and the memory-access energies stay with the
accelerator's existing traffic accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.memsim.config import TilePlan


@dataclass
class GemmMemTrace:
    """Cycle and traffic accounting for one tiled GEMM."""

    tiles: int                 # tile passes executed
    compute_cycles: int        # active cycles (streaming + array fill)
    load_stall_cycles: int
    drain_stall_cycles: int
    dram_words: int            # words moved across the DRAM interface
    sram_words: int            # words moved between buffers and the array
    macs: int

    @property
    def cycles(self) -> int:
        return self.compute_cycles + self.load_stall_cycles + self.drain_stall_cycles

    def add(self, other: "GemmMemTrace") -> "GemmMemTrace":
        return GemmMemTrace(
            tiles=self.tiles + other.tiles,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            load_stall_cycles=self.load_stall_cycles + other.load_stall_cycles,
            drain_stall_cycles=self.drain_stall_cycles + other.drain_stall_cycles,
            dram_words=self.dram_words + other.dram_words,
            sram_words=self.sram_words + other.sram_words,
            macs=self.macs + other.macs,
        )


def _transfer_cycles(words: int, words_per_cycle: float) -> int:
    if words <= 0 or math.isinf(words_per_cycle):
        return 0
    return math.ceil(words / words_per_cycle)


def _shapes(total: int, size: int) -> list[tuple[int, int]]:
    """``(tile size, count)`` classes: the full tiles, then the edge tile."""

    full, rest = divmod(total, size)
    shapes = [(size, full)] if full else []
    if rest:
        shapes.append((rest, 1))
    return shapes


def _boundary_pairs(m_shapes: list[tuple[int, int]],
                    batch: int) -> list[tuple[int, int, int]]:
    """``(previous chunk, next chunk, count)`` for every chunk-to-chunk step."""

    pairs = [(size, size, count - 1) for size, count in m_shapes if count > 1]
    pairs += [(before, after, 1)
              for (before, _), (after, _) in zip(m_shapes, m_shapes[1:])]
    pairs = [(before, after, count * batch) for before, after, count in pairs]
    if batch > 1:
        pairs.append((m_shapes[-1][0], m_shapes[0][0], batch - 1))
    return pairs


def simulate_tiled_gemm(m: int, k: int, n: int, *,
                        rows: int, columns: int, utilization: float,
                        batch: int, plan: TilePlan,
                        dram_words_per_cycle: float,
                        sram_words_per_cycle: float,
                        drain_words_per_cycle: float,
                        stationary_dram: bool,
                        streamed_dram: bool) -> GemmMemTrace:
    """Run ``batch`` tiled ``(m x k) @ (k x n)`` products through the pipeline.

    ``stationary_dram`` / ``streamed_dram`` say which interface feeds each
    operand (chosen by the caller from operand-residency checks); drained
    outputs always write back to SRAM.
    """

    stationary_rate = dram_words_per_cycle if stationary_dram else sram_words_per_cycle
    streamed_rate = dram_words_per_cycle if streamed_dram else sram_words_per_cycle

    m_shapes = _shapes(m, plan.tile_m)
    k_shapes = _shapes(k, plan.tile_k)
    n_shapes = _shapes(n, plan.tile_n)
    m_chunks = -(-m // plan.tile_m)
    k_tiles = -(-k // plan.tile_k)
    n_tiles = -(-n // plan.tile_n)
    first_k, last_n = k_shapes[0][0], n_shapes[-1][0]
    # Stationary-tile load cycles per (k-tile, n-tile) shape, in pass order:
    # the first entry is the shape every chunk starts with.
    stationary = [(tile_k, k_count * n_count,
                   _transfer_cycles(tile_k * tile_n, stationary_rate))
                  for tile_k, k_count in k_shapes for tile_n, n_count in n_shapes]

    # Per chunk size: its compute window, its first pass's load and its
    # last pass's drain — the three figures a chunk boundary compares.
    computes: dict[int, int] = {}
    first_loads: dict[int, int] = {}
    last_drains: dict[int, int] = {}
    compute_sum = load_stall = drain_stall = 0
    for chunk_m, chunks in m_shapes:
        window = math.ceil(chunk_m / utilization)
        streamed = {tile_k: _transfer_cycles(chunk_m * tile_k, streamed_rate)
                    for tile_k, _ in k_shapes}
        first_load = stationary[0][2] + streamed[first_k]
        last_drain = _transfer_cycles(chunk_m * last_n, drain_words_per_cycle)
        computes[chunk_m] = window
        first_loads[chunk_m] = first_load
        last_drains[chunk_m] = last_drain
        compute_sum += chunks * window
        # Inside a chunk every pass but the first loads under the previous
        # pass's compute, and every last-k drain but the chunk's last drains
        # under the next pass's compute — both windows of this chunk's size.
        inside_load = sum(count * max(0, load + streamed[tile_k] - window)
                          for tile_k, count, load in stationary)
        inside_load -= max(0, first_load - window)
        inside_drain = sum(
            n_count * max(0, _transfer_cycles(chunk_m * tile_n,
                                              drain_words_per_cycle) - window)
            for tile_n, n_count in n_shapes)
        inside_drain -= max(0, last_drain - window)
        load_stall += batch * chunks * inside_load
        drain_stall += batch * chunks * inside_drain
    # At a boundary the next chunk's first load hides under the previous
    # chunk's last compute, and the previous chunk's last drain under the
    # next chunk's first compute.
    for before, after, count in _boundary_pairs(m_shapes, batch):
        load_stall += count * max(0, first_loads[after] - computes[before])
        drain_stall += count * max(0, last_drains[before] - computes[after])
    # Nothing overlaps the very first load or the very last drain.
    load_stall += first_loads[m_shapes[0][0]]
    drain_stall += last_drains[m_shapes[-1][0]]

    stationary_words = batch * m_chunks * k * n
    streamed_words = batch * m * k * n_tiles
    output_words = batch * m * n
    dram_words = ((stationary_words if stationary_dram else 0)
                  + (streamed_words if streamed_dram else 0))
    sram_words = stationary_words + streamed_words + output_words - dram_words
    return GemmMemTrace(
        tiles=batch * m_chunks * n_tiles * k_tiles,
        # Array fill once per batched GEMM, as in the analytic model.
        compute_cycles=rows + columns + batch * n_tiles * k_tiles * compute_sum,
        load_stall_cycles=load_stall,
        drain_stall_cycles=drain_stall,
        dram_words=dram_words,
        sram_words=sram_words,
        macs=m * k * n * batch,
    )
