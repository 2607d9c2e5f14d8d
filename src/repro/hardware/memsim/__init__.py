"""Tile-level memory-hierarchy simulation under the analytic accelerators.

The cycle-level accelerator models are analytic above the lane arrays: a
GEMM's operands are assumed to arrive exactly when the systolic array wants
them, so a 128x128 array starving on DRAM looks as fast as one fed from
infinite bandwidth.  This package adds the missing fidelity step — the
``systolic_sim``-style tiled execution model — without touching the default
design points:

* :mod:`config` — :class:`MemSimConfig`: the ``dram_gbps`` / ``tile_m`` /
  ``tile_n`` / ``tile_k`` knob values plus the ibuf/wbuf/obuf word capacities
  derived from the family's ``sram_kb`` buffer budget, and the per-GEMM tile
  planner that shrinks default tiles to fit the double-buffered halves;
* :mod:`simulator` — the double-buffered load-compute-drain pipeline over
  the planned tiles, accounting every cycle as compute, load-stall or
  drain-stall in closed form over the pass shapes (:func:`simulate_tiled_gemm`);
* :mod:`roofline` — :class:`RooflineRecord`, the per-layer classification
  (compute-bound vs memory-bound, arithmetic intensity, attained vs peak
  GB/s) surfaced in :class:`~repro.engine.results.RunResult`;
* :mod:`executor` — :class:`TiledSystolicArray` (a drop-in
  :class:`~repro.hardware.core.arrays.SystolicArray` whose ``matmul`` runs
  the tile pipeline) and :class:`MemSimViTALiTyAccelerator` (the ViTALiTy
  accelerator with both systolic partitions tiled and per-layer rooflines
  collected).

The memsim path activates only when a design point sets a bandwidth or tile
knob; reference configs never construct these classes, so default results
stay bit-identical to the seed models.
"""

from repro.hardware.memsim.config import MemSimConfig, TilePlan, buffer_words
from repro.hardware.memsim.executor import MemSimViTALiTyAccelerator, TiledSystolicArray
from repro.hardware.memsim.roofline import RooflineRecord
from repro.hardware.memsim.simulator import GemmMemTrace, simulate_tiled_gemm

__all__ = [
    "GemmMemTrace",
    "MemSimConfig",
    "MemSimViTALiTyAccelerator",
    "RooflineRecord",
    "TiledSystolicArray",
    "TilePlan",
    "buffer_words",
    "simulate_tiled_gemm",
]
