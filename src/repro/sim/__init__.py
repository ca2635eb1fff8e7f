"""Discrete simulation substrate for compressed-GeMM execution.

The paper evaluates DECA on an internal Sniper-based cycle-level simulator.
This package substitutes a tile-granularity model that captures the same
first-order phenomena:

* a shared-bandwidth memory system with latency and prefetch hiding,
* per-core decompression engines (AVX units or a DECA PE),
* the per-core TMUL occupancy,
* and the three core<->DECA invocation disciplines (overlapped software,
  store+fence serialization, and TEPL with a two-loader structural hazard).

``simulate_tile_stream`` runs the per-core recurrence (all cores are
symmetric, so one core with a 1/cores bandwidth share is exact in steady
state) as vectorized max-plus scans, memoized through ``repro.sim.cache``;
``simulate_multicore_event`` is an exact event-driven multi-core
cross-check used by the test suite.
"""

from repro.sim.system import (
    SimSystem,
    ddr_system,
    hbm_system,
)
from repro.sim.cache import (
    CacheMergeStats,
    CacheStats,
    clear_simulation_cache,
    configure_simulation_cache_dir,
    export_simulation_cache,
    merge_simulation_cache,
    simulation_cache_dir,
    simulation_cache_stats,
)
from repro.sim.diskcache import DiskCache, DiskCacheStats, open_disk_cache
from repro.sim.memory import MemoryChannel, WaveBlockScan
from repro.sim.noc import MeshNoc, spr_mesh
from repro.sim.engine import EventEngine
from repro.sim.pipeline import (
    InvocationMode,
    KernelTiming,
    PipelineTrace,
    SimResult,
    simulate_multicore_event,
    simulate_multicore_event_reference,
    simulate_tile_stream,
    simulate_tile_stream_reference,
)
from repro.sim.stats import UtilizationReport
from repro.sim.trace import render_gantt, stage_latency_summary

__all__ = [
    "SimSystem",
    "ddr_system",
    "hbm_system",
    "CacheMergeStats",
    "CacheStats",
    "clear_simulation_cache",
    "configure_simulation_cache_dir",
    "export_simulation_cache",
    "merge_simulation_cache",
    "simulation_cache_dir",
    "simulation_cache_stats",
    "DiskCache",
    "DiskCacheStats",
    "open_disk_cache",
    "MemoryChannel",
    "WaveBlockScan",
    "MeshNoc",
    "spr_mesh",
    "EventEngine",
    "InvocationMode",
    "KernelTiming",
    "PipelineTrace",
    "SimResult",
    "simulate_multicore_event",
    "simulate_multicore_event_reference",
    "simulate_tile_stream",
    "simulate_tile_stream_reference",
    "UtilizationReport",
    "render_gantt",
    "stage_latency_summary",
]
