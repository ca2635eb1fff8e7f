"""Tests for disk-tier prefetch and warm disk replays.

``repro serve --preload`` warms the in-memory LRU from the disk tier
ahead of need. The invariants: prefetch is counter-neutral (a warmed
entry later reads as an ordinary memory hit) and honors its stop seam.
A pool sweep replayed against a warm disk tier is served entirely from
it, bit-identical to the cold run.
"""

import pytest

from repro.core.schemes import parse_scheme
from repro.experiments.grid import run_grid
from repro.experiments.parallel import (
    fork_available,
    last_sweep_execution,
    shutdown_worker_pool,
)
from repro.sim.cache import (
    SimulationCache,
    clear_simulation_cache,
    configure_simulation_cache_dir,
    prefetch_simulation_keys,
    simulation_cache_stats,
)
from repro.sim.diskcache import DiskCache
from repro.sim.pipeline import DRAM_EFFICIENCY, KernelTiming, simulate_tile_stream
from repro.sim.system import hbm_system

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the worker pool needs the fork start method"
)


@pytest.fixture(autouse=True)
def _clean_cache():
    clear_simulation_cache()
    yield
    configure_simulation_cache_dir(None)
    clear_simulation_cache()


def _sim_entries(n, tiles=8):
    from repro.sim.cache import simulation_key

    system = hbm_system()
    out = []
    for i in range(n):
        timing = KernelTiming(bytes_per_tile=150.0 + i, dec_cycles=20.0)
        key = simulation_key(system, timing, tiles, DRAM_EFFICIENCY)
        out.append((key, simulate_tile_stream(system, timing, tiles, use_cache=False)))
    return out


class TestPrefetchPrimitives:
    def test_prefetch_is_counter_neutral(self, tmp_path):
        entries = _sim_entries(3)
        disk = DiskCache(tmp_path)
        for key, value in entries:
            assert disk.store(key, value)
        cache = SimulationCache(maxsize=8, disk=disk)
        for key, _value in entries:
            assert cache.prefetch(key)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)
        assert disk.stats().hits == 0
        # The warmed entries now serve as ordinary memory hits.
        for key, value in entries:
            got = cache.get_or_compute(
                key, lambda: pytest.fail("prefetched entry not resident")
            )
            assert got is not None
        assert cache.stats().hits == len(entries)
        assert disk.stats().hits == 0

    def test_prefetch_missing_key_is_silent(self, tmp_path):
        cache = SimulationCache(maxsize=8, disk=DiskCache(tmp_path))
        assert cache.prefetch(("absent", 1)) is False
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_prefetch_simulation_keys_honors_should_stop(self, tmp_path):
        entries = _sim_entries(4)
        configure_simulation_cache_dir(str(tmp_path))
        try:
            from repro.sim.cache import simulation_cache_disk

            disk = simulation_cache_disk()
            for key, value in entries:
                assert disk.store(key, value)
            clear_simulation_cache()
            calls = []

            def stop_after_two():
                calls.append(None)
                return len(calls) > 2

            warmed = prefetch_simulation_keys(
                [key for key, _ in entries], should_stop=stop_after_two
            )
            assert warmed == 2
        finally:
            configure_simulation_cache_dir(None)


class TestWarmReplay:
    def test_pool_disk_replay_bit_identical(self, tmp_path):
        configure_simulation_cache_dir(str(tmp_path))
        shutdown_worker_pool()
        grid = dict(
            systems=(hbm_system(),),
            schemes=(parse_scheme("Q8"), parse_scheme("Q4")),
            batch=False,
        )
        cold = run_grid(jobs=2, **grid)
        clear_simulation_cache()
        warm = run_grid(jobs=2, **grid)
        execution = last_sweep_execution()
        assert warm == cold
        # The replay is fully cache-served from the disk tier.
        assert execution.worker_misses == 0
        assert simulation_cache_stats().misses == 0
