"""Equivalence and caching tests for the vectorized simulation core.

The vectorized engines must match the retained per-tile reference loops
*exactly* — same bits, not just close — across invocation modes, scalar
and per-tile costs, and demand-cap configurations. The cache must return
the same result object for value-equal keys and recompute when any key
component changes.
"""

import numpy as np
import pytest

from repro.sim.cache import (
    clear_simulation_cache,
    simulation_cache_stats,
    simulation_key,
)
from repro.sim.memory import MemoryChannel
from repro.sim.pipeline import (
    InvocationMode,
    KernelTiming,
    _broadcast,
    simulate_tile_stream,
    simulate_tile_stream_reference,
)
from repro.sim.system import ddr_system, hbm_system

_TRACE_FIELDS = (
    "fetch_issue", "mem_done", "dec_start", "dec_done",
    "mtx_start", "mtx_done",
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_simulation_cache()
    yield
    clear_simulation_cache()


def _assert_traces_identical(vectorized, reference):
    assert vectorized.trace is not None and reference.trace is not None
    for field in _TRACE_FIELDS:
        np.testing.assert_array_equal(
            getattr(vectorized.trace, field),
            getattr(reference.trace, field),
            err_msg=f"trace field {field} diverged from the reference loop",
        )
    assert vectorized.makespan_cycles == reference.makespan_cycles
    assert vectorized.steady_interval_cycles == reference.steady_interval_cycles


def _per_tile_arrays(tiles=240):
    rng = np.random.default_rng(42)
    nbytes = rng.uniform(40.0, 900.0, size=tiles)
    # A mix of zero-dec (pass-through) and decompressed tiles exercises
    # the subsequence chain.
    dec = np.where(rng.random(tiles) < 0.25, 0.0, rng.uniform(1.0, 90.0, tiles))
    return nbytes, dec


def _timings_for(mode):
    scalar = dict(bytes_per_tile=300.0, dec_cycles=24.0)
    nbytes, dec = _per_tile_arrays()
    per_tile = dict(bytes_per_tile=nbytes, dec_cycles=dec)
    comm = {}
    if mode is not InvocationMode.OVERLAPPED:
        comm = dict(
            invoke_cycles=20.0, fence_cycles=10.0, handoff_cycles=12.0,
            loader_latency_cycles=10.0,
        )
    for base in (scalar, per_tile):
        for cap in (None, 2.5):
            yield KernelTiming(
                mode=mode, demand_load_cap=cap,
                core_overhead_cycles=5.0, **base, **comm,
            )


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", list(InvocationMode))
    @pytest.mark.parametrize("system_factory", [hbm_system, ddr_system])
    def test_bit_identical_to_reference(self, mode, system_factory):
        system = system_factory()
        for timing in _timings_for(mode):
            vec = simulate_tile_stream(system, timing, 240, use_cache=False)
            ref = simulate_tile_stream_reference(system, timing, 240)
            _assert_traces_identical(vec, ref)

    def test_window_limited_regime_uses_exact_fallback(self, hbm):
        # Tiles so small the channel idles between fetches: the fixed
        # point propagates one prefetch window per pass, so the engine
        # must fall back to the reference loop — and still be exact.
        timing = KernelTiming(bytes_per_tile=16.0, dec_cycles=1.0)
        vec = simulate_tile_stream(hbm, timing, 600, use_cache=False)
        ref = simulate_tile_stream_reference(hbm, timing, 600)
        _assert_traces_identical(vec, ref)

    def test_tepl_no_prefetch_ahead(self, hbm):
        timing = KernelTiming(
            bytes_per_tile=120.0, dec_cycles=30.0, mode=InvocationMode.TEPL,
            invoke_cycles=2.0, handoff_cycles=12.0,
            loader_latency_cycles=10.0, prefetch_window=2, n_loaders=4,
        )
        vec = simulate_tile_stream(hbm, timing, 120, use_cache=False)
        ref = simulate_tile_stream_reference(hbm, timing, 120)
        _assert_traces_identical(vec, ref)

    def test_matches_seed_style_recurrence(self, hbm):
        # Safety net against semantic drift: an independently written
        # max/add evaluation of the OVERLAPPED recurrence (the seed's
        # arithmetic order) must agree to floating-point reassociation
        # noise.
        timing = KernelTiming(
            bytes_per_tile=300.0, dec_cycles=20.0, core_overhead_cycles=3.0,
            handoff_cycles=7.0,
        )
        tiles = 200
        result = simulate_tile_stream(hbm, timing, tiles, use_cache=False)
        nbytes = timing.tile_bytes(tiles)
        dec = timing.tile_dec_cycles(tiles)
        bpc = (
            hbm.per_core_bytes_per_cycle() * 0.93
        )
        exposed = timing.exposed_latency * hbm.memory_latency
        window = timing.prefetch_window
        dec_start = np.zeros(tiles)
        done = np.zeros(tiles)
        mem_free = dec_free = mtx_free = 0.0
        for i in range(tiles):
            issue = 0.0 if i < window else dec_start[i - window]
            start = max(issue, mem_free)
            mem_free = start + nbytes[i] / bpc
            mem_done = mem_free + exposed
            if dec[i] > 0.0:
                dec_start[i] = max(mem_done, dec_free)
                dec_free = dec_start[i] + dec[i] + timing.core_overhead_cycles
                dec_done = dec_free
            else:
                dec_start[i] = mem_done
                dec_done = mem_done
            mtx_start = max(dec_done + timing.handoff_cycles, mtx_free)
            mtx_free = mtx_start + timing.mtx_cycles
            done[i] = mtx_free
        np.testing.assert_allclose(
            result.trace.mtx_done, done, rtol=1e-9, atol=1e-6
        )
        np.testing.assert_allclose(
            result.trace.dec_start, dec_start, rtol=1e-9, atol=1e-6
        )


class TestBroadcastScalars:
    def test_numpy_scalar_types_route_to_scalar_path(self):
        for value in (3.0, np.float64(3.0), np.float32(3.0), np.array(3.0)):
            out = _broadcast(value, 5, "bytes_per_tile")
            assert out.shape == (5,)
            assert out.tolist() == [3.0] * 5

    def test_zero_dim_array_in_kernel_timing(self):
        timing = KernelTiming(
            bytes_per_tile=np.array(128.0), dec_cycles=np.float64(4.0)
        )
        assert timing.tile_bytes(8).tolist() == [128.0] * 8
        assert timing.tile_dec_cycles(8).tolist() == [4.0] * 8

    def test_empty_sequence_still_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _broadcast([], 8, "bytes_per_tile")


class TestSimulationCache:
    def test_same_key_returns_same_object(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        first = simulate_tile_stream(hbm, timing, 100)
        second = simulate_tile_stream(hbm, timing, 100)
        assert first is second
        stats = simulation_cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_value_equal_inputs_share_an_entry(self):
        # Distinct but equal system/timing objects hit the same entry.
        first = simulate_tile_stream(
            hbm_system(), KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0), 100
        )
        second = simulate_tile_stream(
            hbm_system(), KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0), 100
        )
        assert first is second

    def test_different_tiles_recomputes(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        first = simulate_tile_stream(hbm, timing, 100)
        second = simulate_tile_stream(hbm, timing, 101)
        assert first is not second
        assert simulation_cache_stats().misses == 2

    def test_per_tile_arrays_key_by_value(self, hbm):
        nbytes = np.linspace(100.0, 200.0, 64)
        t1 = KernelTiming(bytes_per_tile=nbytes.copy(), dec_cycles=8.0)
        t2 = KernelTiming(bytes_per_tile=nbytes.copy(), dec_cycles=8.0)
        assert simulation_key(hbm, t1, 64) == simulation_key(hbm, t2, 64)
        t3 = KernelTiming(bytes_per_tile=nbytes + 1.0, dec_cycles=8.0)
        assert simulation_key(hbm, t1, 64) != simulation_key(hbm, t3, 64)
        assert simulate_tile_stream(hbm, t1, 64) is simulate_tile_stream(
            hbm, t2, 64
        )
        assert simulate_tile_stream(hbm, t1, 64) is not simulate_tile_stream(
            hbm, t3, 64
        )

    def test_use_cache_false_bypasses(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        first = simulate_tile_stream(hbm, timing, 100, use_cache=False)
        second = simulate_tile_stream(hbm, timing, 100, use_cache=False)
        assert first is not second
        assert simulation_cache_stats().misses == 0

    def test_cached_results_agree_with_uncached(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        cached = simulate_tile_stream(hbm, timing, 100)
        fresh = simulate_tile_stream(hbm, timing, 100, use_cache=False)
        _assert_traces_identical(cached, fresh)

    def test_cached_trace_is_read_only(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        result = simulate_tile_stream(hbm, timing, 100)
        with pytest.raises(ValueError):
            result.trace.mtx_done[0] = -1.0

    def test_clear_resets(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        simulate_tile_stream(hbm, timing, 100)
        clear_simulation_cache()
        stats = simulation_cache_stats()
        assert stats.size == 0 and stats.hits == 0 and stats.misses == 0

    def test_dram_efficiency_perturbation_keys_its_own_entries(self, hbm):
        # The sensitivity study patches pipeline.DRAM_EFFICIENCY around
        # simulate_tile_stream calls; perturbed runs must neither reuse
        # the nominal cache entries nor pollute them.
        from repro.sim import pipeline as pipeline_module

        timing = KernelTiming(bytes_per_tile=1024.0, dec_cycles=1.0)
        nominal = simulate_tile_stream(hbm, timing, 100)
        original = pipeline_module.DRAM_EFFICIENCY
        pipeline_module.DRAM_EFFICIENCY = original * 0.8
        try:
            perturbed = simulate_tile_stream(hbm, timing, 100)
        finally:
            pipeline_module.DRAM_EFFICIENCY = original
        assert perturbed is not nominal
        assert (
            perturbed.steady_interval_cycles
            > nominal.steady_interval_cycles
        )
        # Restored constant: the nominal entry is intact, not polluted.
        assert simulate_tile_stream(hbm, timing, 100) is nominal
