"""Equivalence tests for the window-blocked multi-core event engine.

The blocked engine (:func:`repro.sim.pipeline.simulate_multicore_event`)
must match the retained per-wave reference loop
(:func:`repro.sim.pipeline.simulate_multicore_event_reference`)
*exactly* — same bits, not just close — across window sizes, core
counts, demand-cap settings, and dec-cycle patterns. Also covers the
``WaveBlockScan`` partition-independence property the equivalence rides
on, and the degenerate-config guards of the result builder.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.memory import MemoryChannel
from repro.sim.pipeline import (
    InvocationMode,
    KernelTiming,
    _multicore_blocked_matrices,
    _multicore_reference_matrices,
    simulate_multicore_event,
    simulate_multicore_event_reference,
)
from repro.sim.system import ddr_system, hbm_system

_MATRIX_NAMES = ("mem_done", "dec_start", "dec_done", "done")


def _assert_engines_bit_identical(system, timing, tiles, cores):
    blocked = _multicore_blocked_matrices(system, timing, tiles, cores, full=True)
    reference = _multicore_reference_matrices(
        system, timing, tiles, cores, full=True
    )
    for got, want, name in zip(blocked[3:], reference[3:], _MATRIX_NAMES):
        np.testing.assert_array_equal(
            got, want,
            err_msg=(
                f"{name} diverged from the per-wave reference "
                f"(tiles={tiles}, cores={cores}, "
                f"window={timing.prefetch_window})"
            ),
        )
    fast = simulate_multicore_event(system, timing, tiles, cores)
    slow = simulate_multicore_event_reference(system, timing, tiles, cores)
    assert fast.makespan_cycles == slow.makespan_cycles
    assert fast.steady_interval_cycles == slow.steady_interval_cycles
    assert fast.utilization == slow.utilization


class TestBlockedEquivalence:
    #: Window sizes: degenerate (1), prime not dividing the tile count,
    #: the default, a window larger than the whole stream.
    @pytest.mark.parametrize("window", [1, 7, 8, 256])
    @pytest.mark.parametrize("cores", [1, 3, 56])
    def test_windows_and_core_counts(self, hbm, window, cores):
        timing = KernelTiming(
            bytes_per_tile=300.0, dec_cycles=20.0,
            prefetch_window=window, core_overhead_cycles=5.0,
        )
        _assert_engines_bit_identical(hbm, timing, 60, cores)

    @pytest.mark.parametrize("cap", [None, 2.5])
    @pytest.mark.parametrize("system_factory", [hbm_system, ddr_system])
    def test_demand_load_cap(self, system_factory, cap):
        timing = KernelTiming(
            bytes_per_tile=300.0, dec_cycles=20.0, demand_load_cap=cap,
        )
        _assert_engines_bit_identical(system_factory(), timing, 50, 8)

    def test_zero_dec_fast_path(self, hbm):
        # dec_cycles == 0 everywhere: tiles pass straight from memory to
        # the TMUL chain (the BF16 baseline shape).
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=0.0)
        _assert_engines_bit_identical(hbm, timing, 50, 8)

    def test_mixed_dec_subsequence(self, hbm, rng):
        # A mix of zero-dec and decompressed waves exercises the
        # subsequence chain through partial blocks.
        tiles = 75
        nbytes = rng.uniform(40.0, 900.0, size=tiles)
        dec = np.where(
            rng.random(tiles) < 0.3, 0.0, rng.uniform(1.0, 90.0, tiles)
        )
        timing = KernelTiming(
            bytes_per_tile=nbytes, dec_cycles=dec,
            prefetch_window=7, core_overhead_cycles=5.0,
        )
        _assert_engines_bit_identical(hbm, timing, tiles, 5)

    def test_unsorted_issue_rows_take_the_permutation_path(self, hbm, rng):
        # Per-tile byte/dec variation makes cores diverge enough that
        # some wave's issue row is out of order, covering the
        # argsort/put_along_axis branch.
        tiles = 64
        timing = KernelTiming(
            bytes_per_tile=rng.uniform(10.0, 2000.0, size=tiles),
            dec_cycles=rng.uniform(0.5, 200.0, size=tiles),
            prefetch_window=4,
        )
        _assert_engines_bit_identical(hbm, timing, tiles, 7)


class TestDegenerateConfigs:
    def test_single_wave_rejected(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        with pytest.raises(ConfigurationError):
            simulate_multicore_event(hbm, timing, tiles_per_core=1)
        with pytest.raises(ConfigurationError):
            simulate_multicore_event_reference(hbm, timing, tiles_per_core=1)

    def test_two_waves_produce_finite_utilization(self, hbm):
        # Two waves used to divide by a zero steady window; now the
        # report is finite and in range.
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        result = simulate_multicore_event(hbm, timing, tiles_per_core=2)
        for value in (
            result.utilization.memory,
            result.utilization.matrix,
            result.utilization.decompress,
        ):
            assert np.isfinite(value)
            assert 0.0 <= value <= 1.0
        assert result.steady_interval_cycles > 0.0

    def test_zero_cores_rejected(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        with pytest.raises(ConfigurationError):
            simulate_multicore_event(hbm, timing, 40, cores=0)

    def test_non_overlapped_modes_still_rejected(self, hbm):
        timing = KernelTiming(
            bytes_per_tile=300.0, dec_cycles=20.0,
            mode=InvocationMode.TEPL,
        )
        with pytest.raises(ConfigurationError):
            simulate_multicore_event(hbm, timing, 40)
        with pytest.raises(ConfigurationError):
            simulate_multicore_event_reference(hbm, timing, 40)


class TestWaveBlockScan:
    def _streams(self, rng, waves=30, lanes=5):
        nbytes = rng.uniform(10.0, 900.0, size=waves)
        issue = rng.uniform(0.0, 50.0, size=(waves, lanes))
        issue.sort(axis=1)
        np.maximum.accumulate(issue, axis=0, out=issue)
        return nbytes, issue

    @pytest.mark.parametrize("block", [1, 3, 7, 30])
    def test_partition_independent_bits(self, rng, block):
        # Draining one wave at a time and draining whole blocks must
        # produce bit-identical completion times — the property the
        # engine equivalence rides on.
        nbytes, issue = self._streams(rng)
        whole = MemoryChannel(3.7, 220.0).wave_scan(nbytes, 5, 0.08)
        expected = whole.drain(issue)
        scan = MemoryChannel(3.7, 220.0).wave_scan(nbytes, 5, 0.08)
        got = np.vstack([
            scan.drain(issue[lo:lo + block])
            for lo in range(0, len(nbytes), block)
        ])
        np.testing.assert_array_equal(got, expected)

    def test_matches_sequential_requests_closely(self, rng):
        # Same FIFO recurrence in a different relative coordinate
        # system: equal up to reassociation rounding.
        nbytes, issue = self._streams(rng, waves=20, lanes=3)
        scan_channel = MemoryChannel(2.9, 180.0)
        scan = scan_channel.wave_scan(nbytes, 3, 0.25)
        got = scan.drain(issue)
        scalar = MemoryChannel(2.9, 180.0)
        want = np.array([
            [scalar.request(t, nbytes[w], 0.25) for t in issue[w]]
            for w in range(len(nbytes))
        ])
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert scan_channel.busy_cycles == pytest.approx(
            scalar.busy_cycles, rel=1e-12
        )

    def test_uniform_stream_matches_general_path(self):
        # The uniform-service fast path (exact multiples) must agree
        # with itself wave-by-wave; the general path with equal values
        # routes through the same branch, so force the general one by
        # perturbing a single wave.
        uniform = MemoryChannel(2.0, 50.0).wave_scan(np.full(8, 64.0), 4)
        nearly = np.full(8, 64.0)
        nearly[3] = 64.0000001
        general = MemoryChannel(2.0, 50.0).wave_scan(nearly, 4)
        issue = np.zeros((8, 4))
        np.testing.assert_allclose(
            uniform.drain(issue), general.drain(issue), rtol=1e-9
        )

    def test_validation(self):
        channel = MemoryChannel(1.0, 10.0)
        with pytest.raises(SimulationError):
            channel.wave_scan(np.array([1.0, -2.0]), 4)
        with pytest.raises(SimulationError):
            channel.wave_scan(np.ones(4), 0)
        with pytest.raises(SimulationError):
            channel.wave_scan(np.ones(4), 2, exposed_latency=1.5)
        scan = channel.wave_scan(np.ones(4), 2)
        with pytest.raises(SimulationError):
            scan.drain(np.zeros((1, 3)))  # wrong lane count
        assert scan.waves_remaining == 4
        scan.drain(np.zeros((4, 2)))
        assert scan.waves_remaining == 0
        with pytest.raises(SimulationError):
            scan.drain(np.zeros((1, 2)))  # past the end of the stream

    def test_continues_after_prior_channel_traffic(self):
        # A scan opened on a busy channel inherits its free time.
        channel = MemoryChannel(1.0, 0.0)
        channel.request(0.0, 10.0)
        scan = channel.wave_scan(np.array([5.0, 5.0]), 1)
        served = scan.drain(np.zeros((2, 1)))
        assert served[0, 0] == pytest.approx(15.0)
        assert served[1, 0] == pytest.approx(20.0)

    def test_interleaved_channel_traffic_rejected(self):
        # The scan's precomputed cumsum assumes exclusive channel use:
        # foreign requests between drains must error, not silently
        # mis-time both streams.
        channel = MemoryChannel(1.0, 0.0)
        scan = channel.wave_scan(np.array([5.0, 5.0]), 1)
        scan.drain(np.zeros((1, 1)))
        channel.request(0.0, 10.0)
        with pytest.raises(SimulationError):
            scan.drain(np.zeros((1, 1)))
