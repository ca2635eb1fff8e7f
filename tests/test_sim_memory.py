"""Tests for the memory-system models."""

import pytest

from repro.errors import SimulationError
from repro.sim.memory import MemoryChannel


class TestMemoryChannel:
    def test_service_time(self):
        channel = MemoryChannel(bytes_per_cycle=4.0, latency_cycles=100.0)
        done = channel.request(0.0, 400.0, exposed_latency=0.0)
        assert done == pytest.approx(100.0)

    def test_exposed_latency_added(self):
        channel = MemoryChannel(4.0, 100.0)
        done = channel.request(0.0, 400.0, exposed_latency=0.5)
        assert done == pytest.approx(150.0)

    def test_back_to_back_requests_queue(self):
        channel = MemoryChannel(4.0, 0.0)
        first = channel.request(0.0, 400.0)
        second = channel.request(0.0, 400.0)
        assert second == pytest.approx(first + 100.0)

    def test_idle_gap_not_counted_busy(self):
        channel = MemoryChannel(4.0, 0.0)
        channel.request(0.0, 40.0)
        channel.request(1000.0, 40.0)
        assert channel.busy_cycles == pytest.approx(20.0)

    def test_utilization(self):
        channel = MemoryChannel(4.0, 0.0)
        channel.request(0.0, 400.0)
        assert channel.utilization(200.0) == pytest.approx(0.5)

    def test_reset(self):
        channel = MemoryChannel(4.0, 0.0)
        channel.request(0.0, 400.0)
        channel.reset()
        assert channel.busy_cycles == 0.0
        assert channel.request(0.0, 4.0) == pytest.approx(1.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            MemoryChannel(0.0, 10.0)

    def test_invalid_exposure(self):
        channel = MemoryChannel(4.0, 10.0)
        with pytest.raises(SimulationError):
            channel.request(0.0, 4.0, exposed_latency=1.5)
