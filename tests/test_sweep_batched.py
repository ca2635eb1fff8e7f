"""Routing-layer tests for cross-cell batched sweep execution.

The engine-level bit-identity of ``simulate_tile_stream_batch`` is
covered by ``test_sim_batched.py``; these tests pin the *routing*: a
serial ``SweepSpec`` carrying a :func:`batchable` annotation must
produce exactly the records, ordering, emission rows, and cache
behaviour of the per-cell path — with batching observable only through
cache counters — a spec built with ``batchable=None`` must run per
cell, and a pool sweep must dispatch one task per cell.
"""

import io
import time
from dataclasses import replace

import pytest

from repro.core.schemes import parse_scheme
from repro.errors import DeadlineExceededError
from repro.experiments.grid import grid_spec, run_grid
from repro.experiments.parallel import dispatched_task_count, fork_available
from repro.experiments.speedups import speedup_spec, sweep_speedups
from repro.experiments.sweepspec import JsonlEmitter, stream_to_emitter
from repro.sim.cache import clear_simulation_cache, simulation_cache_stats
from repro.sim.system import hbm_system


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts and ends with an empty simulation cache."""
    clear_simulation_cache()
    yield
    clear_simulation_cache()


def _per_cell(spec):
    """The same spec without its batching annotation."""
    return replace(spec, batchable=None)


def _grid_records(batched, tiles=64, jobs=1):
    clear_simulation_cache()
    spec = grid_spec(tiles=tiles)
    return (spec if batched else _per_cell(spec)).run(jobs=jobs)


class TestGridRouting:
    def test_batched_records_bit_identical(self):
        batched = _grid_records(batched=True)
        per_cell = _grid_records(batched=False)
        assert batched == per_cell
        assert len(batched) == 48

    def test_batching_seeds_the_cache(self):
        """Batched: every task lookup is a warm hit of the seeded cache."""
        _grid_records(batched=True)
        stats = simulation_cache_stats()
        assert stats.misses == 48
        assert stats.hits == 48

    def test_per_cell_path_has_no_warm_hits(self):
        _grid_records(batched=False)
        stats = simulation_cache_stats()
        assert stats.misses == 48
        assert stats.hits == 0

    def test_stream_preserves_index_order_and_coords(self):
        spec = grid_spec(tiles=64)
        coords = spec.coords()
        cells = list(spec.stream(jobs=1))
        assert [c.index for c in cells] == list(range(len(coords)))
        assert [c.coords for c in cells] == coords

    def test_uncached_cells_fall_through(self):
        """use_cache=False cells declare no sims: per-cell path, zero stats."""
        records = run_grid(tiles=64, use_cache=False)
        stats = simulation_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        clear_simulation_cache()
        spec = _per_cell(grid_spec(tiles=64, use_cache=False))
        assert records == spec.run(jobs=1)

    def test_partial_warm_cache(self):
        """Cells already resident stay out of the stack but still stream."""
        warm = _per_cell(
            grid_spec(schemes=grid_spec().axes["scheme"][:3], tiles=64)
        ).run(jobs=1)
        full = run_grid(tiles=64)
        assert full[:0] == []  # shape sanity
        clear_simulation_cache()
        assert full == _per_cell(grid_spec(tiles=64)).run(jobs=1)
        assert len(warm) == 12


class TestSpeedupRouting:
    def test_batched_speedups_bit_identical(self):
        clear_simulation_cache()
        batched = sweep_speedups(hbm_system(), tiles=64)
        clear_simulation_cache()
        per_cell = _per_cell(speedup_spec(hbm_system(), tiles=64)).run()
        assert batched == per_cell
        assert len(batched) == 12


class TestDeadline:
    def test_expired_deadline_computes_no_stack(self):
        """An expired batched stream raises before seeding the stack."""
        names = [
            f"{bits}_{density}%"
            for bits in ("Q4", "Q8", "Q16")
            for density in (50, 30, 20, 10, 5)
        ] + ["Q4", "Q8", "Q16_40%"]
        schemes = [parse_scheme(name) for name in names]
        moved = {}
        for batched in (True, False):
            clear_simulation_cache()
            spec = speedup_spec(hbm_system(), schemes=schemes, tiles=4000)
            if not batched:
                spec = _per_cell(spec)
            before = simulation_cache_stats().misses
            with pytest.raises(DeadlineExceededError):
                list(spec.stream(jobs=1, deadline=time.monotonic() - 1))
            moved[batched] = simulation_cache_stats().misses - before
        assert moved[True] <= moved[False]


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestParallelRouting:
    def test_pool_dispatches_one_task_per_cell(self):
        spec = grid_spec(tiles=64)
        clear_simulation_cache()
        serial = [(c.index, c.value) for c in spec.stream(jobs=1)]
        clear_simulation_cache()
        before = dispatched_task_count()
        pooled = [(c.index, c.value) for c in spec.stream(jobs=2)]
        assert dispatched_task_count() - before == 48
        assert pooled == serial

    def test_pool_reports_progress(self):
        spec = grid_spec(tiles=64)
        calls = []
        clear_simulation_cache()
        list(spec.stream(jobs=2,
                         progress=lambda done, total: calls.append((done, total))))
        assert calls and calls[-1] == (48, 48)
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)


class TestEmission:
    def test_emitted_rows_identical(self):
        spec = grid_spec(tiles=64)
        clear_simulation_cache()
        buf_on = io.StringIO()
        emitter = JsonlEmitter(buf_on)
        out_on = stream_to_emitter(spec, emitter, jobs=1)
        clear_simulation_cache()
        buf_off = io.StringIO()
        emitter = JsonlEmitter(buf_off)
        out_off = stream_to_emitter(_per_cell(spec), emitter, jobs=1)
        assert buf_on.getvalue() == buf_off.getvalue()
        assert out_on == out_off
        assert len(buf_on.getvalue().splitlines()) == 48
