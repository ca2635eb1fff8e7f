"""The benchmark tracer's entry points still exist and still bind.

``perfbench/tracer.py`` wraps the program's entry points by name for
``perfbench/run.py --trace 1`` runs, and its probes read arguments by
name. A refactor that moves, renames or re-signs one of them breaks
every traced run; these tests fail first.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from repro.experiments.grid import grid_spec
from repro.sim.cache import clear_simulation_cache
from repro.sim.pipeline import (
    KernelTiming,
    simulate_tile_stream,
    simulate_tile_stream_batch,
)

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, parts[-1])


def test_every_layer_resolves(tracer):
    assert tracer.LAYERS
    for name, module_name, attr_path in tracer.LAYERS:
        target = _resolve(module_name, attr_path)
        assert callable(target), (name, module_name, attr_path)


def _probe(tracer, name, fn):
    return tracer._PROBES[name](inspect.signature(fn))


def test_sim_probe_binds_simulate_tile_stream(tracer, hbm):
    clear_simulation_cache()
    timing = KernelTiming(bytes_per_tile=512.0, dec_cycles=32.0)
    probe = _probe(tracer, "sim.pipeline.simulate_tile_stream",
                   simulate_tile_stream)
    attrs, args, kwargs = probe((hbm, timing, 48), {})
    assert attrs["mode"] == "overlapped"
    assert (attrs["computed"], attrs["computed_tiles"]) == (1, 48)
    simulate_tile_stream(*args, **kwargs)


def test_batch_probe_binds_simulate_tile_stream_batch(tracer, hbm):
    clear_simulation_cache()
    timing = KernelTiming(bytes_per_tile=512.0, dec_cycles=32.0)
    probe = _probe(tracer, "sim.pipeline.simulate_tile_stream_batch",
                   simulate_tile_stream_batch)
    cells = iter([(hbm, timing, 48), (hbm, timing, 48)])
    attrs, args, kwargs = probe((cells,), {"use_cache": True})
    assert attrs["cells_overlapped"] == 2
    assert (attrs["computed"], attrs["computed_tiles"]) == (1, 48)
    results = simulate_tile_stream_batch(*args, **kwargs)
    assert len(results) == 2
    clear_simulation_cache()


def test_run_probe_reads_cell_count(tracer):
    spec = grid_spec(tiles=64)
    probe = _probe(tracer, "experiments.sweepspec.run", type(spec).run)
    attrs, _, _ = probe((spec,), {})
    assert attrs == {"cells": spec.cell_count}
