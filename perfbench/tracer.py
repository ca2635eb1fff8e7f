"""Span recorder and layer wrappers for traced benchmark runs.

``install(path)`` runs inside a program process (the CLI, the serve
daemon or a sweep pass) before the program starts. It imports each
layer's module, replaces the layer's public entry point with a wrapper
that records one span per call, and rebinds every name that an already
imported ``repro`` module took with ``from ... import``. Modules
imported later pick the wrapper up from the patched module.

A span is ``(id, name, start_ns, end_ns, parent_id, attrs)``. The time
a wrapper spends probing arguments before the call is kept out of the
span and reported as ``attrs["probe_ns"]``, so it can be kept out of the
parent's self time too. Spans
stay in memory and are written as JSON lines when the process ends
(``dump``). Forked pool workers cannot be relied on to run exit hooks,
so a forked child appends its spans to ``<path>.<pid>`` each time its
outermost span closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Optional

#: (layer name, module, attribute path) of every wrapped entry point.
LAYERS = (
    ("core.bord.region_fractions", "repro.core.bord", "Bord.region_fractions"),
    ("core.bubbles.deca_vops_per_tile", "repro.core.bubbles",
     "deca_vops_per_tile"),
    ("core.dse.explore_deca_designs", "repro.core.dse",
     "explore_deca_designs"),
    ("deca.deca_kernel_timing", "repro.deca.integration",
     "deca_kernel_timing"),
    ("kernels.software_kernel_timing", "repro.kernels.libxsmm",
     "software_kernel_timing"),
    ("llm.next_token_latency", "repro.llm.inference", "next_token_latency"),
    ("report.render", "repro.experiments.report", "Table.render"),
    ("sim.pipeline.simulate_tile_stream", "repro.sim.pipeline",
     "simulate_tile_stream"),
    ("sim.pipeline.simulate_tile_stream_batch", "repro.sim.pipeline",
     "simulate_tile_stream_batch"),
    ("sim.diskcache.attach", "repro.sim.cache",
     "configure_simulation_cache_dir"),
    ("sim.diskcache.load", "repro.sim.diskcache", "DiskCache.load"),
    ("sim.diskcache.store", "repro.sim.diskcache", "DiskCache.store"),
    ("sim.diskcache.store", "repro.sim.diskcache", "DiskCache.store_batch"),
    ("experiments.sweepspec.run", "repro.experiments.sweepspec",
     "SweepSpec.run"),
    ("experiments.parallel.stream_map", "repro.experiments.parallel",
     "stream_map"),
)

SIM_LAYERS = (
    "sim.pipeline.simulate_tile_stream",
    "sim.pipeline.simulate_tile_stream_batch",
)


class Recorder:
    """Per-process span buffer with a per-thread stack of open spans."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.spans = []
        self.ids = itertools.count()
        self.local = threading.local()
        self.forked = False
        self.lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def after_fork(self) -> None:
        self.spans = []
        self.local = threading.local()
        self.forked = True
        self.path = f"{self.path}.{os.getpid()}"

    def record(self, span: tuple, outermost: bool) -> None:
        with self.lock:
            self.spans.append(span)
            if not (self.forked and outermost):
                return
            spans, self.spans = self.spans, []
        self._write(spans, "a")

    def dump(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
        self._write(spans, "a" if self.forked else "w")

    def _write(self, spans: list, mode: str) -> None:
        with open(self.path, mode, encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


RECORDER = None


def _bound(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Each probe maps a call's arguments to the span's attributes and the
# arguments to call with (a probe that consumes an iterator hands the
# wrapped function a list instead).


def _sim_probe(signature):
    """Mode, tiles and whether the call computes (its key is not cached)."""
    from repro.sim.cache import simulation_cache_contains
    from repro.sim.pipeline import tile_stream_key

    def probe(args, kwargs):
        call = _bound(signature, args, kwargs)
        timing, tiles = call["timing"], call["tiles"]
        computed = call["use_cache"] and not simulation_cache_contains(
            tile_stream_key(call["system"], timing, tiles)
        )
        attrs = {
            "mode": timing.mode.value,
            "computed": int(computed),
            "computed_tiles": tiles if computed else 0,
        }
        return attrs, args, kwargs

    return probe


def _batch_probe(signature):
    """Cells per mode and the distinct uncached cells a batch computes."""
    from repro.sim.cache import simulation_cache_contains
    from repro.sim.pipeline import tile_stream_key

    def probe(args, kwargs):
        call = _bound(signature, args, kwargs)
        call["cells"] = cells = list(call["cells"])
        attrs = {"computed": 0, "computed_tiles": 0}
        seen = set()
        for system, timing, tiles in cells:
            mode = f"cells_{timing.mode.value}"
            attrs[mode] = attrs.get(mode, 0) + 1
            if not call["use_cache"]:
                continue
            key = tile_stream_key(system, timing, tiles)
            if key in seen or simulation_cache_contains(key):
                continue
            seen.add(key)
            attrs["computed"] += 1
            attrs["computed_tiles"] += tiles
        return attrs, (), call

    return probe


def _run_probe(signature):
    def probe(args, kwargs):
        return {"cells": args[0].cell_count}, args, kwargs

    return probe


_PROBES = {
    "sim.pipeline.simulate_tile_stream": _sim_probe,
    "sim.pipeline.simulate_tile_stream_batch": _batch_probe,
    "experiments.sweepspec.run": _run_probe,
}


def _open(name: str):
    stack = RECORDER.stack()
    parent = stack[-1][0] if stack else -1
    # A simulation nested in another simulation span (a batch falling
    # back to the per-cell engine) is that span's work: only the
    # outermost simulation span counts computed cells.
    nested_sim = any(entry[1] in SIM_LAYERS for entry in stack)
    sid = next(RECORDER.ids)
    stack.append((sid, name))
    return sid, parent, nested_sim


def _close(sid, name, start, parent, attrs) -> None:
    end = time.perf_counter_ns()
    stack = RECORDER.stack()
    stack.pop()
    RECORDER.record((sid, name, start, end, parent, attrs), not stack)


def _wrap(name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return _segments(name, fn(*args, **kwargs))

        return gen_wrapper

    make_probe = _PROBES.get(name)
    probe = make_probe(inspect.signature(fn)) if make_probe else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, nested = _open(name)
        probed = time.perf_counter_ns()
        attrs = {}
        if probe is not None:
            attrs, args, kwargs = probe(args, kwargs)
            if nested:
                attrs["computed"] = attrs["computed_tiles"] = 0
        start = time.perf_counter_ns()
        attrs["probe_ns"] = start - probed
        try:
            return fn(*args, **kwargs)
        finally:
            _close(sid, name, start, parent, attrs)

    return wrapper


def _segments(name, inner):
    """Re-yield a generator, one span per resumption.

    Time the consumer spends between items is not the generator's, so
    each ``next`` is its own span; all but the first are ``resumed``.
    """
    first = {}
    try:
        while True:
            sid, parent, _ = _open(name)
            start = time.perf_counter_ns()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                _close(sid, name, start, parent, first)
                first = {"resumed": 1}
            yield item
    finally:
        inner.close()


def _rebind(original, wrapper) -> None:
    """Point every ``from ... import`` binding of ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def install(path: str) -> Recorder:
    """Wrap every layer in :data:`LAYERS`; spans go to ``path``."""
    global RECORDER
    RECORDER = Recorder(path)
    os.register_at_fork(after_in_child=RECORDER.after_fork)
    for name, module_name, attr_path in LAYERS:
        module = importlib.import_module(module_name)
        owner = module
        parts = attr_path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, parts[-1])
        wrapper = _wrap(name, original)
        setattr(owner, parts[-1], wrapper)
        if owner is module:
            _rebind(original, wrapper)
    return RECORDER


def dump(counters: Optional[dict] = None) -> None:
    """Write this process's spans, and ``counters`` beside them."""
    if RECORDER is None:
        return
    RECORDER.dump()
    if counters is not None:
        with open(RECORDER.path + ".counters", "w", encoding="utf-8") as out:
            json.dump(counters, out)
