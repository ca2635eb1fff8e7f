"""Per-layer metrics: the list, and how spans and counters fold into it."""

from __future__ import annotations

import json
import re
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

MODES = ("overlapped", "serialized", "tepl")

#: Layers reported as ``<layer>.calls`` and ``<layer>.busy_s``.
CALL_LAYERS = (
    "core.bord.region_fractions",
    "core.bubbles.deca_vops_per_tile",
    "core.dse.explore_deca_designs",
    "deca.deca_kernel_timing",
    "kernels.software_kernel_timing",
    "llm.next_token_latency",
    "report.render",
    *(f"sim.pipeline.simulate_tile_stream.{mode}" for mode in MODES),
    "sim.pipeline.simulate_tile_stream_batch",
    "sim.diskcache.load",
    "sim.diskcache.store",
    "experiments.sweepspec.run",
    "experiments.parallel.stream_map",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("import.repro_s", "s"),
    *(
        item
        for layer in CALL_LAYERS
        for item in ((f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"))
    ),
    *(
        (f"sim.pipeline.simulate_tile_stream_batch.cells_{mode}", "count")
        for mode in MODES
    ),
    ("sim.pipeline.engine_calls", "count"),
    ("sim.pipeline.tiles", "count"),
    ("sim.pipeline.host_us_per_tile", "us"),
    ("sim.cache.hits", "count"),
    ("sim.cache.misses", "count"),
    ("sim.cache.disk_hits", "count"),
    ("sim.cache.hit_rate", "share"),
    ("sim.cache.evictions", "count"),
    ("sim.diskcache.attach_s", "s"),
    ("sim.diskcache.bytes", "B"),
    ("experiments.sweepspec.run.batched_cell_share", "share"),
    ("experiments.parallel.stream_map.tasks_dispatched", "count"),
    ("experiments.parallel.stream_map.pool_width", "count"),
    ("serve.ack_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.fast_path_share", "share"),
    ("serve.coalesced_share", "share"),
    ("serve.sweeps_computed", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.engine_calls_minus_misses", "count"),
    ("trace.requests_minus_status", "count"),
)

def blank() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")


def import_split(stderr: str) -> Dict[str, float]:
    """``-X importtime`` self times, summed per package."""
    out = {"import.total_s": 0.0, "import.scipy_s": 0.0,
           "import.numpy_s": 0.0, "import.repro_s": 0.0}
    for match in _IMPORT_LINE.finditer(stderr):
        seconds = int(match.group(1)) / 1e6
        top = match.group(2).split(".")[0]
        out["import.total_s"] += seconds
        key = f"import.{top}_s"
        if key in out:
            out[key] += seconds
    return out


def read_spans(paths: Iterable[Path]) -> List[List[list]]:
    """Spans per process file; a file's parent ids refer to that file."""
    files = []
    for path in paths:
        spans = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                spans.append(json.loads(line))
        files.append(spans)
    return files


def fold_spans(files: List[List[list]], metrics: Dict[str, float]) -> None:
    """Add span counts, self times and span attributes into ``metrics``."""
    batch = "sim.pipeline.simulate_tile_stream_batch"
    sim_busy_ns = run_cells = batched_cells = 0
    for spans in files:
        by_id = {span[0]: span for span in spans}
        child_ns: Dict[int, int] = defaultdict(int)
        batched_runs = set()
        for sid, name, start, end, parent, attrs in spans:
            if parent >= 0:
                child_ns[parent] += end - start + attrs.get("probe_ns", 0)
            ancestor = by_id.get(parent) if name == batch else None
            while ancestor is not None:
                if ancestor[1] == "experiments.sweepspec.run":
                    batched_runs.add(ancestor[0])
                ancestor = by_id.get(ancestor[4])
        for sid, name, start, end, parent, attrs in spans:
            if name == "sim.diskcache.attach":
                metrics["sim.diskcache.attach_s"] += (end - start) / 1e9
                continue
            layer = name
            if name == "sim.pipeline.simulate_tile_stream":
                layer = f"{name}.{attrs['mode']}"
            self_ns = end - start - child_ns[sid]
            metrics[f"{layer}.busy_s"] += self_ns / 1e9
            if not attrs.get("resumed"):
                metrics[f"{layer}.calls"] += 1
            if "computed" in attrs:
                sim_busy_ns += self_ns
                metrics["sim.pipeline.engine_calls"] += attrs["computed"]
                metrics["sim.pipeline.tiles"] += attrs["computed_tiles"]
            if name == batch:
                for mode in MODES:
                    metrics[f"{batch}.cells_{mode}"] += attrs.get(
                        f"cells_{mode}", 0
                    )
            if name == "experiments.sweepspec.run":
                run_cells += attrs["cells"]
                if sid in batched_runs:
                    batched_cells += attrs["cells"]
        metrics["trace.spans"] += len(spans)
    if metrics["sim.pipeline.tiles"]:
        metrics["sim.pipeline.host_us_per_tile"] = (
            sim_busy_ns / 1e3 / metrics["sim.pipeline.tiles"]
        )
    if run_cells:
        metrics["experiments.sweepspec.run.batched_cell_share"] = (
            batched_cells / run_cells
        )


def fold_cache(
    metrics: Dict[str, float], hits: int, misses: int, disk_hits: int,
    size_growth: int,
) -> None:
    """Add simulation-cache counter deltas; evictions are inserts that
    did not grow the LRU."""
    metrics["sim.cache.hits"] += hits
    metrics["sim.cache.misses"] += misses
    metrics["sim.cache.disk_hits"] += disk_hits
    metrics["sim.cache.evictions"] += max(0, misses + disk_hits - size_growth)
    looked = (
        metrics["sim.cache.hits"] + metrics["sim.cache.misses"]
        + metrics["sim.cache.disk_hits"]
    )
    if looked:
        metrics["sim.cache.hit_rate"] = (
            metrics["sim.cache.hits"] + metrics["sim.cache.disk_hits"]
        ) / looked


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median across iterations."""
    return {
        name: float(statistics.median(s[name] for s in samples))
        for name in samples[0]
    } if samples else blank()


def as_result(values: Dict[str, float]) -> Dict[str, dict]:
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER
    }
