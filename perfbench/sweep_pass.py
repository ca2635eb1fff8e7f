"""One pass of the ``sweep`` workload, run as its own process.

Usage: ``python perfbench/sweep_pass.py SEED CACHE_DIR ROWS_OUT
[--spans PATH] [--reference N]``. Builds the seeded design-space study
with the public ``grid_spec`` and ``speedup_spec``, runs every design
point with ``jobs=1`` against the disk cache at CACHE_DIR, writes each
point's rows to ROWS_OUT (one JSON line per point) and prints one JSON
line of timings and cache counters.
``--reference N`` afterwards compares N seeded cells with the per-tile
reference engine.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

#: Design points per pass. The shape of the study is fixed: point ``i``
#: simulates ``TILES[i % 5]`` tiles on memory ``(i // 5) % 2`` with
#: ``CORES[(i // 10) % 4]`` cores; every fourth point is a (system,
#: scheme, engine) grid and the others are speedup sweeps on rung
#: ``(i // 5) % 5`` of the integration ladder. The seed picks each
#: point's ``DecaConfig(W, L)``, the grid schemes and the order of the
#: points, so every seed does about the same simulation work.
POINTS = 40
TILES = (600, 1000, 1600, 2400, 4000)
CORES = (8, 16, 32, 56)
WIDTHS = ((8, 1), (8, 4), (16, 2), (16, 8), (32, 4), (32, 8), (64, 8),
          (64, 16))
DENSITIES = ("", "_50%", "_30%", "_20%", "_10%", "_5%")
GRID_EVERY = 4


def design_points(seed: int):
    """The seeded study: one dict of spec arguments per design point."""
    from repro.core.schemes import parse_scheme
    from repro.deca.config import DecaConfig
    from repro.deca.integration import INTEGRATION_LADDER
    from repro.sim.system import ddr_system, hbm_system

    rng = random.Random(seed)
    pool = [parse_scheme(f"Q{q}{d}") for q in (4, 8, 16) for d in DENSITIES]
    points = []
    for index in range(POINTS):
        memory = (hbm_system, ddr_system)[(index // len(TILES)) % 2]
        width, luts = rng.choice(WIDTHS)
        point = {
            "system": memory(CORES[(index // 10) % len(CORES)]),
            "config": DecaConfig(width=width, lut_count=luts),
            "tiles": TILES[index % len(TILES)],
        }
        if index % GRID_EVERY == 0:
            point["schemes"] = tuple(rng.sample(pool, len(pool) // 2))
        else:
            point["schemes"] = tuple(pool)
            point["rung"] = INTEGRATION_LADDER[
                (index // len(TILES)) % len(INTEGRATION_LADDER)
            ]
        points.append(point)
    rng.shuffle(points)
    return points


def build_spec(point):
    from repro.experiments.grid import grid_spec
    from repro.experiments.speedups import speedup_spec

    if "rung" in point:
        return speedup_spec(
            point["system"], schemes=point["schemes"],
            deca_config=point["config"], integration=point["rung"],
            tiles=point["tiles"],
        )
    return grid_spec(
        systems=(point["system"],), schemes=point["schemes"],
        deca_config=point["config"], tiles=point["tiles"],
    )


def cell_sims(point, scheme):
    """The (system, timing, tiles) simulations behind one cell."""
    from repro.deca.integration import deca_kernel_timing
    from repro.kernels.libxsmm import software_kernel_timing

    system, tiles = point["system"], point["tiles"]
    return (
        (system, software_kernel_timing(system, scheme), tiles),
        (system, deca_kernel_timing(system, scheme, config=point["config"],
                                    integration=point.get("rung")), tiles),
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("seed", type=int)
    parser.add_argument("cache_dir")
    parser.add_argument("rows_out")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--reference", type=int, default=0)
    args = parser.parse_args()
    if args.spans:
        import tracer

        tracer.install(args.spans)
    from repro.experiments.sweepspec import CellResult, jsonl_line
    from repro.sim.cache import (
        configure_simulation_cache_dir,
        simulation_cache_stats,
    )

    if configure_simulation_cache_dir(args.cache_dir) is None:
        print(f"cache dir {args.cache_dir} is not usable", file=sys.stderr)
        return 1
    ready = time.monotonic()
    before = simulation_cache_stats()
    points = design_points(args.seed)
    op_s, cells, first_done = [], 0, None
    with open(args.rows_out, "w", encoding="utf-8") as out:
        for point in points:
            start = time.monotonic()
            spec = build_spec(point)
            coords = spec.coords()
            values = spec.run(jobs=1)
            rows = [
                jsonl_line(row)
                for index, value in enumerate(values)
                for row in spec.rows_for(CellResult(index, coords[index],
                                                    value))
            ]
            op_s.append(time.monotonic() - start)
            first_done = first_done or time.monotonic()
            cells += len(values)
            out.write(json.dumps(rows) + "\n")
    done = time.monotonic()
    mismatches = []
    if args.reference:
        from repro.sim.cache import results_bit_equal
        from repro.sim.pipeline import (
            simulate_tile_stream,
            simulate_tile_stream_reference,
        )

        rng = random.Random(args.seed)
        for _ in range(args.reference):
            point = rng.choice(points)
            scheme = rng.choice(point["schemes"])
            for system, timing, tiles in cell_sims(point, scheme):
                got = simulate_tile_stream(system, timing, tiles)
                ref = simulate_tile_stream_reference(system, timing, tiles)
                if not results_bit_equal(got, ref):
                    mismatches.append(f"{scheme.name} {timing.mode.value} "
                                      f"{tiles} tiles")
    after = simulation_cache_stats()
    if args.spans:
        tracer.dump()
    print(json.dumps({
        "ready": ready, "first_done": first_done, "done": done,
        "op_s": op_s, "cells": cells,
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "disk_hits": after.disk_hits - before.disk_hits,
        "size_growth": after.size - before.size,
        "reference_checked": 2 * args.reference,
        "reference_mismatches": mismatches,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
