"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``reproduce`` (the paper's tables and claims
through the CLI), ``sweep`` (a cold then warm design-space sweep against
a disk cache) and ``serve`` (a closed loop of two clients against a
``repro serve`` daemon). Iterations repeat until ``--seconds`` have
passed; each metric is the median over iterations. ``--trace 1``
alternates plain and traced iterations and reports the per-layer split
from the traced ones instead of the end-to-end metrics.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import (
    ROOT, SRC, Tally, check_digest, median, percentile, program_env,
    python_argv, run_child, tail,
)
import layers

#: Start no iteration after this long: with every wait in an iteration
#: bounded (about 90 s at worst), a run ends inside 180 s even when the
#: program stalls.
RUN_BUDGET_S = 75.0

#: Import probes per traced run (``python -X importtime``).
IMPORT_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "share"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("first_result_ms", "ms"),
)


#: Workload name -> (module, class).
WORKLOADS = {
    "reproduce": ("wl_reproduce", "Reproduce"),
    "sweep": ("wl_sweep", "Sweep"),
    "serve": ("wl_serve", "Serve"),
}


def _import_split(tally: Tally) -> dict:
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = run_child(python_argv("-X", "importtime", "-c",
                                      "import repro.cli"))
        tally.check(probe.ok, "import probe failed")
        samples.append(layers.import_split(probe.stderr.decode()))
    return layers.median_metrics(samples)


def _layer_metrics(workload, trace_dir: Path, result: dict,
                   tally: Tally) -> dict:
    """Per-layer metrics of one traced iteration."""
    metrics = layers.blank()
    layers.fold_spans(
        layers.read_spans(sorted(
            [*trace_dir.glob("*.jsonl"), *trace_dir.glob("*.jsonl.[0-9]*")]
        )), metrics
    )
    # The program's own counters: left beside the spans by the CLI
    # launcher, or reported by the workload.
    counters = [
        json.loads(path.read_text())
        for path in sorted(trace_dir.glob("*.counters"))
    ] + result.get("counters", [])
    for counter in counters:
        layers.fold_cache(
            metrics, counter["hits"], counter["misses"],
            counter["disk_hits"], counter["size_growth"],
        )
        metrics["experiments.parallel.stream_map.tasks_dispatched"] += (
            counter.get("tasks_dispatched", 0)
        )
    metrics.update(result.get("layers", {}))
    metrics["trace.engine_calls_minus_misses"] = (
        metrics["sim.pipeline.engine_calls"] - metrics["sim.cache.misses"]
    )
    if getattr(workload, "engine_crosscheck", False):
        tally.check(
            metrics["trace.engine_calls_minus_misses"] == 0,
            f"traced engine calls ({metrics['sim.pipeline.engine_calls']:g}) "
            f"!= cache misses ({metrics['sim.cache.misses']:g})",
        )
    return metrics


def measure(workload, seconds: int, trace: bool, tally: Tally) -> dict:
    started = time.monotonic()
    plain, traced, layer_samples = [], [], []
    imports = _import_split(tally) if trace else {}
    trace_root = ROOT / ".perfbench-tmp" / "trace"
    index = 0
    while True:
        trace_dir = None
        if trace and index % 2 == 1:
            trace_dir = trace_root / str(index)
            trace_dir.mkdir(parents=True)
        # An empty result is a failed iteration; its checks counted it.
        result = workload.iteration(tally, trace_dir)
        if result and trace_dir is None:
            plain.append(result)
        elif result:
            traced.append(result)
            layer_samples.append(
                _layer_metrics(workload, trace_dir, result, tally)
            )
        index += 1
        elapsed = time.monotonic() - started
        if elapsed >= RUN_BUDGET_S or (
            elapsed >= seconds and plain and (not trace or traced)
        ):
            break
    shutil.rmtree(trace_root, ignore_errors=True)
    if trace:
        values = layers.median_metrics(layer_samples)
        values.update(imports)
        if traced and plain:
            values["trace.overhead_s"] = (
                median([r["wall_s"] for r in traced])
                - median([r["wall_s"] for r in plain])
            )
        return layers.as_result(values)
    if not plain:
        return {name: {"value": 0.0, "unit": unit}
                for name, unit in END_TO_END}
    ops = [op for r in plain for op in r["ops"]]
    tail_pct, tail_s = tail(ops)
    workload.detail.setdefault("op_tail_pct", []).append(tail_pct)
    workload.detail.setdefault("op_samples", []).append(len(ops))
    values = {
        "setup_s": median([r["setup_s"] for r in plain]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "ok_rate": 1.0,  # set once every check has run
        "ops_per_s": len(ops) / sum(r["work_s"] for r in plain),
        "op_p50_ms": 1e3 * percentile(ops, 50.0),
        "op_tail_ms": 1e3 * tail_s,
        "first_result_ms": 1e3 * median(
            [r["first_result_s"] for r in plain]
        ),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this seed's row digest in digests.json instead of "
             "checking it",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Program processes run from the checkout root; the daemon's socket
    # path is relative to it, which keeps it short.
    os.chdir(ROOT)
    tally = Tally()
    # Compile the package once, as an installed program would be, so the
    # first timed process does not pay for writing bytecode.
    warm = run_child(python_argv("-m", "compileall", "-q", str(SRC)),
                     program_env())
    tally.check(warm.ok, "compileall failed")
    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)(args.seed)
    try:
        metrics = measure(workload, args.seconds, bool(args.trace), tally)
        check_digest(tally, workload.name, args.seed, workload.row_digest(),
                     args.record_digests)
    finally:
        workload.close()
        shutil.rmtree(ROOT / ".perfbench-tmp", ignore_errors=True)
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    error_rate = tally.failed / max(tally.attempted, 1)
    if "ok_rate" in metrics:
        metrics["ok_rate"]["value"] = 1.0 - error_rate
    detail = {name: median(values) for name, values in workload.detail.items()}
    detail["error_rate"] = error_rate
    print("detail: " + json.dumps(detail, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
