"""Measure how steady the end-to-end metrics are across runs.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 [--repeat 1]
        [--workloads reproduce sweep serve] [--seconds 20] [--out FILE]

Runs ``run.py`` once per (workload, seed, repeat), one run at a time,
and prints per workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median. With ``--out`` the
runs and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = lines[-2] if len(lines) > 1 else ""
    return {
        "workload": workload, "seed": seed, "exit": proc.returncode,
        "correct": result["correct"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": json.loads(detail[len("detail: "):])
        if detail.startswith("detail: ") else {},
    }


def summarize(runs: list) -> dict:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in mine]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[workload][name] = {
                "median": mid, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / mid if mid else 0.0,
                "bound": bound, "runs": len(values),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seconds", type=int,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            for _ in range(args.repeat):
                run = run_once(workload, seed, args.seconds)
                runs.append(run)
                print(json.dumps(run), flush=True)
    summary = summarize(runs)
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- wide"
            print(f"{workload:10s} {name:16s} median {row['median']:10.4f} "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} spread "
                  f"{row['spread']:.3f} (bound {row['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n"
        )
    return 0 if all(r["correct"] and r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
