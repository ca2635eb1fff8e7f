"""``sweep``: a seeded design-space study, cold then warm.

Each iteration runs ``sweep_pass.py`` twice in fresh processes against
one new cache directory: the cold pass simulates and writes the store,
the warm pass replays the same study from it. The study has more unique
simulations than the 512-entry memory LRU holds, so the warm pass reads
the disk tier.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR, Tally, digest, python_argv, remove_tree, run_child,
    scratch_dir,
)

#: Cells per iteration compared with the per-tile reference engine.
REFERENCE_CELLS = 2


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Sweep:
    name = "sweep"
    #: Both passes run with ``jobs=1``, so the traced engine calls must
    #: equal the cache's misses.
    engine_crosscheck = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rows: Optional[bytes] = None
        self.detail: Dict[str, List[float]] = {
            "cold_cells_per_s": [], "warm_cells_per_s": [],
            "unique_simulations": [], "store_mb": [],
        }

    def row_digest(self) -> str:
        return digest([self.rows or b""])

    def close(self) -> None:
        pass

    def _pass(self, tally: Tally, work: Path, tag: str,
              trace_dir: Optional[Path], reference: int):
        argv = python_argv(
            str(BENCH_DIR / "sweep_pass.py"), str(self.seed),
            str(work / "cache"), str(work / f"{tag}.rows"),
            "--reference", str(reference),
        )
        if trace_dir is not None:
            argv += ["--spans", str(trace_dir / f"{tag}.jsonl")]
        child = run_child(argv)
        report = None
        if child.ok:
            report = json.loads(child.stdout.decode().splitlines()[-1])
        tally.check(report is not None,
                    f"{tag} sweep pass exited {child.returncode}: "
                    f"{child.stderr.decode()[-300:]}")
        return child, report

    def iteration(self, tally: Tally, trace_dir: Optional[Path]) -> dict:
        work = scratch_dir("sweep")
        cold, cold_report = self._pass(tally, work, "cold", trace_dir, 0)
        store_bytes = _tree_bytes(work / "cache")
        warm, warm_report = self._pass(
            tally, work, "warm", trace_dir, REFERENCE_CELLS,
        )
        cold_rows = (work / "cold.rows").read_bytes() if cold.ok else b""
        warm_rows = (work / "warm.rows").read_bytes() if warm.ok else b""
        remove_tree(tally, work, "sweep cache directory")
        if cold_report is None or warm_report is None:
            return {}
        # Warm rows must be bit-equal to cold rows, cell by cell.
        for cold_line, warm_line in zip(cold_rows.splitlines(),
                                        warm_rows.splitlines()):
            cold_cells = json.loads(cold_line)
            warm_cells = json.loads(warm_line)
            for index, row in enumerate(cold_cells):
                tally.check(
                    index < len(warm_cells) and warm_cells[index] == row,
                    "warm-pass row differs from the cold pass",
                )
        tally.check(cold_rows.count(b"\n") == warm_rows.count(b"\n"),
                    "warm pass returned a different number of points")
        for _ in range(warm_report["reference_checked"]):
            tally.check(True, "reference engine")
        for mismatch in warm_report["reference_mismatches"]:
            tally.check(False, f"cell differs from the reference: {mismatch}")
        if self.rows is None:
            self.rows = cold_rows
        tally.check(cold_rows == self.rows,
                    "cold rows differ between iterations")
        cold_s = cold_report["done"] - cold_report["ready"]
        warm_s = warm_report["done"] - warm_report["ready"]
        cells = cold_report["cells"]
        self.detail["cold_cells_per_s"].append(cells / cold_s)
        self.detail["warm_cells_per_s"].append(cells / warm_s)
        self.detail["unique_simulations"].append(cold_report["misses"])
        self.detail["store_mb"].append(store_bytes / 2 ** 20)
        result = {
            "setup_s": warm_report["ready"] - warm.launched,
            "wall_s": warm_report["done"] - cold.launched,
            "peak_rss_mb": max(cold.peak_rss_mb, warm.peak_rss_mb),
            "work_s": cold_s + warm_s,
            "ops": cold_report["op_s"] + warm_report["op_s"],
            "first_result_s": cold_report["first_done"] - cold.launched,
        }
        if trace_dir is not None:
            result["layers"] = {"sim.diskcache.bytes": store_bytes}
            result["counters"] = [cold_report, warm_report]
        return result
