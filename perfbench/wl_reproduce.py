"""``reproduce``: what a reader of the paper runs.

Each iteration is three fresh processes, the operations of this
workload: ``python -c "import repro.cli"`` (a cold CLI start, the
set-up), ``python -m repro experiments`` with all 16 experiments, and
``python -m repro validate``. The cache is memory-only and everything
runs serially.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    ROOT, Tally, cli_argv, digest, program_env, python_argv,
    run_child,
)

EXPERIMENTS = (
    "table1", "figure3", "figure4", "figure5", "figure6", "figure12",
    "figure13", "figure14", "figure15", "figure16", "figure17",
    "table3", "table4", "area", "batch_sweep", "sensitivity",
)
GOLDEN = ROOT / "benchmarks" / "output"
VALIDATE_OK = "9/9 claims reproduced"

_NUMBER = r"(-?\d+(?:\.\d+)?)"
_PAIR = re.compile(_NUMBER + r" \| " + _NUMBER)


def paper_mape_pct(tables: Dict[str, str]) -> float:
    """Mean absolute percentage error of regenerated values against the
    paper's, over every (reproduced, paper) pair the tables print."""
    pairs = []
    for line in tables["table1"].splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in ("DDR", "HBM"):
            pairs.append((float(fields[3]), float(fields[4])))
    for line in tables["figure4"].splitlines():
        fields = line.split()
        if len(fields) == 7 and re.fullmatch(r"Q\d+(_\d+%)?", fields[0]):
            values = [float(v) for v in fields[1:]]
            pairs.extend(zip(values[:3], values[3:]))
    for name in ("table3", "table4"):
        for match in _PAIR.finditer(tables[name]):
            pairs.append((float(match.group(1)), float(match.group(2))))
    errors = [abs(got - paper) / abs(paper) for got, paper in pairs if paper]
    return 100.0 * sum(errors) / len(errors)


class Reproduce:
    name = "reproduce"
    #: Both CLI processes run serially, so the traced engine calls must
    #: equal the cache's misses.
    engine_crosscheck = True

    def __init__(self, seed: int) -> None:
        # The first table stays the CLI's first (table1), so the time to
        # the first result does not depend on which experiment the seed
        # put first; the other 15 run in a seeded order.
        rest = list(EXPERIMENTS[1:])
        random.Random(seed).shuffle(rest)
        self.order = [EXPERIMENTS[0], *rest]
        self.golden = {
            name: (GOLDEN / f"{name}.txt").read_bytes()
            for name in (*EXPERIMENTS, "validation")
        }
        self.expected = b"".join(self.golden[n] + b"\n" for n in self.order)
        self.detail: Dict[str, List[float]] = {
            "experiments_s": [], "validate_s": [], "paper_mape_pct": [],
        }

    def row_digest(self) -> str:
        return digest([self.expected, self.golden["validation"]])

    def iteration(self, tally: Tally, trace_dir: Optional[Path]) -> dict:
        """One pass; with ``trace_dir`` the CLI runs traced."""
        env = program_env(PYTHONUNBUFFERED="1")
        probe = run_child(python_argv("-c", "import repro.cli"))
        tally.check(probe.ok, "import repro.cli failed")
        exp = run_child(
            cli_argv(trace_dir, "experiments", *self.order), env,
            timestamps=True,
        )
        val = run_child(cli_argv(trace_dir, "validate"), env)
        tally.check(exp.ok, f"experiments exited {exp.returncode}")
        tally.check(val.ok, f"validate exited {val.returncode}")
        # One check per regenerated table, in the order they were asked for.
        offset, ends, tables = 0, [], {}
        for name in self.order:
            want = self.golden[name] + b"\n"
            got = exp.stdout[offset:offset + len(want)]
            tally.check(got == want, f"{name} differs from benchmarks/output")
            tables[name] = got.decode("utf-8", "replace")
            offset += len(want)
            ends.append(offset)
        tally.check(
            offset == len(exp.stdout), "experiments printed extra output"
        )
        tally.check(
            val.stdout == self.golden["validation"]
            and VALIDATE_OK in val.stdout.decode("utf-8", "replace"),
            "validate differs from benchmarks/output/validation.txt",
        )
        # The first table is complete when its last byte arrives.
        first = next(
            (t for t, size in exp.arrivals if size >= ends[0]), exp.ended
        )
        self.detail["experiments_s"].append(exp.seconds)
        self.detail["validate_s"].append(val.seconds)
        self.detail["paper_mape_pct"].append(paper_mape_pct(tables))
        return {
            "setup_s": probe.seconds,
            "wall_s": val.ended - probe.launched,
            "peak_rss_mb": max(p.peak_rss_mb for p in (probe, exp, val)),
            "work_s": probe.seconds + exp.seconds + val.seconds,
            "ops": [probe.seconds, exp.seconds, val.seconds],
            "first_result_s": first - exp.launched,
        }

    def close(self) -> None:
        pass
