"""Shared pieces of the benchmark: child processes, statistics, tallies."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Upper bound on any one child process (they normally take under 3 s);
#: a stall ends as a failure.
CHILD_TIMEOUT_S = 30.0

#: Tail percentiles tried, highest first; the tail is the highest one
#: with at least ten samples beyond it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


def program_env(**extra: str) -> Dict[str, str]:
    """Environment for a program process: the checkout's ``src`` only."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


@dataclass
class ChildResult:
    """One finished child: its output, timing, peak RSS and exit status."""

    argv: List[str]
    launched: float
    ended: float
    returncode: int
    timed_out: bool
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    #: (monotonic time, stdout bytes received so far) per read.
    arrivals: List[tuple] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.ended - self.launched

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def _drain(stream, sink: bytearray, arrivals: Optional[list]) -> None:
    fd = stream.fileno()
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            return
        sink.extend(chunk)
        if arrivals is not None:
            arrivals.append((time.monotonic(), len(sink)))


class Child:
    """A program process whose stdout/stderr are drained by threads.

    ``wait`` reaps it with ``wait4`` so its peak RSS is known, and kills
    it when the timeout passes.
    """

    def __init__(
        self, argv: Sequence[str], env: Dict[str, str],
        timestamps: bool = False,
    ) -> None:
        self.argv = list(argv)
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.arrivals: Optional[list] = [] if timestamps else None
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        self.readers = [
            threading.Thread(
                target=_drain, args=(self.proc.stdout, self.stdout,
                                     self.arrivals), daemon=True,
            ),
            threading.Thread(
                target=_drain, args=(self.proc.stderr, self.stderr, None),
                daemon=True,
            ),
        ]
        for reader in self.readers:
            reader.start()
        self._status = None
        self._waiter = threading.Thread(target=self._reap, daemon=True)
        self._waiter.start()

    def _reap(self) -> None:
        _, status, usage = os.wait4(self.proc.pid, 0)
        self._status = (status, usage, time.monotonic())

    @property
    def exited(self) -> bool:
        return self._status is not None

    def stdout_lines_so_far(self) -> List[str]:
        return bytes(self.stdout).decode("utf-8", "replace").splitlines()

    def signal(self, signum: int) -> None:
        if self._status is None:
            try:
                os.kill(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
        self._waiter.join(timeout)
        timed_out = self._waiter.is_alive()
        if timed_out:
            self.signal(signal.SIGKILL)
            self._waiter.join()
        status, usage, ended = self._status
        # wait4 reaped the child; tell Popen so it never waits again.
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in self.readers:
            reader.join(5.0)
        for stream in (self.proc.stdout, self.proc.stderr):
            stream.close()
        return ChildResult(
            argv=self.argv, launched=self.launched, ended=ended,
            returncode=self.proc.returncode, timed_out=timed_out,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=bytes(self.stdout), stderr=bytes(self.stderr),
            arrivals=list(self.arrivals or ()),
        )


def run_child(
    argv: Sequence[str], env: Optional[Dict[str, str]] = None,
    timestamps: bool = False, timeout: float = CHILD_TIMEOUT_S,
) -> ChildResult:
    return Child(argv, env or program_env(), timestamps).wait(timeout)


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def cli_argv(trace_dir: Optional[Path], *args: str) -> List[str]:
    """``python -m repro ARGS``, or its traced launch into ``trace_dir``."""
    if trace_dir is None:
        return python_argv("-m", "repro", *args)
    spans = trace_dir / f"{args[0]}-{time.monotonic_ns()}.jsonl"
    return python_argv(str(BENCH_DIR / "boot.py"), str(spans), *args)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def tail(values: Sequence[float]) -> tuple:
    """(percentile, value) of the highest ladder percentile with at least
    ten samples beyond it; the median when there are fewer than 20."""
    count = len(values)
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def digest(parts: Sequence[bytes]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)
    return hasher.hexdigest()


def check_digest(
    tally: Tally, workload: str, seed: int, value: str, record: bool,
) -> None:
    """Compare a run's row digest with the one stored for this seed.

    Seeds without a stored digest are only checked by the run's own
    checks; ``record`` stores the digest instead.
    """
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    known = stored.setdefault(workload, {})
    if record:
        known[str(seed)] = value
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return
    if str(seed) in known:
        tally.check(known[str(seed)] == value, f"{workload} seed {seed}: "
                    "row digest differs from the stored one")


def pid_alive(pid: int) -> bool:
    """True if ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def scratch_dir(name: str) -> Path:
    """A fresh directory under the checkout's ``.perfbench-tmp``."""
    path = ROOT / ".perfbench-tmp" / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_tree(tally: Tally, path: Path, what: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    tally.check(not path.exists(), f"{what} {path} left behind")
