"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.schemes import parse_scheme
from repro.sim.system import ddr_system, hbm_system


#: How long the session-end guard waits for child processes and threads
#: to finish exiting before it reports them as leaked (seconds).
_LEAK_GRACE_S = 10.0


def _live_children() -> "list[int]":
    """PIDs of this process's live (non-zombie) children, via /proc."""
    me = os.getpid()
    pids = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited mid-scan
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def _live_threads() -> "list[str]":
    """Names of live non-daemon threads other than the main thread."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and not thread.daemon
    ]


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_processes_or_threads():
    """Fail the session if it leaves child processes or threads behind.

    After the last test the persistent worker pool is torn down; any
    child process or non-daemon thread still alive after a bounded wait
    would hang (or outlive) interpreter exit, so it is reported. The
    teardown itself runs in a daemon thread, so a hung teardown is
    reported too instead of hanging the guard.
    """
    yield
    from repro.experiments.parallel import shutdown_worker_pool

    deadline = time.monotonic() + _LEAK_GRACE_S
    teardown = threading.Thread(target=shutdown_worker_pool, daemon=True)
    teardown.start()
    teardown.join(_LEAK_GRACE_S)
    while True:
        multiprocessing.active_children()  # reaps exited children
        children, threads = _live_children(), _live_threads()
        if not (children or threads) or time.monotonic() >= deadline:
            break
        time.sleep(0.1)
    assert not teardown.is_alive(), "worker-pool teardown hung"
    assert not children and not threads, (
        f"test session leaked child processes {children} and/or "
        f"non-daemon threads {threads}"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def hbm():
    """The paper's HBM-equipped 56-core system."""
    return hbm_system()


@pytest.fixture
def ddr():
    """The paper's DDR-equipped 56-core system."""
    return ddr_system()


@pytest.fixture(
    params=["Q16_50%", "Q8", "Q8_20%", "Q4", "Q8_5%"],
    ids=lambda name: name.replace("%", ""),
)
def scheme(request):
    """A representative slice of the paper's compression schemes."""
    return parse_scheme(request.param)


def random_weights(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Gaussian weights like a trained FC layer's."""
    return (rng.normal(scale=0.05, size=(rows, cols))).astype(np.float32)


# ---------------------------------------------------------------------
# Fault injection (serve-daemon hardening tests)
# ---------------------------------------------------------------------


@pytest.fixture
def kill_pool_worker():
    """Fault injector: SIGKILL one live persistent-pool worker.

    Returns a callable that picks a worker of the process-wide pool
    (the lowest PID by default, or a caller-chosen one) and kills it
    outright, simulating an OOM-killed / crashed worker mid-sweep. The
    pool's maintenance thread respawns a replacement, but any cells the
    victim was running are lost — exercising the executor's worker-loss
    recovery. Returns the victim's PID.
    """
    from repro.experiments.parallel import worker_pool_pids

    def _kill(pid: "int | None" = None) -> int:
        pids = worker_pool_pids()
        assert pids, "no live pool worker to kill"
        victim = pid if pid is not None else pids[0]
        assert victim in pids, f"{victim} is not a pool worker ({pids})"
        os.kill(victim, signal.SIGKILL)
        return victim

    return _kill


@pytest.fixture
def corrupt_disk_entry():
    """Fault injector: garble entries of an on-disk simulation cache.

    Returns a callable taking a cache directory; it overwrites the
    stored pickle payload of ``count`` entries with garbage — loose
    ``.pkl`` files first, then records inside pack files (group-committed
    deltas land as packs, so a sweep's spill may have no loose entries
    at all). Files and pack records stay in place, so membership probes
    still see them. A well-behaved reader must treat the entries as
    misses and recompute. Returns the corrupted paths.
    """

    def _corrupt(cache_dir, count: int = 1):
        from repro.sim.diskindex import scan_pack

        root = pathlib.Path(cache_dir)
        victims = []
        for path in sorted(root.rglob("*.pkl"))[:count]:
            path.write_bytes(b"\x00corrupt-truncated-entry")
            victims.append(path)
        if len(victims) < count:
            for pack_path in sorted(root.rglob("*.pack")):
                for _digest, offset, length in scan_pack(pack_path):
                    with open(pack_path, "r+b") as handle:
                        handle.seek(offset)
                        handle.write(b"\x00" * length)
                    victims.append(pack_path)
                    if len(victims) >= count:
                        break
                if len(victims) >= count:
                    break
        assert victims, f"no disk-cache entries under {cache_dir}"
        return victims

    return _corrupt


@pytest.fixture
def corrupt_cache_index():
    """Fault injector: damage an on-disk simulation cache's manifest.

    Returns a callable taking a cache directory and a mode:
    ``"garbage"`` overwrites the manifest with non-UTF-8 noise,
    ``"truncate"`` shears it mid-line, ``"stale"`` rewrites the header
    to a foreign schema generation. The store itself is untouched, so a
    well-behaved cache must answer membership identically after a
    rebuild. Returns the manifest path.
    """

    def _corrupt(cache_dir, mode: str = "garbage"):
        from repro.sim.diskindex import INDEX_NAME

        root = pathlib.Path(cache_dir)
        manifests = sorted(root.rglob(INDEX_NAME))
        assert manifests, f"no cache manifest under {cache_dir}"
        path = manifests[0]
        if mode == "garbage":
            path.write_bytes(b"\xff\xfe not a manifest \x00\x01")
        elif mode == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: max(len(data) * 2 // 3, 1)])
        elif mode == "stale":
            lines = path.read_bytes().splitlines(keepends=True)
            lines[0] = b"repri 1 0000deadbeef\n"
            path.write_bytes(b"".join(lines))
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        return path

    return _corrupt
