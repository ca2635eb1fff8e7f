"""``serve``: a closed loop of two clients against ``repro serve``.

Each iteration starts a fresh daemon (default pool width 2, memory-only
cache), sends a fixed, seeded list of sweep requests from two client
connections that each wait for their stream before sending the next,
then drains the daemon with SIGTERM and checks from outside that the
daemon, its pool workers and its socket are gone.

The mix: ``FRESH`` inline ``speedups`` requests that no earlier request
computed (unique tile counts, seeded memory and 3-scheme subsets), and
``REPEATS`` requests cycling through a hot set of registered scenarios
and inline requests, which after their first occurrence take the cache
fast path or coalesce onto a running sweep.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR, ROOT, Child, Tally, digest, median, percentile, pid_alive,
    program_env, python_argv, remove_tree, scratch_dir,
)

#: Requests per iteration. Fresh requests are the majority, so the
#: median latency is a pool compute rather than a fast-path reply that
#: happened to share the two CPUs with one; every fifth request of a
#: (repeat, fresh, repeat, fresh, fresh) cycle.
FRESH = 72
REPEATS = 48
PATTERN = (False, True, False, True, True)
CLIENTS = 2
#: Bound on every client socket operation and on daemon start and drain.
CLIENT_TIMEOUT_S = 15.0
#: No request is sent after this long into the loop; unsent requests
#: count as failed.
LOOP_DEADLINE_S = 30.0
#: Distinct requests whose rows are compared with an in-process run.
SAMPLED = 4

HOT = (
    {"scenario": "figure12"},
    {"scenario": "figure13"},
    {"scenario": "speedups"},
    {"inline": {"kind": "speedups", "memory": "ddr", "tiles": 1200}},
    {"inline": {"kind": "speedups", "memory": "hbm", "tiles": 2000,
                "schemes": ["Q8_5%", "Q8_20%", "Q4", "Q16_10%"]}},
    {"inline": {"kind": "speedups", "memory": "ddr", "tiles": 800,
                "schemes": ["Q16_50%", "Q8", "Q8_50%"]}},
)


def request_mix(seed: int) -> List[dict]:
    """The seeded request list one iteration sends, in order.

    Fresh requests follow :data:`PATTERN`, with tile counts rising
    through the list (620 + 40k, never a hot request's count, so a fresh
    request cannot be served from the hot requests' cache entries); the
    pattern is fixed, so how fresh and repeated requests overlap does
    not depend on the seed. The seed picks each fresh
    request's memory and schemes and the order of the hot requests.
    """
    from repro.core.schemes import PAPER_SCHEMES

    rng = random.Random(seed)
    names = [scheme.name for scheme in PAPER_SCHEMES]
    hot = list(HOT)
    rng.shuffle(hot)
    memories = ["ddr", "hbm"] * (FRESH // 2)
    rng.shuffle(memories)
    fresh = iter([
        {"inline": {"kind": "speedups", "memory": memory,
                    "tiles": 620 + 40 * k, "schemes": rng.sample(names, 3)}}
        for k, memory in enumerate(memories)
    ])
    repeats = iter([hot[i % len(hot)] for i in range(REPEATS)])
    return [
        next(fresh) if PATTERN[i % len(PATTERN)] else next(repeats)
        for i in range(FRESH + REPEATS)
    ]


class _Client:
    """One daemon connection per request, over the serve line protocol."""

    def __init__(self, path: str) -> None:
        self.path = path

    def _channel(self, request: dict):
        from repro.serve.protocol import LineChannel

        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(CLIENT_TIMEOUT_S)
        sock.connect(self.path)
        channel = LineChannel(sock)
        channel.send_line(json.dumps(request))
        return channel

    def control(self, op: str) -> Optional[dict]:
        """One control request's answer; ``None`` if the daemon failed."""
        from repro.serve.protocol import parse_control

        try:
            with self._channel({"op": op}) as channel:
                line = channel.recv_line()
        except OSError:
            return None
        return parse_control(line) if line is not None else None

    def sweep(self, request: dict) -> dict:
        """Send one sweep; time its ack, first row and end."""
        from repro.serve.protocol import parse_control, unescape_row

        sent = time.monotonic()
        out = {"sent": sent, "ack": None, "first": None, "end": None,
               "rows": [], "summary": None, "error": None}
        with self._channel(dict(request, op="sweep")) as channel:
            while True:
                line = channel.recv_line()
                if line is None:
                    out["error"] = "stream closed before its end marker"
                    return out
                control = parse_control(line)
                if control is None or control["serve"] == "row":
                    if out["first"] is None:
                        out["first"] = time.monotonic()
                    out["rows"].append(
                        line if control is None else unescape_row(control)
                    )
                elif control["serve"] == "ack":
                    out["ack"] = time.monotonic()
                    out["coalesced"] = control.get("coalesced")
                elif control["serve"] == "end":
                    out["end"] = time.monotonic()
                    out["summary"] = control
                    return out
                else:
                    out["error"] = line
                    return out


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Serve:
    name = "serve"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.mix = request_mix(seed)
        self.keys = [json.dumps(r, sort_keys=True) for r in self.mix]
        distinct = sorted(set(self.keys))
        self.sampled = random.Random(seed).sample(distinct, SAMPLED)
        #: Rows of every distinct request, from the first response.
        self.rows: Dict[str, List[str]] = {}
        self.detail: Dict[str, List[float]] = {
            "serve_rps": [], "serve_p50_ms": [], "serve_tail_ms": [],
            "serve_tail_pct": [], "serve_tail_samples": [],
            "serve_ttfr_p50_ms": [], "fresh_share": [],
        }
        self.tally: Optional[Tally] = None

    def row_digest(self) -> str:
        return digest([
            "\n".join(self.rows.get(key, ())).encode() for key in self.keys
        ])

    def close(self) -> None:
        """Compare the sampled requests' rows with an in-process run."""
        from repro.experiments.sweepspec import jsonl_line
        from repro.serve.inline import build_request_spec

        if self.tally is None:
            return
        for key in self.sampled:
            spec = build_request_spec(json.loads(key))
            want = [
                jsonl_line(row)
                for cell in spec.stream(jobs=1)
                for row in spec.rows_for(cell)
            ]
            self.tally.check(self.rows.get(key) == want,
                             f"served rows differ from in-process: {key}")

    def _start(self, tally: Tally, work: Path, trace_dir: Optional[Path]):
        path = str((work / "s.sock").relative_to(ROOT))
        args = ["serve", "--socket", path, "--jobs", "2"]
        if trace_dir is None:
            argv = python_argv("-m", "repro", *args)
        else:
            argv = python_argv(str(BENCH_DIR / "boot.py"),
                               str(trace_dir / "daemon.jsonl"), *args)
        daemon = Child(argv, program_env())
        client = _Client(path)
        deadline = time.monotonic() + CLIENT_TIMEOUT_S
        while not any("listening on" in line
                      for line in daemon.stdout_lines_so_far()):
            if time.monotonic() > deadline or daemon.exited:
                tally.check(False, "serve daemon did not become ready")
                return daemon, None, None
            time.sleep(0.002)
        pong = client.control("ping")
        ready = time.monotonic()
        tally.check(bool(pong) and pong["serve"] == "pong",
                    "daemon did not answer ping")
        return daemon, client, ready - daemon.launched

    def _loop(self, client: _Client) -> List[dict]:
        results: List[Optional[dict]] = [None] * len(self.mix)
        cursor = iter(range(len(self.mix)))
        lock = threading.Lock()
        deadline = time.monotonic() + LOOP_DEADLINE_S

        def worker() -> None:
            while time.monotonic() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                try:
                    results[index] = client.sweep(self.mix[index])
                except OSError as error:
                    results[index] = {"error": repr(error)}

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            # A request in flight at the deadline still ends within one
            # socket timeout per line it waits for.
            thread.join(LOOP_DEADLINE_S + 2 * CLIENT_TIMEOUT_S)
        return results

    def iteration(self, tally: Tally, trace_dir: Optional[Path]) -> dict:
        self.tally = tally
        work = scratch_dir("serve")
        daemon, client, setup_s = self._start(tally, work, trace_dir)
        results, status = [], {}
        if client is not None:
            loop_start = time.monotonic()
            results = self._loop(client)
            loop_s = time.monotonic() - loop_start
            status = client.control("status") or {}
            tally.check(bool(status), "daemon did not answer status")
        pool = status.get("pool", {}).get("pids", [])
        pool_rss = max([_vm_hwm_mb(pid) for pid in pool] or [0.0])
        daemon.signal(signal.SIGTERM)
        finished = daemon.wait(CLIENT_TIMEOUT_S)
        tally.check(finished.ok and b"drained" in finished.stdout,
                    f"daemon drain failed (exit {finished.returncode})")
        deadline = time.monotonic() + 5.0
        while any(pid_alive(pid) for pid in pool) and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        survivors = [pid for pid in pool if pid_alive(pid)]
        tally.check(not survivors, "pool workers outlived the daemon")
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        tally.check(not (work / "s.sock").exists(), "socket left behind")
        remove_tree(tally, work, "serve work directory")
        if client is None:
            return {}
        ok = []
        for index, result in enumerate(results):
            key = self.keys[index]
            summary = (result or {}).get("summary") or {}
            good = (
                summary.get("state") == "finished"
                and 0 < len(result["rows"]) == summary.get("rows")
            )
            if good:
                first = self.rows.setdefault(key, result["rows"])
                good = first == result["rows"]
            if tally.check(good, f"request {index} failed or differed: "
                                 f"{str(result)[:200]}"):
                ok.append(result)
        sent = sum(result is not None for result in results)
        tally.check(status.get("requests") == sent,
                    f"daemon counted {status.get('requests')} requests, "
                    f"clients sent {sent}")
        if not ok:
            return {}
        latency = [r["end"] - r["sent"] for r in ok]
        ttfr = [r["first"] - r["sent"] for r in ok]
        tail_pct = 90.0
        self.detail["serve_rps"].append(len(ok) / loop_s)
        self.detail["serve_p50_ms"].append(1e3 * percentile(latency, 50))
        self.detail["serve_tail_ms"].append(
            1e3 * percentile(latency, tail_pct))
        self.detail["serve_tail_pct"].append(tail_pct)
        self.detail["serve_tail_samples"].append(len(latency))
        self.detail["serve_ttfr_p50_ms"].append(1e3 * percentile(ttfr, 50))
        self.detail["fresh_share"].append(FRESH / len(self.mix))
        result = {
            "setup_s": setup_s,
            "wall_s": finished.ended - daemon.launched,
            "peak_rss_mb": max(finished.peak_rss_mb, pool_rss),
            "work_s": loop_s,
            "ops": latency,
            "first_result_s": percentile(ttfr, 50),
        }
        if trace_dir is not None:
            sweeps = max(status.get("requests", 0), 1)
            result["layers"] = {
                "serve.ack_ms": 1e3 * median([r["ack"] - r["sent"]
                                              for r in ok]),
                "serve.stream_ms": 1e3 * median([r["end"] - r["first"]
                                                 for r in ok]),
                "serve.fast_path_share": status.get("fast_path", 0) / sweeps,
                "serve.coalesced_share": status.get("coalesced", 0) / sweeps,
                "serve.sweeps_computed": status.get("sweeps_computed", 0),
                "experiments.parallel.stream_map.pool_width": status.get(
                    "pool", {}).get("width", 0),
                "trace.requests_minus_status": sent - status.get(
                    "requests", 0),
            }
        return result
