"""Request-lifecycle tests for the serve daemon.

Covers the states an admitted sweep can end in beyond ``finished``:
``cancelled`` (the last subscriber hung up, or an explicit cancel
verb) and ``deadline_exceeded`` (a ``deadline_s`` request that ran out
of time queued or running) — plus the HTTP/SSE transport that maps
onto the same admission/coalescing core, the per-client admission
rate limit, and the client-side timeout mapping for a stalled daemon.

The cancellation contract is pinned at the executor level: cancelling
the sole subscriber of a running sweep must stop *pool dispatch*
within one in-flight window (asserted via the cumulative pool-task
counter), and the next identical request must recompute cleanly on
the same, still-healthy pool.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.errors import DeadlineExceededError
from repro.experiments.parallel import (
    dispatched_task_count,
    fork_available,
    shutdown_worker_pool,
    worker_pool_owned,
    worker_pool_size,
)
from repro.serve.client import (
    ServeClient,
    ServeRequestError,
    ServeUnavailableError,
    connect,
)
from repro.serve.daemon import ServeDaemon
from repro.serve.http import ServeHttpFrontend
from repro.serve.inline import synthetic_spec
from repro.serve.protocol import LineChannel, control_line
from repro.sim.cache import clear_simulation_cache

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


@pytest.fixture
def daemon(tmp_path):
    """An in-process daemon on a fresh socket, cold cache, fresh pool."""
    clear_simulation_cache()
    shutdown_worker_pool()
    d = ServeDaemon(
        socket_path=str(tmp_path / "serve.sock"), jobs=2, max_active=2
    )
    d.start()
    yield d
    d.drain()
    shutdown_worker_pool()
    clear_simulation_cache()


def _synthetic(cells, cell_s, tag):
    return {"kind": "synthetic", "cells": cells, "cell_s": cell_s,
            "tag": tag}


def _await_idle(daemon, timeout=15.0):
    """Poll until no sweep is active and the coalescing table is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = daemon.status_snapshot()
        if snapshot["active"] == 0 and not snapshot["jobs"]:
            return snapshot
        time.sleep(0.02)
    raise AssertionError("daemon never went idle")


class TestCancellation:
    def test_last_subscriber_detach_cancels_and_frees_pool(self, daemon):
        cells = 16
        inline = _synthetic(cells, 0.25, "cancel-sole")
        before = dispatched_task_count()
        client = connect(daemon.socket_path)
        stream = client.sweep_lines(inline=inline)
        next(stream)          # sweep is live and streaming
        stream.close()        # sole subscriber hangs up

        snapshot = _await_idle(daemon)
        assert snapshot["cancelled"] == 1
        assert snapshot["errors"] == 0
        cancelled_dispatch = dispatched_task_count() - before
        # Dispatch stopped within one in-flight window of the hangup:
        # the orphaned sweep never submitted anywhere near its full
        # grid (16 cells at 2 workers → window 4; a handful of rows
        # flow before the dead socket is noticed).
        assert cancelled_dispatch < cells - 4

        # The pool survived the cancellation and an identical request
        # recomputes cleanly on it (synthetic sweeps never cache).
        assert worker_pool_size() == 2
        rerun_before = dispatched_task_count()
        rows = list(connect(daemon.socket_path).sweep_lines(
            inline=_synthetic(cells, 0.0, "cancel-sole")
        ))
        assert len(rows) == cells
        assert dispatched_task_count() - rerun_before == cells

    def test_one_of_many_detach_does_not_cancel(self, daemon):
        inline = _synthetic(8, 0.1, "cancel-shared")
        survivor_rows = []
        start = threading.Barrier(2)

        def survivor():
            handle = connect(daemon.socket_path)
            start.wait()
            survivor_rows.extend(handle.sweep_lines(inline=inline))

        def quitter():
            handle = connect(daemon.socket_path)
            start.wait()
            stream = handle.sweep_lines(inline=inline)
            next(stream)
            stream.close()

        threads = [threading.Thread(target=survivor),
                   threading.Thread(target=quitter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = daemon.status_snapshot()
        assert len(survivor_rows) == 8
        assert snapshot["cancelled"] == 0
        assert snapshot["sweeps_computed"] == 1

    def test_explicit_cancel_verb(self, daemon):
        inline = _synthetic(16, 0.25, "cancel-verb")
        client = connect(daemon.socket_path)
        outcome = {}

        def consume():
            try:
                outcome["rows"] = len(list(client.sweep_lines(inline=inline)))
            except ServeRequestError as error:
                outcome["error"] = str(error)

        thread = threading.Thread(target=consume)
        thread.start()
        deadline = time.monotonic() + 10
        while client.last_ack is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert client.last_ack is not None
        assert connect(daemon.socket_path).cancel(client.last_ack["key"])
        thread.join(15)
        assert not thread.is_alive()
        # The attached subscriber saw the cancelled terminal as an error.
        assert "cancelled" in outcome["error"]
        snapshot = _await_idle(daemon)
        assert snapshot["cancelled"] == 1

    def test_cancel_unknown_key_reports_not_found(self, daemon):
        assert connect(daemon.socket_path).cancel("no-such-key") is False


class TestDeadline:
    def test_queued_expiry_never_touches_pool(self, tmp_path):
        clear_simulation_cache()
        shutdown_worker_pool()
        daemon = ServeDaemon(
            socket_path=str(tmp_path / "dl.sock"), jobs=2, max_active=1
        )
        daemon.start()
        try:
            blocker_cells = 4
            before = dispatched_task_count()
            blocker_rows = []
            started = threading.Event()

            def blocker():
                handle = connect(daemon.socket_path)
                stream = handle.sweep_lines(
                    inline=_synthetic(blocker_cells, 0.4, "dl-blocker")
                )
                blocker_rows.append(next(stream))
                started.set()
                blocker_rows.extend(stream)

            thread = threading.Thread(target=blocker)
            thread.start()
            assert started.wait(10)
            # The runner (max_active=1) is busy; this request expires
            # in the admission queue and must error without computing.
            with pytest.raises(ServeRequestError, match="deadline_exceeded"):
                list(connect(daemon.socket_path).sweep_lines(
                    inline=_synthetic(8, 0.2, "dl-queued"),
                    deadline_s=0.05,
                ))
            thread.join(15)
            assert len(blocker_rows) == blocker_cells
            # Only the blocker's cells ever reached the pool.
            assert dispatched_task_count() - before == blocker_cells
            assert daemon.status_snapshot()["deadline_exceeded"] == 1
        finally:
            daemon.drain()
            shutdown_worker_pool()
            clear_simulation_cache()

    def test_running_sweep_stops_within_cells_of_expiry(self, daemon):
        cells = 16
        before = dispatched_task_count()
        client = connect(daemon.socket_path)
        rows = []
        with pytest.raises(ServeRequestError, match="deadline_exceeded"):
            for line in client.sweep_lines(
                inline=_synthetic(cells, 0.2, "dl-running"),
                deadline_s=0.7,
            ):
                rows.append(line)
        # Some cells computed before expiry, nowhere near the full grid.
        assert 0 < len(rows) < cells
        assert dispatched_task_count() - before < cells
        assert daemon.status_snapshot()["deadline_exceeded"] == 1

    def test_rejects_non_positive_deadline(self, daemon):
        with pytest.raises(ServeRequestError, match="deadline_s"):
            list(connect(daemon.socket_path).sweep_lines(
                inline=_synthetic(2, 0.0, "dl-bad"), deadline_s=-1.0
            ))


class TestDeadlineSeam:
    """The executor-level deadline plumbed through SweepSpec.stream."""

    def test_serial_stream_deadline_raises_with_partial_rows(self):
        spec = synthetic_spec(cells=8, cell_s=0.1, tag="seam-serial")
        seen = []
        with pytest.raises(DeadlineExceededError):
            for cell in spec.stream(
                jobs=1, deadline=time.monotonic() + 0.25
            ):
                seen.append(cell.index)
        assert 0 < len(seen) < 8
        assert seen == sorted(seen)

    def test_parallel_stream_deadline_stops_dispatch(self):
        shutdown_worker_pool()
        spec = synthetic_spec(cells=12, cell_s=0.2, tag="seam-parallel")
        before = dispatched_task_count()
        with pytest.raises(DeadlineExceededError):
            for _cell in spec.stream(
                jobs=2, deadline=time.monotonic() + 0.5
            ):
                pass
        assert dispatched_task_count() - before < 12
        shutdown_worker_pool()


class TestAdmissionErrors:
    def test_unexpected_admit_error_answers_error_line(self, daemon):
        # cells=[] explodes in int() with TypeError — *not* the
        # ConfigurationError the admit path anticipates. The client
        # must still receive an error control line, never a bare EOF.
        with pytest.raises(ServeRequestError, match="TypeError"):
            list(connect(daemon.socket_path).sweep_lines(
                inline={"kind": "synthetic", "cells": []}
            ))
        assert daemon.status_snapshot()["errors"] == 1

    def test_rate_limit_covers_unix_transport(self, tmp_path):
        clear_simulation_cache()
        shutdown_worker_pool()
        daemon = ServeDaemon(
            socket_path=str(tmp_path / "rl.sock"), jobs=1, max_active=1,
            rate_limit=0.001, rate_burst=2.0,
        )
        daemon.start()
        try:
            client = connect(daemon.socket_path)
            for tag in ("rl-0", "rl-1"):
                assert list(client.sweep_lines(
                    inline=_synthetic(1, 0.0, tag)
                ))
            with pytest.raises(ServeRequestError, match="rate limited"):
                list(client.sweep_lines(inline=_synthetic(1, 0.0, "rl-2")))
            assert daemon.status_snapshot()["rate_limited"] == 1
        finally:
            daemon.drain()
            shutdown_worker_pool()
            clear_simulation_cache()


class TestClientTimeout:
    def test_stalled_daemon_maps_to_unavailable(self, tmp_path):
        """A daemon that acks then stalls mid-stream must surface as
        ServeUnavailableError, not a raw socket.timeout."""
        path = str(tmp_path / "stalled.sock")
        release = threading.Event()
        bound = threading.Event()

        def stalled_daemon():
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            listener.listen(1)
            bound.set()
            conn, _ = listener.accept()
            channel = LineChannel(conn)
            channel.recv_line()
            channel.send_line(
                control_line("ack", key="stall", coalesced=False)
            )
            release.wait(10.0)  # no rows, no end marker: a stall
            channel.close()
            listener.close()

        thread = threading.Thread(target=stalled_daemon, daemon=True)
        thread.start()
        assert bound.wait(10)
        client = ServeClient(socket_path=path, timeout=0.3)
        with pytest.raises(ServeUnavailableError, match="no data for"):
            list(client.sweep_lines(
                inline={"kind": "synthetic", "cells": 1}
            ))
        release.set()
        thread.join(5)


class TestHttpFrontend:
    @pytest.fixture
    def frontend(self, daemon):
        fe = ServeHttpFrontend(daemon, port=0)
        fe.start()
        yield fe
        fe.close()

    def _get_json(self, frontend, path):
        with urllib.request.urlopen(frontend.url + path, timeout=10) as resp:
            return json.loads(resp.read().decode("utf-8"))

    @staticmethod
    def _sse_events(body):
        """Parse an SSE body into (event, data) pairs."""
        events = []
        for frame in body.split("\n\n"):
            if not frame.strip():
                continue
            event = "message"
            data = None
            for line in frame.split("\n"):
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    data = line[len("data: "):]
            events.append((event, data))
        return events

    def test_ping_status_and_404(self, frontend):
        assert self._get_json(frontend, "/ping") == {"serve": "pong"}
        status = self._get_json(frontend, "/status")
        assert status["serve"] == "status"
        assert "requests" in status and "pool" in status
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get_json(frontend, "/nowhere")
        assert excinfo.value.code == 404

    def test_sse_stream_bit_identical_to_socket_and_coalesces(
        self, daemon, frontend
    ):
        inline = _synthetic(6, 0.15, "sse-identity")
        query = urllib.parse.urlencode({"inline": json.dumps(inline)})
        socket_rows = []
        sse_rows = []
        start = threading.Barrier(2)

        def socket_client():
            handle = connect(daemon.socket_path)
            start.wait()
            socket_rows.extend(handle.sweep_lines(inline=inline))

        def sse_client():
            start.wait()
            with urllib.request.urlopen(
                f"{frontend.url}/sweep?{query}", timeout=30
            ) as resp:
                assert resp.headers["Content-Type"] == "text/event-stream"
                body = resp.read().decode("utf-8")
            for event, data in self._sse_events(body):
                if event == "message":
                    sse_rows.append(data)

        threads = [threading.Thread(target=socket_client),
                   threading.Thread(target=sse_client)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Byte-identical row streams over both transports...
        assert socket_rows and sse_rows == socket_rows
        # ...coalesced onto ONE compute (a post-completion straggler
        # would replay rather than recompute, but synthetic sweeps
        # never cache — so both requests must have shared the job).
        snapshot = daemon.status_snapshot()
        assert snapshot["sweeps_computed"] == 1
        assert snapshot["coalesced"] == 1

    def test_sse_terminal_frames(self, frontend):
        inline = _synthetic(2, 0.0, "sse-frames")
        query = urllib.parse.urlencode({"inline": json.dumps(inline)})
        with urllib.request.urlopen(
            f"{frontend.url}/sweep?{query}", timeout=30
        ) as resp:
            body = resp.read().decode("utf-8")
        events = self._sse_events(body)
        kinds = [event for event, _ in events]
        assert kinds[0] == "ack"
        assert kinds[-1] == "end"
        assert kinds.count("message") == 2
        end = json.loads(events[-1][1])
        assert end["state"] == "finished"
        assert end["rows"] == 2

    def test_sweep_rejects_bad_requests(self, frontend):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            with urllib.request.urlopen(
                f"{frontend.url}/sweep?scenario=notascenario", timeout=10
            ):
                pass
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            with urllib.request.urlopen(
                f"{frontend.url}/sweep?inline=notjson", timeout=10
            ):
                pass
        assert excinfo.value.code == 400

    def test_http_cancel_endpoint(self, daemon, frontend):
        client = connect(daemon.socket_path)
        inline = _synthetic(16, 0.25, "http-cancel")
        outcome = {}

        def consume():
            try:
                outcome["rows"] = len(list(client.sweep_lines(inline=inline)))
            except ServeRequestError as error:
                outcome["error"] = str(error)

        thread = threading.Thread(target=consume)
        thread.start()
        deadline = time.monotonic() + 10
        while client.last_ack is None and time.monotonic() < deadline:
            time.sleep(0.02)
        key = client.last_ack["key"]
        reply = self._get_json(
            frontend, "/cancel?" + urllib.parse.urlencode({"key": key})
        )
        assert reply == {"serve": "cancelled", "key": key, "found": True}
        thread.join(15)
        assert "cancelled" in outcome["error"]


class TestPreload:
    def test_preload_warms_memory_from_disk(self, tmp_path):
        """--preload derives a scenario's keys and warms the LRU.

        A first daemon computes figure12 into a cache dir; a second
        daemon preloading that scenario serves its first request at
        memory-hit latency (zero misses) and reports progress in
        /status.
        """
        from repro.sim.cache import (
            configure_simulation_cache_dir,
            simulation_cache_stats,
        )

        cache_dir = str(tmp_path / "cache")
        configure_simulation_cache_dir(cache_dir)
        try:
            clear_simulation_cache()
            shutdown_worker_pool()
            first = ServeDaemon(
                socket_path=str(tmp_path / "a.sock"), jobs=2, max_active=2
            )
            first.start()
            baseline = list(connect(first.socket_path).sweep_lines("figure12"))
            first.drain()  # flushes the memory tier to disk
            shutdown_worker_pool()
            clear_simulation_cache()

            second = ServeDaemon(
                socket_path=str(tmp_path / "b.sock"), jobs=2, max_active=2,
                preload=["figure12"],
            )
            second.start()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                preload = second.status_snapshot()["preload"]
                if preload["done"]:
                    break
                time.sleep(0.02)
            assert preload["done"]
            assert preload["scenarios"] == ["figure12"]
            assert preload["keys"] > 0
            assert preload["warmed"] == preload["keys"]
            replay = list(connect(second.socket_path).sweep_lines("figure12"))
            assert replay == baseline
            assert simulation_cache_stats().misses == 0
            snapshot = second.status_snapshot()
            assert snapshot["disk"] is not None
            assert snapshot["disk"]["index_entries"] >= preload["keys"]
            second.drain()
        finally:
            configure_simulation_cache_dir(None)
            shutdown_worker_pool()
            clear_simulation_cache()

    def test_unknown_preload_scenario_degrades(self, tmp_path):
        from repro.sim.cache import configure_simulation_cache_dir

        cache_dir = str(tmp_path / "cache")
        configure_simulation_cache_dir(cache_dir)
        try:
            clear_simulation_cache()
            shutdown_worker_pool()
            daemon = ServeDaemon(
                socket_path=str(tmp_path / "serve.sock"), jobs=1,
                max_active=1, preload=["no-such-scenario"],
            )
            daemon.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                preload = daemon.status_snapshot()["preload"]
                if preload["done"]:
                    break
                time.sleep(0.02)
            assert preload["done"]
            assert preload["warmed"] == 0
            assert connect(daemon.socket_path).ping()
            daemon.drain()
        finally:
            configure_simulation_cache_dir(None)
            shutdown_worker_pool()
            clear_simulation_cache()


class TestDrainSymmetry:
    def test_drain_releases_width_one_claim(self, tmp_path):
        """A jobs=1 daemon claims no forked pool but still owns the
        pool seam; drain must release it (the leak this pins)."""
        shutdown_worker_pool()
        daemon = ServeDaemon(
            socket_path=str(tmp_path / "w1.sock"), jobs=1, max_active=1
        )
        daemon.start()
        assert worker_pool_owned()
        daemon.drain()
        assert not worker_pool_owned()
        assert worker_pool_size() == 0

    def test_drain_stops_the_accept_thread(self, tmp_path):
        """close() alone leaves a thread blocked in accept(); drain must
        wake it and join it, so no serve-accept thread outlives drain."""
        shutdown_worker_pool()
        daemon = ServeDaemon(
            socket_path=str(tmp_path / "acc.sock"), jobs=1, max_active=1
        )
        daemon.start()
        accept_thread = daemon._accept_thread
        assert accept_thread is not None
        # A served ping proves the loop ran; the pause lets it block in
        # accept() again, the state close() alone never wakes.
        assert connect(daemon.socket_path).ping()
        time.sleep(0.2)
        assert accept_thread.is_alive()
        daemon.drain(timeout=10.0)
        assert not accept_thread.is_alive()
        assert all(
            thread is not accept_thread for thread in threading.enumerate()
        )
