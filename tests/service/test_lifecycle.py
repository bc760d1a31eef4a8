"""The one serve-and-drain lifecycle, run the way each server runs it.

``repro serve`` (a real process stopped by SIGTERM) and
:class:`~repro.service.server.ServiceServer` (a daemon thread stopped by
``stop()``) both run :func:`~repro.service.server.serve_and_drain`: bind,
serve, close the listeners, let running jobs finish, release the pool.
The cluster's front router shares the server's thread runner and its
close step: at a stop, connections still open are closed and awaited.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.service import FrontRouter, ServiceServer
from tests.service.conftest import ServiceClient, make_app

SRC = Path(__file__).resolve().parents[2] / "src"

#: About a second of simulation on a 2-vCPU host: recoveries every half
#: time unit keep every run going to the horizon.
SLOW_JOB = {
    "configurations": {"Set1": ["Windows2003", "Solaris", "Debian", "OpenBSD"]},
    "runs": 8000,
    "horizon": 50.0,
    "recovery_intervals": [0.5],
    "seed": 3,
}

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def _wait_running(client: ServiceClient, job_id: str, timeout: float = 30.0) -> str:
    """Poll until the job has left the queue; returns its state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = client.get(f"/v1/jobs/{job_id}").json()["state"]
        if state != "queued":
            return state
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never started")


def _taken_port():
    """A listening socket on a free loopback port, and the port."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen()
    return sock, sock.getsockname()[1]


class TestReproServe:
    def test_sigterm_drains_a_running_job_and_exits_zero(self):
        lines = []
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            watchdog = threading.Timer(120.0, process.kill)
            watchdog.start()
            try:
                for line in process.stderr:
                    lines.append(line)
                    match = _LISTENING.search(line)
                    if match:
                        break
                assert match, "".join(lines)
                client = ServiceClient(f"http://{match.group(1)}:{match.group(2)}")
                submitted = client.post_json("/v1/simulations", SLOW_JOB)
                assert submitted.status == 202
                assert _wait_running(client, submitted.json()["job_id"]) == "running"
                process.send_signal(signal.SIGTERM)
                lines.extend(process.stderr)
                assert process.wait() == 0, "".join(lines)
            finally:
                watchdog.cancel()
                process.kill()
        output = "".join(lines)
        assert "signal received; draining ..." in output
        assert lines[-1].strip() == "shutdown complete", output


#: Twenty rounds of start, one request, two idle clients (one kept alive
#: after a request, one connected just before the stop), stop.
_IDLE_CLIENTS_AT_STOP = """
import socket, time, urllib.request
from repro.service import (
    DiversityService, ServiceConfig, ServiceServer, StaticDatasetProvider,
)
from repro.synthetic.corpus import build_corpus

entries = build_corpus().entries
slowest = 0.0
for _ in range(20):
    server = ServiceServer(
        DiversityService(ServiceConfig(), StaticDatasetProvider(entries, label="t"))
    )
    base = server.start()
    with urllib.request.urlopen(base + "/healthz") as response:
        response.read()
    address = base[len("http://"):].rsplit(":", 1)
    address = (address[0], int(address[1]))
    kept = socket.create_connection(address)
    kept.sendall(b"GET /healthz HTTP/1.1\\r\\nHost: t\\r\\n\\r\\n")
    assert kept.recv(65536).startswith(b"HTTP/1.1 200")
    fresh = socket.create_connection(address)
    started = time.monotonic()
    assert server.stop() is True
    slowest = max(slowest, time.monotonic() - started)
    assert kept.recv(65536) == b""  # closed by the server, in order
    kept.close()
    fresh.close()
print(f"slowest stop {slowest:.3f} s")
"""


class TestServiceServer:
    def test_idle_clients_at_stop_are_closed_without_warnings(self):
        completed = subprocess.run(
            [sys.executable, "-X", "dev", "-c", _IDLE_CLIENTS_AT_STOP],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "ResourceWarning" not in completed.stderr, completed.stderr
        assert "CancelledError" not in completed.stderr, completed.stderr
        slowest = float(completed.stdout.split()[-2])
        assert slowest < 5.0, completed.stdout

    def test_stop_returns_true_only_once_the_running_job_is_done(self, corpus):
        app = make_app(corpus)
        server = ServiceServer(app)
        client = ServiceClient(server.start())
        job_id = client.post_json("/v1/simulations", SLOW_JOB).json()["job_id"]
        assert _wait_running(client, job_id) == "running"
        assert server.stop(drain_grace=60.0) is True
        assert app.jobs.get(job_id).state == "done"
        # Stopped for good: the listener is closed and a second stop is a
        # no-op with the same answer.
        with pytest.raises(OSError):
            urllib.request.urlopen(server.base_url + "/healthz", timeout=5)
        assert server.stop() is True

    def test_a_job_past_its_grace_makes_stop_return_false(self, corpus):
        server = ServiceServer(make_app(corpus))
        client = ServiceClient(server.start())
        job_id = client.post_json("/v1/simulations", SLOW_JOB).json()["job_id"]
        assert _wait_running(client, job_id) == "running"
        assert server.stop(drain_grace=0.0) is False

    def test_a_taken_port_makes_start_raise(self, corpus):
        sock, port = _taken_port()
        with sock:
            server = ServiceServer(make_app(corpus), port=port)
            with pytest.raises(RuntimeError, match="failed to start"):
                server.start()
        assert server.base_url is None

    def test_the_context_manager_serves_and_stops(self, corpus):
        with ServiceServer(make_app(corpus)) as server:
            with urllib.request.urlopen(server.base_url + "/healthz") as response:
                assert json.loads(response.read())["service"] == "repro"


#: Twenty rounds of a server, a router in front of it, one request through
#: the router, two idle clients of the router (one kept alive after a
#: request, one connected just before the stop), the router's stop.
_IDLE_RELAYS_AT_STOP = """
import socket, time, urllib.request
from repro.service import (
    DiversityService, FrontRouter, ServiceConfig, ServiceServer, StaticDatasetProvider,
)
from repro.synthetic.corpus import build_corpus

entries = build_corpus().entries
slowest = 0.0
for _ in range(20):
    server = ServiceServer(
        DiversityService(ServiceConfig(), StaticDatasetProvider(entries, label="t"))
    )
    backend = server.start()[len("http://"):].rsplit(":", 1)
    router = FrontRouter("127.0.0.1", 0, [(backend[0], int(backend[1]))])
    address = ("127.0.0.1", router.start())
    with urllib.request.urlopen("http://%s:%d/healthz" % address) as response:
        response.read()
    kept = socket.create_connection(address)
    kept.sendall(b"GET /healthz HTTP/1.1\\r\\nHost: t\\r\\n\\r\\n")
    assert kept.recv(65536).startswith(b"HTTP/1.1 200")
    fresh = socket.create_connection(address)
    started = time.monotonic()
    router.stop()
    slowest = max(slowest, time.monotonic() - started)
    assert kept.recv(65536) == b""  # closed by the router, in order
    kept.close()
    fresh.close()
    assert server.stop() is True
print(f"slowest stop {slowest:.3f} s")
"""


class TestFrontRouterThread:
    def test_idle_relays_at_stop_are_closed_without_warnings(self):
        completed = subprocess.run(
            [sys.executable, "-X", "dev", "-c", _IDLE_RELAYS_AT_STOP],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "ResourceWarning" not in completed.stderr, completed.stderr
        assert "CancelledError" not in completed.stderr, completed.stderr
        slowest = float(completed.stdout.split()[-2])
        assert slowest < 5.0, completed.stdout

    def test_a_taken_port_makes_start_raise(self):
        sock, port = _taken_port()
        with sock:
            router = FrontRouter("127.0.0.1", port, [("127.0.0.1", 9)])
            with pytest.raises(RuntimeError, match="failed to start"):
                router.start()
        router.stop()
