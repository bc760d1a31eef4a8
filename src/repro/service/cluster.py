"""Multi-process serving: a worker fleet behind one public address.

``repro serve --workers N`` (N > 1) runs N **processes**, each a full
:class:`~repro.service.server.DiversityService` with its own artifact
registry, response cache and request thread pool -- no GIL sharing, no
cross-process locks on the hot path.  Three pieces glue them into one
deployment:

* **one public address** -- every worker binds the same ``host:port``
  with ``SO_REUSEPORT`` so the kernel load-balances accepted connections
  across processes.  Where the option is missing, a tiny stdlib asyncio
  TCP proxy in the parent process round-robins connections to the workers
  instead.
* **internal listeners** -- every worker also binds a private per-worker
  port.  Metric and trace gathering, job polls forwarded to the worker
  that owns the job, and per-worker health checks travel over these; the
  public address never routes them.
* **per-worker config** -- the deployment config is specialised per
  worker (``shard_index=i``, ``peers=<internal URLs>``).

Every worker answers pair and k-set matrix queries itself: on a 2-vCPU
host one worker's one-pass k-set payload was faster than the slower half
of a two-way split of the same query, before any transport was counted,
so the query is never split across workers.

Workers rebuild their dataset from the config alone (a ``--db`` ledger
path, a ``--catalogue`` spec, or the seeded synthetic corpus), so the
spawn boundary never pickles datasets -- and a shared SQLite ledger is
the single source of truth.  No worker tells another about a delta: each
request thread resolves the ledger head again once SQLite's ``PRAGMA
data_version`` shows a commit, so a delta ingested on any worker changes
the touched scopes' digests (and ETags) on every worker.

:class:`ServiceCluster` is the test/benchmark harness (start/stop from
any thread); :func:`serve_cluster` is the blocking CLI entry point with
SIGTERM-propagating drain.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import multiprocessing
import signal
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.service.config import ServiceConfig, ServiceConfigError
from repro.service.server import DiversityService, _handle_connection

#: How long ``ServiceCluster.start`` waits for every worker's internal
#: health check before declaring the deployment dead.
READY_TIMEOUT = 60.0


def reuseport_available() -> bool:
    """Whether this platform can share one listening port across processes."""
    return hasattr(socket, "SO_REUSEPORT")


# ---------------------------------------------------------------------------
# peer clients (duck-typed: get_json)
# ---------------------------------------------------------------------------


class HttpPeer:
    """A worker's internal listener, as a blocking JSON client.

    Used from dispatch threads only (never the event loop): one short
    connection per call keeps the client trivially thread-safe, and the
    internal listeners are loopback sockets where setup cost is small.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        parts = urlsplit(base_url)
        if parts.hostname is None or parts.port is None:
            raise ServiceConfigError(
                f"peer URL {base_url!r} needs an explicit host and port"
            )
        self.base_url = base_url
        self._host = parts.hostname
        self._port = parts.port
        self._timeout = timeout

    def get_json(
        self, path: str, headers: Optional[Dict[str, str]] = None
    ) -> Optional[Dict[str, object]]:
        """GET a JSON payload; ``None`` on any non-200 answer."""
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        try:
            connection.request("GET", path, headers=headers or {})
            response = connection.getresponse()
            if response.status != 200:
                return None
            return json.loads(response.read())
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _host_port(url: str) -> Tuple[str, int]:
    parts = urlsplit(url)
    if parts.hostname is None or parts.port is None:
        raise ServiceConfigError(f"URL {url!r} needs an explicit host and port")
    return parts.hostname, parts.port


def _reuseport_socket(host: str, port: int) -> socket.socket:
    """A listening socket the kernel load-balances with the other workers'."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
    except BaseException:  # repro: noqa[GEN301] -- re-raised: only the leaked fd is cleaned up
        sock.close()
        raise
    return sock


async def _worker_serve(
    app: DiversityService,
    config: ServiceConfig,
    public: Optional[Tuple[str, int]],
) -> int:
    """One worker's event loop: internal listener, optional public listener."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    def handler(reader, writer):
        return _handle_connection(app, reader, writer)

    internal_host, internal_port = _host_port(config.peers[config.shard_index])
    internal = await asyncio.start_server(
        handler, host=internal_host, port=internal_port
    )
    servers = [internal]
    if public is not None:
        servers.append(
            await asyncio.start_server(
                handler, sock=_reuseport_socket(public[0], public[1])
            )
        )
    app.obs_log.log(
        "worker.up",
        shard=config.shard_index,
        shards=len(config.peers),
        internal=f"http://{internal_host}:{internal_port}",
        public=f"http://{public[0]}:{public[1]}" if public else None,
    )
    await stop.wait()
    for server in servers:
        server.close()
        await server.wait_closed()
    drained = await app.drain_async(config.drain_grace)
    app.shutdown()
    return 0 if drained else 1


def worker_main(
    config: ServiceConfig, public: Optional[Tuple[str, int]]
) -> None:
    """Spawn target for one worker process (must stay module-level)."""
    app = DiversityService(config)
    sys.exit(asyncio.run(_worker_serve(app, config, public)))


# ---------------------------------------------------------------------------
# front-router fallback (platforms without SO_REUSEPORT)
# ---------------------------------------------------------------------------


async def _pump(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                break
            writer.write(chunk)
            await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass


class FrontRouter:
    """A round-robin TCP proxy from the public address to worker listeners.

    Deliberately layer-4: it never parses HTTP, so keep-alive pipelining,
    chunked 501s and half-closed streams all behave exactly as if the
    client had dialled the worker directly.  Runs its own event loop on a
    daemon thread so :class:`ServiceCluster` can drive it synchronously.
    """

    def __init__(
        self, host: str, port: int, backends: Sequence[Tuple[str, int]]
    ) -> None:
        if not backends:
            raise ServiceConfigError("the front-router needs at least one backend")
        self._host = host
        self._port = port
        self._backends = list(backends)
        self._next = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.bound_port: Optional[int] = None

    async def _relay(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        backend = self._backends[self._next % len(self._backends)]
        self._next += 1
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(*backend)
        except OSError:
            writer.close()
            return
        try:
            await asyncio.gather(
                _pump(reader, upstream_writer),
                _pump(upstream_reader, writer),
                return_exceptions=True,
            )
        finally:
            for stream in (writer, upstream_writer):
                stream.close()
                try:
                    await stream.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    def start(self) -> int:
        """Bind and proxy on a background thread; returns the bound port."""
        ready = threading.Event()
        failure: Dict[str, BaseException] = {}

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def main() -> None:
                self._stop = asyncio.Event()
                try:
                    server = await asyncio.start_server(
                        self._relay, host=self._host, port=self._port
                    )
                except OSError as error:
                    failure["error"] = error
                    ready.set()
                    return
                self.bound_port = server.sockets[0].getsockname()[1]
                ready.set()
                await self._stop.wait()
                server.close()
                await server.wait_closed()

            loop.run_until_complete(main())
            # Reap in-flight relay tasks before closing the loop, so no
            # half-open transport is garbage-collected against a dead loop.
            pending = [
                task for task in asyncio.all_tasks(loop) if not task.done()
            ]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-front-router", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10) or self.bound_port is None:
            raise RuntimeError(
                f"front-router failed to start: {failure.get('error', 'timeout')}"
            )
        return self.bound_port

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)


# ---------------------------------------------------------------------------
# the cluster
# ---------------------------------------------------------------------------


def _reserve_ports(host: str, count: int) -> List[int]:
    """Distinct free ports, reserved simultaneously so none repeats."""
    sockets: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class ServiceCluster:
    """An N-worker deployment, drivable from tests and the CLI.

    ``start()`` derives one config per worker, spawns the
    processes (``spawn`` context: workers rebuild state from config, so
    behaviour matches a cold ``repro serve`` exactly), waits for every
    internal health check, and returns the public base URL.  ``stop()``
    SIGTERMs the fleet and reaps it.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.mode = "reuseport" if reuseport_available() else "front-router"
        self.processes: List[multiprocessing.process.BaseProcess] = []
        self.worker_configs: List[ServiceConfig] = []
        self.internal_urls: List[str] = []
        self.base_url: Optional[str] = None
        self._router: Optional[FrontRouter] = None

    def start(self, ready_timeout: float = READY_TIMEOUT) -> str:
        workers = self.config.workers
        host = self.config.host
        ports = _reserve_ports(host, workers + (0 if self.config.port else 1))
        internal_ports, spare = ports[:workers], ports[workers:]
        public_port = self.config.port or spare[0]
        peers = tuple(f"http://{host}:{port}" for port in internal_ports)
        self.internal_urls = list(peers)
        public = (host, public_port) if self.mode == "reuseport" else None
        context = multiprocessing.get_context("spawn")
        for index in range(workers):
            worker_config = dataclasses.replace(
                self.config,
                port=public_port,
                shard_index=index,
                peers=peers,
            )
            self.worker_configs.append(worker_config)
            process = context.Process(
                target=worker_main,
                args=(worker_config, public),
                name=f"repro-worker-{index}",
            )
            process.start()
            self.processes.append(process)
        try:
            self._await_ready(ready_timeout)
            if self.mode == "front-router":
                self._router = FrontRouter(
                    host, public_port, [_host_port(url) for url in peers]
                )
                self._router.start()
        except BaseException:  # repro: noqa[GEN301] -- re-raised: a half-started fleet must not outlive the failure
            self.stop()
            raise
        self.base_url = f"http://{host}:{public_port}"
        return self.base_url

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for index, url in enumerate(self.internal_urls):
            peer = HttpPeer(url, timeout=2.0)
            while True:
                process = self.processes[index]
                if not process.is_alive():
                    raise RuntimeError(
                        f"worker {index} exited with code {process.exitcode} "
                        "before becoming healthy"
                    )
                try:
                    if peer.get_json("/healthz") is not None:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {index} ({url}) not healthy after {timeout}s"
                    )
                time.sleep(0.05)

    def healthz(self) -> List[Dict[str, object]]:
        """Every worker's health, in shard order -- dead peers included.

        Each record is ``{"url", "ok", "payload", "error"}``: a healthy
        worker carries its ``/healthz`` payload and ``error: None``; a
        dead or unhealthy one reports ``ok: False`` with the failure text
        instead of silently contributing a ``None`` entry.
        """
        report: List[Dict[str, object]] = []
        for url in self.internal_urls:
            record: Dict[str, object] = {
                "url": url, "ok": False, "payload": None, "error": None,
            }
            try:
                payload = HttpPeer(url).get_json("/healthz")
            except OSError as error:
                record["error"] = f"{type(error).__name__}: {error}"
            else:
                if payload is None:
                    record["error"] = "non-200 health response"
                else:
                    record["ok"] = True
                    record["payload"] = payload
            report.append(record)
        return report

    def stop(self, grace: float = 15.0) -> bool:
        """SIGTERM the fleet, reap it, stop the router; True if all drained."""
        if self._router is not None:
            self._router.stop()
            self._router = None
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        clean = True
        deadline = time.monotonic() + grace
        for process in self.processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover -- drain overran its grace
                process.kill()
                process.join(timeout=5)
                clean = False
            elif process.exitcode != 0:
                clean = False
        self.processes = []
        return clean

    def __enter__(self) -> "ServiceCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_cluster(config: ServiceConfig) -> int:
    """Run an N-worker deployment until SIGTERM/SIGINT (CLI entry point)."""
    cluster = ServiceCluster(config)
    stop = threading.Event()

    def on_signal(_signum, _frame):
        stop.set()

    previous = {
        signum: signal.signal(signum, on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        base_url = cluster.start()
        print(
            f"repro cluster listening on {base_url} "
            f"({config.workers} workers, {cluster.mode} mode)",
            file=sys.stderr,
        )
        stop.wait()
        print("signal received; draining workers ...", file=sys.stderr)
        clean = cluster.stop(grace=config.drain_grace + 5.0)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        "shutdown complete" if clean else "shutdown with unfinished workers",
        file=sys.stderr,
    )
    return 0 if clean else 1
