"""The load generator: open-loop HTTP/1.1 over keep-alive sockets.

One generator process drives at most ``nproc`` connections.  Open loop sends
each operation when it is due whether or not earlier ones finished, and
times it from its due time, so a stall also charges the requests queued
behind it.

To stay on time the generator sleeps in ``select`` only until ``SPIN_S``
before the next due time and then polls; a generator that only slept in
``select`` ran milliseconds late at the tail, and open-loop lateness lands in
every latency.

In open loop the generator also times ``perfbench.speed.kernel`` passes
while no request is in flight and the next one is not due soon, so the host
speed of the program's CPU is sampled across the phase without taking CPU
time from the program.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from perfbench import speed

#: Sleep in select() until this long before a due time, then poll.
SPIN_S = 0.002

#: Longest the generator waits for in-flight requests after a phase.
DRAIN_S = 60.0

TRACE_HEADER = "X-Repro-Trace"

#: A kernel pass runs only while the next op is due at least this far off.
KERNEL_GAP_S = 0.008

#: At most one kernel pass per this many seconds (a few % of one CPU).
KERNEL_EVERY_S = 0.05


@dataclass
class Op:
    """One scheduled request."""

    due: float  # seconds after the phase start (open loop only)
    method: str
    path: str
    kind: str = "read"  # "read" or "write"
    key: int = 0  # URL index for reads, delta index for writes
    conditional: bool = False  # present the last ETag seen for this URL
    body: bytes = b""
    content_type: str = ""


class Record:
    """What happened to one sent operation (all times on the generator clock)."""

    __slots__ = (
        "op", "trace_id", "conn", "due", "free_at", "sent", "done",
        "status", "etag", "presented", "body",
    )

    def __init__(self, op: Op, trace_id: str, conn: int, due: float,
                 free_at: float, sent: float, presented: Optional[str]) -> None:
        self.op = op
        self.trace_id = trace_id
        self.conn = conn
        self.due = due
        self.free_at = free_at
        self.sent = sent
        self.done: Optional[float] = None
        self.status = 0
        self.etag: Optional[str] = None
        self.presented = presented
        self.body = b""

    @property
    def lateness(self) -> float:
        """How late the generator sent this op once a connection was free."""
        return self.sent - max(self.due, self.free_at)

    @property
    def latency(self) -> float:
        """Open-loop latency: completion minus the due time."""
        return self.done - self.due

    @property
    def service_time(self) -> float:
        """Completion minus send: what the connection itself waited."""
        return self.done - self.sent


def request_bytes(op: Op, trace_id: str, presented: Optional[str]) -> bytes:
    lines = [
        f"{op.method} {op.path} HTTP/1.1",
        "Host: 127.0.0.1",
        f"{TRACE_HEADER}: {trace_id}",
    ]
    if presented:
        lines.append(f"If-None-Match: {presented}")
    if op.body or op.method == "POST":
        lines.append(f"Content-Type: {op.content_type or 'application/octet-stream'}")
        lines.append(f"Content-Length: {len(op.body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + op.body


class ResponseParser:
    """Incremental parser for Content-Length framed HTTP/1.1 responses."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._head = None

    def feed(self, chunk: bytes):
        """Add bytes; return (status, etag, body) once a response is whole."""
        self.buffer += chunk
        if self._head is None:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return None
            lines = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length, etag = 0, None
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "etag":
                    etag = value.strip()
            self._head = (status, etag, end + 4, end + 4 + length)
        status, etag, body_at, total = self._head
        if len(self.buffer) < total:
            return None
        body = bytes(self.buffer[body_at:total])
        del self.buffer[:total]
        self._head = None
        return status, etag, body


class Connection:
    def __init__(self, port: int, index: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=DRAIN_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.index = index
        self.parser = ResponseParser()
        self.record: Optional[Record] = None
        self.free_at = 0.0

    def close(self) -> None:
        self.sock.close()


class OpenLoopQueue:
    """Which op goes out next, and when; no sockets, no clock of its own.

    ``release(now)`` moves every op due by ``now`` to the pending queue;
    ``take()`` hands out the oldest pending op.  Ops wait in the queue while
    every connection is busy, and that wait counts in their latency because
    latency runs from the due time.
    """

    def __init__(self, ops: Sequence[Op], start: float) -> None:
        self.ops = sorted(ops, key=lambda op: op.due)
        self.start = start
        self.index = 0
        self.pending: Deque[Op] = deque()

    def release(self, now: float) -> None:
        while self.index < len(self.ops) and self.start + self.ops[self.index].due <= now:
            self.pending.append(self.ops[self.index])
            self.index += 1

    def next_due(self) -> Optional[float]:
        if self.index < len(self.ops):
            return self.start + self.ops[self.index].due
        return None

    def take(self) -> Op:
        return self.pending.popleft()

    def due_of(self, op: Op) -> float:
        return self.start + op.due


class _no_gc:
    """Collector pauses would land in the generator's lateness; the phase
    allocates no reference cycles, so collection waits until it ends."""

    def __enter__(self) -> None:
        gc.collect()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        gc.enable()


class LoadGen:
    """Drives one phase at a time over a fixed set of keep-alive connections."""

    def __init__(
        self, port: int, connections: int, trace_prefix: str, tick: Callable[[float], None]
    ) -> None:
        self.tick = tick
        self.trace_prefix = trace_prefix
        self.conns = [Connection(port, index) for index in range(connections)]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.etags: Dict[int, str] = {}
        self.sequence = 0
        self.done: List[Record] = []
        #: Kernel pass times (ms) of the last open-loop phase, and when each ran.
        self.kernel_ms: List[float] = []
        self.kernel_at: List[float] = []

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()

    # -- one request ---------------------------------------------------------

    def _send(self, conn: Connection, op: Op, due: float) -> None:
        self.sequence += 1
        trace_id = f"{self.trace_prefix}{self.sequence}"
        presented = self.etags.get(op.key) if op.conditional else None
        data = request_bytes(op, trace_id, presented)
        sent = time.perf_counter()
        conn.record = Record(op, trace_id, conn.index, due, conn.free_at, sent, presented)
        conn.sock.sendall(data)

    def _poll(self, timeout: float) -> None:
        for key, _events in self.selector.select(timeout):
            conn: Connection = key.data
            chunk = conn.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError(f"server closed connection {conn.index}")
            parsed = conn.parser.feed(chunk)
            if parsed is None:
                continue
            record = conn.record
            record.done = time.perf_counter()
            record.status, record.etag, record.body = parsed
            if record.op.kind == "read" and record.status == 200 and record.etag:
                self.etags[record.op.key] = record.etag
            conn.record = None
            conn.free_at = record.done
            self.done.append(record)

    def _idle(self) -> List[Connection]:
        return [conn for conn in self.conns if conn.record is None]

    def _drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_S
        while any(conn.record is not None for conn in self.conns):
            if time.perf_counter() > deadline:
                raise TimeoutError("requests still in flight after the phase")
            self._poll(0.05)

    # -- phases ---------------------------------------------------------------

    def open_loop(
        self, ops: Sequence[Op], start: float, stop: Callable[[float], bool]
    ) -> List[Record]:
        """Send each op at ``start + op.due`` until ``stop(now)`` holds."""
        with _no_gc():
            return self._open_loop(ops, start, stop)

    def _open_loop(self, ops, start, stop) -> List[Record]:
        self.done = []
        self.kernel_ms = []
        self.kernel_at = []
        next_kernel = start
        for conn in self.conns:
            conn.free_at = start
        queue = OpenLoopQueue(ops, start)
        while True:
            now = time.perf_counter()
            self.tick(now)
            if stop(now):
                break
            queue.release(now)
            for conn in self._idle():
                if not queue.pending:
                    break
                op = queue.take()
                self._send(conn, op, queue.due_of(op))
            next_due = queue.next_due()
            if next_due is None and not queue.pending and not any(
                conn.record for conn in self.conns
            ):
                break
            now = time.perf_counter()
            quiet = not queue.pending and len(self._idle()) == len(self.conns)
            if (quiet and now >= next_kernel and next_due is not None
                    and next_due - now >= KERNEL_GAP_S):
                self.kernel_at.append(now)
                self.kernel_ms.append(speed.kernel_pass_ms())
                next_kernel = now + KERNEL_EVERY_S
                continue
            timeout = 0.05 if next_due is None else next_due - now - SPIN_S
            self._poll(max(0.0, min(timeout, 0.05)))
        self._drain()
        return self.done
