"""Request tracing: trace ids, spans, and the bounded per-worker ring.

Every HTTP request the service dispatches gets a :class:`Trace` -- either
joining the id a client (or a coordinating peer worker) supplied in the
``X-Repro-Trace`` header, or minting a fresh one.  Handlers hang
:class:`Span` records off the active trace (``parse``, ``cache.lookup``,
``registry.compile``, ``ingest.apply``, ``ingest.broadcast``,
``metrics.gather``, ``jobs.forward``); finished traces land in a bounded
ring buffer (``collections.deque(maxlen=...)``) queryable at
``GET /v1/traces``.

Thread model: dispatch runs on a thread pool, so the "current trace" is
``threading.local`` per :class:`Tracer` (contextvars do not survive
``loop.run_in_executor`` hops).  Work handed to a *different* thread
records spans by capturing ``tracer.current()`` on the dispatch thread
and passing it to ``tracer.span(..., trace=...)`` explicitly, which is
the one sanctioned way to record spans from a foreign thread
(``Trace.record`` takes a lock).

Tracing is observe-only: ``span()`` with no active trace yields an inert
handle and records nothing, and no payload byte ever depends on a trace.
"""

from __future__ import annotations

import re
import threading
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.clock import CLOCK, Clock

#: The propagation header, echoed on every response.
TRACE_HEADER = "X-Repro-Trace"

#: Accepted externally-supplied trace ids (anything else is replaced).
_TRACE_ID = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (entropy is fine here: ids are not data)."""
    return uuid.uuid4().hex[:16]


def valid_trace_id(value: Optional[str]) -> bool:
    """Whether a client-supplied id is safe to adopt verbatim."""
    return value is not None and _TRACE_ID.match(value) is not None


class Span:
    """One timed step inside a trace (offsets relative to the trace start)."""

    __slots__ = ("name", "start", "duration", "tags")

    def __init__(
        self, name: str, start: float, duration: float, tags: Dict[str, str]
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.tags = tags

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_ms": round(self.start * 1000.0, 3),
            "duration_ms": round(self.duration * 1000.0, 3),
            "tags": dict(self.tags),
        }


class SpanHandle:
    """The mutable handle yielded by ``tracer.span(...)`` context blocks."""

    __slots__ = ("name", "tags")

    def __init__(self, name: str, tags: Dict[str, str]) -> None:
        self.name = name
        self.tags = tags

    def tag(self, **tags: object) -> None:
        """Attach (string-coerced) tags to the span being recorded."""
        for name, value in tags.items():
            self.tags[name] = str(value)


class Trace:
    """One request's spans, safe to append to from any thread."""

    def __init__(
        self,
        trace_id: str,
        name: str,
        shard: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        clock = clock if clock is not None else CLOCK
        self.trace_id = trace_id
        self.name = name
        self.shard = shard
        self.started = clock.perf()
        self.status: Optional[int] = None
        self.duration: Optional[float] = None
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def record(
        self,
        name: str,
        started_perf: float,
        duration: float,
        tags: Optional[Dict[str, str]] = None,
    ) -> None:
        """Append a span timed against this trace's clock origin."""
        span = Span(
            name=name,
            start=max(0.0, started_perf - self.started),
            duration=max(0.0, duration),
            tags=dict(tags or {}),
        )
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def to_json(self) -> Dict[str, object]:
        with self._lock:
            spans = sorted(self._spans, key=lambda span: (span.start, span.name))
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "shard": self.shard,
            "status": self.status,
            "duration_ms": (
                None if self.duration is None
                else round(self.duration * 1000.0, 3)
            ),
            "spans": [span.to_json() for span in spans],
        }


class Tracer:
    """Mints, activates and retains traces for one worker."""

    def __init__(
        self,
        buffer_size: int = 256,
        shard: int = 0,
        clock: Optional[Clock] = None,
        sink=None,
    ) -> None:
        if buffer_size < 1:
            raise ValueError("the trace ring buffer needs at least one slot")
        self.buffer_size = buffer_size
        self.shard = shard
        self._clock = clock if clock is not None else CLOCK
        self._sink = sink
        self._records: "deque[Trace]" = deque(maxlen=buffer_size)
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin(self, name: str, trace_id: Optional[str] = None) -> Trace:
        """A new trace, adopting ``trace_id`` when it is propagation-safe."""
        adopted = trace_id if valid_trace_id(trace_id) else new_trace_id()
        return Trace(adopted, name, shard=self.shard, clock=self._clock)

    def current(self) -> Optional[Trace]:
        """The trace active on this thread, if any."""
        return getattr(self._local, "trace", None)

    @contextmanager
    def activate(self, trace: Trace) -> Iterator[Trace]:
        """Make ``trace`` current on this thread for the block's duration."""
        previous = self.current()
        self._local.trace = trace
        try:
            yield trace
        finally:
            self._local.trace = previous

    @contextmanager
    def span(
        self,
        name: str,
        trace: Optional[Trace] = None,
        **tags: object,
    ) -> Iterator[SpanHandle]:
        """Record a span on ``trace`` (or the current one); no-op without one.

        Passing ``trace`` explicitly is how a thread with no thread-local
        current trace attaches its spans to the request that started the
        work.
        """
        target = trace if trace is not None else self.current()
        handle = SpanHandle(name, {key: str(value) for key, value in tags.items()})
        if target is None:
            yield handle
            return
        started = self._clock.perf()
        try:
            yield handle
        finally:
            target.record(
                handle.name, started, self._clock.perf() - started, handle.tags
            )

    def finish(self, trace: Trace, status: Optional[int] = None) -> None:
        """Stamp the outcome, retain the trace, and feed the log sink."""
        trace.status = status
        trace.duration = self._clock.perf() - trace.started
        with self._lock:
            self._records.append(trace)
        if self._sink is not None:
            self._sink(trace.to_json())

    def recent(self, limit: int = 20) -> List[Trace]:
        """The most recently finished traces, newest first."""
        with self._lock:
            records = list(self._records)
        return records[::-1][: max(0, limit)]

    def find(self, trace_id: str) -> List[Trace]:
        """Every retained trace with this id, oldest first."""
        with self._lock:
            return [
                trace for trace in self._records if trace.trace_id == trace_id
            ]
