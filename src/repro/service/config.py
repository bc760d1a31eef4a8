"""Configuration of the diversity-query API server.

One frozen dataclass carries every knob ``repro serve`` exposes, validated
at construction so a misconfigured server fails before it binds a socket.
The defaults serve the calibrated synthetic corpus on localhost -- the
zero-setup path used by the CI smoke test and the worked examples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.dataset import ENGINES
from repro.core.exceptions import ReproError

#: ``--catalogue`` spec: ``scaled:<families>x<releases>`` (e.g. 10x10 for
#: the 100-OS benchmark catalogue the scaling gates run on).
_CATALOGUE_SPEC = re.compile(r"^scaled:(\d+)x(\d+)$")


class ServiceConfigError(ReproError):
    """The service was configured inconsistently."""


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of one ``repro serve`` instance.

    ``workers`` is the number of serving **processes** the deployment runs
    (background simulation jobs run inline in the worker that accepted
    them, so N workers never fork N² job processes);
    ``request_threads`` sizes each worker's HTTP dispatch thread pool;
    ``cache_size`` caps the LRU response cache in entries; ``drain_grace``
    bounds how long a SIGTERM waits for running jobs before the loop
    stops.

    The worker block (``shard_index``, ``peers``) is filled in by
    :mod:`repro.service.cluster` when it derives one per-worker config from
    the deployment config: ``peers`` lists every worker's internal base URL
    and ``shard_index`` is this worker's position in it.  The peers carry
    metric and trace gathering and job-poll forwarding; every worker
    answers matrix queries itself and learns of deltas from the shared
    ledger.  A standalone server has no peers and index 0.
    """

    host: str = "127.0.0.1"
    port: int = 8142
    workers: int = 1
    cache_size: int = 256
    engine: str = "bitset"
    seed: int = 20110627
    db: Optional[str] = None
    snapshot: Optional[str] = None
    feeds: Optional[str] = None
    drain_grace: float = 10.0
    #: Threads per worker that run ``dispatch`` off the event loop.
    request_threads: int = 8
    #: Serve a generated catalogue instead of the calibrated corpus
    #: (``scaled:10x10`` = 100 OS releases); deterministic per ``seed``, so
    #: every worker process rebuilds the identical dataset digest.
    catalogue: Optional[str] = None
    #: Force the stdlib front-router even where ``SO_REUSEPORT`` exists.
    front_router: bool = False
    #: This worker's index into ``peers`` (0 when standalone).
    shard_index: int = 0
    #: Internal base URLs of every worker, indexed by shard.
    peers: Tuple[str, ...] = ()
    #: Expose the public observability surface (``GET /metrics`` and
    #: ``GET /v1/traces``).  The internal scrape/trace endpoints stay up
    #: regardless, so a cluster keeps aggregating even when the public
    #: surface is off.
    metrics: bool = True
    #: Log every finished trace as one JSON line on stderr.
    trace_log: bool = False
    #: Finished traces retained per worker in the tracing ring buffer.
    trace_buffer: int = 256

    def __post_init__(self) -> None:
        if not self.host:
            raise ServiceConfigError("the server needs a host to bind")
        if not 0 <= self.port <= 65535:
            raise ServiceConfigError(f"port {self.port} is outside 0-65535")
        if self.workers < 1:
            raise ServiceConfigError("the deployment needs at least one worker process")
        if self.cache_size < 1:
            raise ServiceConfigError("the response cache needs at least one entry")
        if self.engine not in ENGINES:
            raise ServiceConfigError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.drain_grace < 0:
            raise ServiceConfigError("the drain grace period must be non-negative")
        if self.request_threads < 1:
            raise ServiceConfigError(
                "the request executor needs at least one thread"
            )
        if self.trace_buffer < 1:
            raise ServiceConfigError(
                "the trace ring buffer needs at least one slot"
            )
        if not 0 <= self.shard_index < max(1, len(self.peers)):
            raise ServiceConfigError(
                f"shard index {self.shard_index} does not index the "
                f"{len(self.peers)} peer URLs"
            )
        if self.catalogue is not None:
            if self.db or self.feeds:
                raise ServiceConfigError(
                    "--catalogue is mutually exclusive with --db/--feeds"
                )
            if self.scaled_catalogue_shape() is None:
                raise ServiceConfigError(
                    f"unknown catalogue spec {self.catalogue!r}; expected "
                    "scaled:<families>x<releases>, e.g. scaled:10x10"
                )
        if self.db and self.feeds:
            raise ServiceConfigError("--db and --feeds are mutually exclusive")
        if self.snapshot and not self.db:
            raise ServiceConfigError("--snapshot requires --db")

    def scaled_catalogue_shape(self) -> Optional[Tuple[int, int]]:
        """The ``(families, releases)`` of a ``scaled:FxR`` catalogue spec."""
        if self.catalogue is None:
            return None
        match = _CATALOGUE_SPEC.match(self.catalogue)
        if match is None or int(match.group(1)) < 1 or int(match.group(2)) < 1:
            return None
        return int(match.group(1)), int(match.group(2))
