"""The asyncio diversity-query API server (``repro serve``).

Two layers live here:

* :class:`DiversityService` -- the transport-free application: the route
  table, the request handlers, and the wiring between the
  :class:`~repro.service.registry.ArtifactRegistry` (compile once per
  dataset digest), the :class:`~repro.service.cache.ResponseCache`
  (scoped-digest ETags, ``If-None-Match`` -> 304) and the
  :class:`~repro.service.jobs.JobTable` (``202`` + poll for simulations).
  ``dispatch`` is synchronous and thread-safe, so tests and benchmarks can
  drive it directly.
* the **asyncio HTTP/1.1 front end** -- a stdlib-only
  ``asyncio.start_server`` loop that parses requests, runs ``dispatch``
  on a small thread pool (compiles and SQLite reads never block the event
  loop) and writes JSON responses with keep-alive support.  Every server
  runs one lifecycle, :func:`serve_and_drain`: bind, serve until a stop,
  close the listeners, give running jobs a grace period, release the
  request pool.  :func:`serve` runs it as the blocking CLI entry point
  (SIGTERM/SIGINT stop it), each cluster worker runs it on its own
  listeners, and :class:`ServiceServer` runs it on a background thread for
  tests, benchmarks and the worked example.

Endpoints (all payloads are canonical JSON, see ``docs/service.md``)::

    GET  /healthz                 version, dataset digest, uptime, stats
    GET  /metrics                 Prometheus text exposition (cluster view)
    GET  /v1/traces               recent request traces / one gathered trace
    GET  /v1/catalogue            OS names, years, dataset provenance
    GET  /v1/shared?os=A&os=B     vulnerabilities common to the named OSes
    GET  /v1/matrix/pairs         full pairwise shared matrix
    GET  /v1/matrix/ksets?k=3     k-set totals (best/worst combinations)
    GET  /v1/widest?top=3         widest-reaching vulnerabilities
    GET  /v1/selection?n=4        replica-set selection (b&b/greedy/graph)
    GET  /v1/snapshots            snapshot ledger        (db-backed only)
    GET  /v1/snapshots/{id}       one ledger record      (db-backed only)
    GET  /v1/snapshots/diff       blast radius between snapshots
    POST /v1/ingest/delta         apply a modified feed  (db-backed only)
    POST /v1/simulations          submit a sweep job -> 202 + job id
    GET  /v1/jobs                 job table
    GET  /v1/jobs/{job_id}        poll one job
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import signal
import socket
import sqlite3
import sys
import tempfile
import threading
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as StartTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.enums import ServerConfiguration
from repro.obs import (
    CLOCK,
    TRACE_HEADER,
    JsonLogger,
    MetricsRegistry,
    Tracer,
    render_exposition,
    trace_sink,
    valid_trace_id,
)
from repro.runner.runner import GridRunner
from repro.service.cache import (
    CachedResponse,
    ResponseCache,
    canonical_query,
    make_etag,
)
from repro.service.config import ServiceConfig
from repro.service.errors import (
    ApiError,
    BadRequest,
    Busy,
    Conflict,
    NotFound,
    NotImplementedFeature,
    PayloadTooLarge,
    internal_error,
)
from repro.service.jobs import Job, JobTable, generating_shard, request_fingerprint
from repro.service.registry import (
    ArtifactRegistry,
    CorpusArtifacts,
    SnapshotDatasetProvider,
    StaticDatasetProvider,
)
from repro.service.routing import Router
from repro.service import schemas

#: Largest accepted request body (modified feeds are well under this).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Idle keep-alive connections are closed after this many seconds.
IDLE_TIMEOUT = 30.0

#: Seconds a stopping server waits for the handlers of the connections it
#: closes; a handler still inside a request after that is cancelled.
_CLOSE_GRACE = 2.0

_STATUS_REASONS = {
    200: "OK", 202: "Accepted", 304: "Not Modified", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, Tuple[str, ...]]
    headers: Dict[str, str]
    body: bytes = b""


@dataclass
class HttpResponse:
    """One response ready for serialisation."""

    status: int = 200
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"


def _default_provider(config: ServiceConfig):
    """Resolve the dataset provider the CLI flags describe."""
    if config.db:
        return SnapshotDatasetProvider(
            config.db, snapshot=config.snapshot, engine=config.engine
        )
    shape = config.scaled_catalogue_shape()
    if shape is not None:
        from repro.synthetic.generator import generate_scaled_catalogue

        catalogue = generate_scaled_catalogue(
            n_families=shape[0], releases_per_family=shape[1], seed=config.seed
        )
        return StaticDatasetProvider(
            catalogue.entries,
            engine=config.engine,
            os_names=catalogue.os_names,
            label=f"catalogue:{config.catalogue} (seed {config.seed})",
        )
    if config.feeds:
        from repro.db.ingest import IngestPipeline

        paths = sorted(Path(config.feeds).glob("*.xml"))
        if not paths:
            raise NotFound(f"no .xml feeds found in {config.feeds}")
        pipeline = IngestPipeline()
        pipeline.ingest_xml_feeds(paths)
        entries = pipeline.database.load_entries()
        pipeline.database.close()
        return StaticDatasetProvider(
            entries, engine=config.engine, label=f"feeds:{config.feeds}"
        )
    from repro.synthetic.corpus import build_corpus

    corpus = build_corpus(seed=config.seed)
    return StaticDatasetProvider(
        corpus.entries,
        engine=config.engine,
        label=f"synthetic corpus (seed {config.seed})",
    )


class DiversityService:
    """The transport-free application behind ``repro serve``."""

    def __init__(self, config: ServiceConfig, provider=None) -> None:
        self.config = config
        self.provider = provider if provider is not None else _default_provider(config)
        # One metrics registry and one tracer per worker: every component
        # (artifact registry, response cache, ingest pipeline, grid runner)
        # reports into the same instruments, so /healthz, /metrics and the
        # trace spans can never disagree about a tally.
        self.clock = CLOCK
        self.obs_log = JsonLogger(clock=self.clock)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            buffer_size=config.trace_buffer,
            shard=config.shard_index,
            clock=self.clock,
            sink=trace_sink(self.obs_log) if config.trace_log else None,
        )
        self.registry = ArtifactRegistry(
            metrics=self.metrics,
            tracer=self.tracer,
            clock=self.clock,
        )
        self.responses = ResponseCache(
            max_entries=config.cache_size, metrics=self.metrics
        )
        self.jobs = JobTable(self._run_job, shard=config.shard_index)
        self.started = self.clock.wall()
        self._request_pool = ThreadPoolExecutor(
            max_workers=config.request_threads, thread_name_prefix="repro-http"
        )
        self.peers = self._resolve_peers()
        self._request_counter = self.metrics.counter(
            "http_requests_total",
            "Requests dispatched, by method, route template and status.",
            labels=("method", "route", "status"),
        )
        self._request_latency = self.metrics.histogram(
            "http_request_seconds",
            "Request dispatch wall time, by route template.",
            labels=("route",),
        )
        self._uptime_gauge = self.metrics.gauge(
            "uptime_seconds", "Seconds since this worker started."
        )
        self._jobs_gauge = self.metrics.gauge(
            "jobs", "Jobs in the table, by state.", labels=("state",)
        )
        self._registry_gauge = self.metrics.gauge(
            "registry_datasets",
            "Datasets currently compiled in the artifact registry.",
        )
        self._responses_gauge = self.metrics.gauge(
            "response_cache_entries",
            "Entries currently held in the response cache.",
        )
        self.router = Router()
        add = self.router.add
        add("GET", "/internal/v1/metrics", self._internal_metrics)
        add("GET", "/internal/v1/traces", self._internal_traces)
        add("GET", "/healthz", self._healthz)
        if config.metrics:
            add("GET", "/metrics", self._metrics_endpoint)
            add("GET", "/v1/traces", self._traces_endpoint)
        add("GET", "/v1/catalogue", self._catalogue)
        add("GET", "/v1/shared", self._shared)
        add("GET", "/v1/matrix/pairs", self._matrix_pairs)
        add("GET", "/v1/matrix/ksets", self._matrix_ksets)
        add("GET", "/v1/widest", self._widest)
        add("GET", "/v1/selection", self._selection)
        add("GET", "/v1/snapshots", self._snapshots)
        add("GET", "/v1/snapshots/diff", self._snapshot_diff)
        add("GET", "/v1/snapshots/{snapshot_id}", self._snapshot)
        add("POST", "/v1/ingest/delta", self._ingest_delta)
        add("POST", "/v1/simulations", self._submit_simulation)
        add("GET", "/v1/jobs", self._jobs)
        add("GET", "/v1/jobs/{job_id}", self._job)

    # -- plumbing -------------------------------------------------------------

    def artifacts(self) -> CorpusArtifacts:
        """The compiled artifacts for the current dataset state.

        Cheap when the state is already compiled: one provider ``current()``
        call (a single ledger row for snapshot providers) plus a registry
        lookup.  A state the registry has never seen is built exactly once,
        even under concurrent requests: derived from its cached parent when
        there is one, loaded otherwise.
        """
        state = self.provider.current()
        return self.registry.get(state, self.provider)

    def reset_caches(self) -> None:
        """Drop every compiled dataset and cached response (benchmarks)."""
        self.registry.clear()
        self.responses.clear()

    def shutdown(self) -> None:
        """Release the request pool (the job table is drained separately)."""
        self._request_pool.shutdown(wait=False, cancel_futures=True)

    def _resolve_peers(self):
        """Clients for every worker's internal listener, indexed by shard.

        Metric and trace gathering and job-poll forwarding fan out over
        these; a standalone worker has none.  Deltas need no peer call:
        every worker reads the new head from the shared ledger.
        """
        if not self.config.peers:
            return []
        from repro.service.cluster import HttpPeer

        return [HttpPeer(url) for url in self.config.peers]

    def _trace_headers(self) -> Optional[Dict[str, str]]:
        """The current trace id as a header, so a peer's spans join it."""
        trace = self.tracer.current()
        return {TRACE_HEADER: trace.trace_id} if trace is not None else None

    def dispatch(
        self,
        request: HttpRequest,
        parse_seconds: Optional[float] = None,
    ) -> HttpResponse:
        """Route one request; every failure renders the error envelope.

        Every dispatch runs under a :class:`~repro.obs.tracing.Trace` --
        joining the id an ``X-Repro-Trace`` header carries (how a peer
        worker's spans for a gather or a forwarded job poll land in the
        caller's trace) or minting a fresh one -- and increments the
        request counter labelled by the matched route *template*, so
        metric cardinality stays bounded no matter what paths clients
        probe.
        """
        trace = self.tracer.begin(
            f"{request.method} {request.path}",
            request.headers.get(TRACE_HEADER.lower()),
        )
        if parse_seconds is not None:
            trace.record("parse", trace.started, parse_seconds)
        route_label = "unrouted"
        with self.tracer.activate(trace):
            try:
                route, params = self.router.match(request.method, request.path)
                route_label = route.template
                response = route.handler(request, params)
            except ApiError as error:
                response = self._render_error(error)
            except Exception:  # repro: noqa[GEN301] -- dispatch boundary: the error envelope hides the traceback from clients
                traceback.print_exc(file=sys.stderr)
                response = self._render_error(internal_error())
        response.headers.setdefault(TRACE_HEADER, trace.trace_id)
        self.tracer.finish(trace, status=response.status)
        self._request_counter.inc(
            method=request.method, route=route_label, status=response.status
        )
        if trace.duration is not None:
            self._request_latency.observe(trace.duration, route=route_label)
        return response

    async def dispatch_async(
        self,
        request: HttpRequest,
        parse_seconds: Optional[float] = None,
    ) -> HttpResponse:
        """Route one request on the request pool, off the event loop.

        ``dispatch`` touches sqlite-backed providers and the result cache,
        so the asyncio protocol code must never call it directly; this
        coroutine is the only sanctioned bridge (ASY104 enforces it).
        """
        loop = asyncio.get_running_loop()
        call = (
            self.dispatch
            if parse_seconds is None
            else functools.partial(self.dispatch, parse_seconds=parse_seconds)
        )
        return await loop.run_in_executor(self._request_pool, call, request)

    async def drain_async(self, grace: float) -> bool:
        """Wait for running jobs to finish without blocking the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._request_pool, self.jobs.drain, grace)

    @staticmethod
    def _render_error(error: ApiError) -> HttpResponse:
        response = HttpResponse(status=error.status, body=schemas.dumps(error.envelope()))
        if error.detail and "allow" in error.detail:
            response.headers["Allow"] = ", ".join(error.detail["allow"])
        if isinstance(error, Busy):
            response.headers["Retry-After"] = "1"
        return response

    def _cached_json(
        self,
        request: HttpRequest,
        artifacts: CorpusArtifacts,
        scope: Optional[Sequence[str]],
        configuration: Optional[ServerConfiguration],
        build: Callable[[str], Dict[str, object]],
        query: Optional[str] = None,
    ) -> HttpResponse:
        """Serve a data query through the ETag + response-cache pipeline.

        ``scope`` is the OS set the response depends on (``None`` = the
        whole catalogue); ``build(scope_digest)`` renders the payload on a
        cache miss.  The ETag derives from the *scoped* corpus digest, so
        it survives snapshot deltas that cannot change the answer.
        ``configuration=None`` keys by the full dataset digest instead
        (for payloads no configuration filter can change), and ``query``
        overrides the canonical query (pass ``""`` when no parameter can
        change the payload, so every variant shares one entry and ETag).
        """
        if configuration is None:
            scope_digest = artifacts.digest
        else:
            scope_digest = artifacts.scope_digest(scope, configuration)
        if query is None:
            query = canonical_query(request.query)
        etag = make_etag(scope_digest, request.path, query)
        if _etag_matches(request.headers.get("if-none-match"), etag):
            return HttpResponse(status=304, headers={"ETag": etag})
        key = ResponseCache.key(scope_digest, request.path, query)
        headers = {"ETag": etag, "Cache-Control": "no-cache"}
        # The 304 path above short-circuits before the cache is consulted,
        # so revalidations show up as a trace with no cache.lookup span.
        with self.tracer.span("cache.lookup") as lookup:
            hit = self.responses.get(key)
            lookup.tag(result="hit" if hit is not None else "miss")
        if hit is not None:
            headers["X-Cache"] = "hit"
            return HttpResponse(body=hit.body, headers=headers)
        body = schemas.dumps(build(scope_digest))
        self.responses.put(
            key,
            CachedResponse(
                body=body,
                scope=frozenset(scope) if scope is not None else None,
            ),
        )
        headers["X-Cache"] = "miss"
        return HttpResponse(body=body, headers=headers)

    # -- meta handlers --------------------------------------------------------

    def _healthz(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        from repro import __version__

        artifacts = self.artifacts()
        payload = {
            "service": "repro",
            "version": __version__,
            "engine": self.config.engine,
            "uptime_seconds": round(self.clock.wall() - self.started, 3),
            "source": self.provider.source,
            "dataset": schemas.dataset_block(artifacts),
            "jobs": self.jobs.counts(),
            "draining": self.jobs.draining,
            "registry": {
                "datasets": len(self.registry),
                "compiles": self.registry.compile_count,
                "hits": self.registry.hit_count,
                "patches": self.registry.patched_count,
            },
            "response_cache": self.responses.stats(),
            "shard": {
                "index": self.config.shard_index,
                "count": len(self.peers) or 1,
                "peers": len(self.peers),
            },
        }
        return HttpResponse(body=schemas.dumps(payload))

    # -- observability handlers -----------------------------------------------

    def _refresh_gauges(self) -> None:
        """Point-in-time gauges, refreshed at scrape time (never on hot paths)."""
        self._uptime_gauge.set(round(self.clock.wall() - self.started, 3))
        for state, count in self.jobs.counts().items():
            self._jobs_gauge.set(count, state=state)
        self._registry_gauge.set(len(self.registry))
        self._responses_gauge.set(self.responses.stats()["entries"])

    def _metrics_endpoint(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        """Prometheus text exposition; cluster-aggregated by default.

        ``?scope=worker`` restricts the scrape to this worker.  The cluster
        view gathers every peer's ``/internal/v1/metrics`` JSON snapshot
        over the internal listeners and renders all samples side by side
        under per-shard labels (no cross-worker summing: sums are wrong for
        gauges and hide skew).
        """
        scope = schemas.single(request.query, "scope", "cluster")
        if scope not in ("cluster", "worker"):
            raise BadRequest(
                f"unknown scope {scope!r}; expected 'cluster' or 'worker'",
                detail={"parameter": "scope"},
            )
        self._refresh_gauges()
        parts = [(self.metrics.snapshot(), {"shard": str(self.config.shard_index)})]
        if scope == "cluster" and len(self.peers) > 1:
            parts.extend(self._gather_peer_metrics())
        return HttpResponse(
            body=render_exposition(parts).encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _gather_peer_metrics(self):
        """Peer metric snapshots as exposition parts; dead peers are omitted.

        Peers are asked one after another, as trace gathering does, under
        the scrape's trace id.
        """
        headers = self._trace_headers()
        parts = []
        with self.tracer.span("metrics.gather", peers=len(self.peers) - 1):
            for index, peer in enumerate(self.peers):
                if index == self.config.shard_index:
                    continue
                try:
                    payload = peer.get_json("/internal/v1/metrics", headers=headers)
                except Exception:  # repro: noqa[GEN301] -- a dead peer drops out of the aggregate; the scrape itself must not fail
                    continue
                if isinstance(payload, dict) and "metrics" in payload:
                    shard = str(payload.get("shard", index))
                    parts.append((payload["metrics"], {"shard": shard}))
        return parts

    def _internal_metrics(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        """This worker's metric snapshot as JSON (the aggregation transport)."""
        self._refresh_gauges()
        payload = {
            "shard": self.config.shard_index,
            "metrics": self.metrics.snapshot(),
        }
        return HttpResponse(body=schemas.dumps(payload))

    def _traces_endpoint(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        """Recent traces, or one trace gathered across the whole cluster.

        Without ``?id=`` this lists this worker's ring buffer, newest
        first.  With an id, peer workers' rings are consulted too and the
        response carries every record plus one flattened, shard-stamped
        span list -- a request that fanned out to peers viewed end to end.
        """
        trace_id = schemas.single(request.query, "id")
        if trace_id is None:
            limit = schemas.parse_int(
                request.query, "limit", default=20, minimum=1,
                maximum=self.tracer.buffer_size,
            )
            payload = {
                "shard": self.config.shard_index,
                "traces": [
                    record.to_json() for record in self.tracer.recent(limit)
                ],
            }
            return HttpResponse(body=schemas.dumps(payload))
        if not valid_trace_id(trace_id):
            raise BadRequest(
                "malformed trace id", detail={"parameter": "id"}
            )
        records = [record.to_json() for record in self.tracer.find(trace_id)]
        records.extend(self._gather_peer_traces(trace_id))
        spans = [
            dict(span, shard=record["shard"])
            for record in records
            for span in record["spans"]
        ]
        spans.sort(key=lambda span: (span["shard"], span["start_ms"], span["name"]))
        payload = {"trace_id": trace_id, "records": records, "spans": spans}
        return HttpResponse(body=schemas.dumps(payload))

    def _gather_peer_traces(self, trace_id: str):
        """Peer workers' records for one trace id; dead peers contribute none."""
        gathered = []
        for index, peer in enumerate(self.peers):
            if index == self.config.shard_index:
                continue
            try:
                payload = peer.get_json(f"/internal/v1/traces?id={trace_id}")
            except Exception:  # repro: noqa[GEN301] -- a dead peer just contributes no spans to the gathered trace
                continue
            if isinstance(payload, dict):
                gathered.extend(payload.get("traces", ()))
        return gathered

    def _internal_traces(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        """This worker's ring buffer only (what trace gathering fans out to)."""
        trace_id = schemas.single(request.query, "id")
        if trace_id is not None:
            records = self.tracer.find(trace_id)
        else:
            limit = schemas.parse_int(
                request.query, "limit", default=20, minimum=1,
                maximum=self.tracer.buffer_size,
            )
            records = self.tracer.recent(limit)
        payload = {
            "shard": self.config.shard_index,
            "traces": [record.to_json() for record in records],
        }
        return HttpResponse(body=schemas.dumps(payload))

    # -- data handlers --------------------------------------------------------

    def _catalogue(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        # No parameter changes this payload, so every variant shares one
        # cache entry and one ETag, keyed by the full dataset digest.
        return self._cached_json(
            request, artifacts, None, None,
            lambda digest: schemas.catalogue_payload(artifacts),
            query="",
        )

    def _shared(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        configuration = schemas.parse_configuration(request.query)
        os_names = schemas.parse_os_names(request.query, artifacts.os_names)
        return self._cached_json(
            request, artifacts, os_names, configuration,
            lambda digest: schemas.shared_payload(
                artifacts, os_names, configuration, digest
            ),
        )

    def _matrix_pairs(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        configuration = schemas.parse_configuration(request.query)
        return self._cached_json(
            request, artifacts, None, configuration,
            lambda digest: schemas.pair_matrix_payload(
                artifacts, configuration, digest
            ),
        )

    def _matrix_ksets(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        configuration = schemas.parse_configuration(request.query)
        k = schemas.parse_int(
            request.query, "k", default=3, minimum=2,
            maximum=len(artifacts.os_names),
        )
        schemas.check_combination_budget(len(artifacts.os_names), k, "k")
        top = schemas.parse_int(request.query, "top", default=5, minimum=1, maximum=100)
        return self._cached_json(
            request, artifacts, None, configuration,
            lambda digest: schemas.ksets_payload(
                artifacts, configuration, k, top, digest
            ),
        )

    def _widest(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        configuration = schemas.parse_configuration(request.query)
        top = schemas.parse_int(request.query, "top", default=3, minimum=1, maximum=100)
        return self._cached_json(
            request, artifacts, None, configuration,
            lambda digest: schemas.widest_payload(
                artifacts, configuration, top, digest
            ),
        )

    def _selection(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        configuration = schemas.parse_configuration(request.query)
        n = schemas.parse_int(
            request.query, "n", default=4, minimum=1,
            maximum=len(artifacts.os_names),
        )
        top = schemas.parse_int(request.query, "top", default=5, minimum=1, maximum=100)
        strategy = schemas.single(request.query, "strategy", "exhaustive")
        if strategy not in schemas.SELECTION_STRATEGIES:
            raise BadRequest(
                f"unknown strategy {strategy!r}; expected one of "
                f"{list(schemas.SELECTION_STRATEGIES)}",
                detail={"parameter": "strategy"},
            )
        if strategy == "exhaustive":
            # Branch-and-bound usually prunes hard, but its worst (dense-
            # matrix) case is full enumeration -- same budget as k-sets.
            schemas.check_combination_budget(len(artifacts.os_names), n, "n")
        return self._cached_json(
            request, artifacts, None, configuration,
            lambda digest: schemas.selection_payload(
                artifacts, configuration, n, top, strategy, digest
            ),
        )

    # -- snapshot handlers (db-backed providers only) -------------------------

    def _snapshots(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        database, store = self.provider.store()
        try:
            payload = {
                "snapshots": [
                    schemas.snapshot_payload(record) for record in store.list()
                ]
            }
        finally:
            database.close()
        return HttpResponse(body=schemas.dumps(payload))

    def _snapshot(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        database, store = self.provider.store()
        try:
            record = _resolve_snapshot(store, params["snapshot_id"])
            payload = schemas.snapshot_payload(record)
        finally:
            database.close()
        return HttpResponse(body=schemas.dumps(payload))

    def _snapshot_diff(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        database, store = self.provider.store()
        try:
            to_spec = schemas.single(request.query, "to")
            to_record = (
                _resolve_snapshot(store, to_spec)
                if to_spec is not None
                else _head_or_conflict(store)
            )
            from_spec = schemas.single(request.query, "from")
            if from_spec is not None:
                from_record = _resolve_snapshot(store, from_spec)
            elif to_record.parent_digest is not None:
                from_record = store.parent(to_record)
            else:
                raise BadRequest(
                    f"snapshot #{to_record.snapshot_id} has no parent; "
                    "pass from= explicitly",
                    detail={"parameter": "from"},
                )
            diff = store.diff(from_record.snapshot_id, to_record.snapshot_id)
            payload = schemas.diff_payload(diff)
        finally:
            database.close()
        return HttpResponse(body=schemas.dumps(payload))

    def _ingest_delta(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        from repro.db.ingest import IngestPipeline
        from repro.snapshots.delta import DeltaIngestPipeline

        if not request.body:
            raise BadRequest("expected a modified feed as the request body")
        suffix = ".json" if _is_json_feed(request) else ".xml"
        database, store = self.provider.store()
        try:
            pipeline = DeltaIngestPipeline(
                IngestPipeline(database=database),
                store,
                metrics=self.metrics,
                tracer=self.tracer,
                clock=self.clock,
            )
            with tempfile.NamedTemporaryFile(
                suffix=suffix, prefix="repro-delta-", delete=False
            ) as handle:
                handle.write(request.body)
                feed_path = Path(handle.name)
            try:
                source = schemas.single(request.query, "source", "http-delta")
                report = pipeline.apply_feed(feed_path, source=source)
            finally:
                feed_path.unlink(missing_ok=True)
            if report.changed:
                self._evict_delta(store, report.snapshot)
            payload = {
                "parsed_entries": report.parsed_entries,
                "added": report.added,
                "modified": report.modified,
                "removed": report.removed,
                "unchanged": report.unchanged,
                "skipped_no_os": report.skipped_no_os,
                "snapshot": (
                    schemas.snapshot_payload(report.snapshot)
                    if report.snapshot is not None
                    else None
                ),
            }
        except sqlite3.OperationalError as error:
            # SQLITE_BUSY: another writer held the ledger's write lock for
            # the whole busy timeout.  The delta is one transaction, so it
            # wrote nothing and a retry applies it whole.
            if str(error) != "database is locked":
                raise
            raise Busy(
                "the snapshot ledger is locked by another writer; "
                "no snapshot was cut, retry the delta"
            ) from error
        finally:
            database.close()
        return HttpResponse(body=schemas.dumps(payload))

    def _evict_delta(self, store, snapshot) -> None:
        """Evict this worker's cached responses that ``snapshot`` touched.

        Drops exactly the response-cache entries whose OS scope the diff
        from the snapshot's parent names (every entry on a first
        snapshot).  The registry is left alone: the next request's
        :meth:`~repro.service.registry.ArtifactRegistry.get` derives the
        new head from the cached parent, here as on every other worker.
        Other workers learn of the commit from the ledger alone: their next
        ``current()`` resolves the new head, the touched scopes' digests
        -- and so their cache keys and ETags -- change, and the dead
        entries age out of their LRU.
        """
        parent = store.parent(snapshot)
        if parent is None:
            self.responses.clear()
            return
        diff = store.diff(parent.snapshot_id, snapshot.snapshot_id)
        self.responses.invalidate_scope(diff.affected_os_names())

    # -- job handlers ---------------------------------------------------------

    def _run_job(self, job: Job) -> Dict[str, object]:
        """Execute one simulation job on the grid runner.

        The server's ``engine`` picks the query index; jobs always run the
        simulator's default engine, whose numbers every engine reproduces.
        Jobs run inline (``workers=1``): ``config.workers`` counts serving
        processes, and N workers each forking an N-process pool would run
        N² processes.  The payload is the same for any worker count.
        """
        runner = GridRunner.for_dataset(
            job.dataset, seed=job.seed, workers=1, metrics=self.metrics
        )
        return runner.run(job.grid).to_json_payload()

    def _submit_simulation(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        artifacts = self.artifacts()
        payload = schemas.parse_json_body(request.body)
        grid, seed = schemas.simulation_grid(payload, artifacts.os_names)
        job_id = payload.get("id")
        if job_id is not None and not isinstance(job_id, str):
            raise BadRequest("field 'id' must be a string", detail={"field": "id"})
        job = self.jobs.submit(
            grid,
            seed,
            artifacts.digest,
            fingerprint=request_fingerprint(payload),
            job_id=job_id,
            dataset=artifacts.dataset,
        )
        return HttpResponse(
            status=202,
            body=schemas.dumps(job.payload()),
            headers={"Location": f"/v1/jobs/{job.job_id}"},
        )

    def _jobs(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        listing = []
        for job in self.jobs.list():
            compact = job.payload()
            compact.pop("result", None)
            listing.append(compact)
        return HttpResponse(body=schemas.dumps({"jobs": listing}))

    def _job(self, request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        """One job; a generated id another worker owns is asked of it.

        Generated ids name their worker (``job-<shard>-<n>``), so a poll the
        shared port routes to another worker is forwarded to the owner's
        internal listener.  An owner that is gone answers 404, like any
        unknown job.  Client-supplied ids stay with the worker that took them.
        """
        job_id = params["job_id"]
        try:
            job = self.jobs.get(job_id)
        except NotFound:
            owner = generating_shard(job_id)
            if owner in (None, self.config.shard_index) or owner >= len(self.peers):
                raise
            return self._forward_job(owner, job_id)
        return HttpResponse(body=schemas.dumps(job.payload()))

    def _forward_job(self, owner: int, job_id: str) -> HttpResponse:
        with self.tracer.span("jobs.forward", owner=owner):
            try:
                payload = self.peers[owner].get_json(
                    f"/v1/jobs/{job_id}", headers=self._trace_headers()
                )
            except Exception:  # repro: noqa[GEN301] -- an unreachable owner reads as an unknown job
                payload = None
        if payload is None:
            raise NotFound(f"no job named {job_id!r}", detail={"job_id": job_id})
        return HttpResponse(body=schemas.dumps(payload))


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """``If-None-Match`` weak comparison: a token list or ``*``.

    ``W/"x"`` and ``"x"`` both match either form (RFC 9110 13.1.2), so
    clients that strip or keep the weakness prefix revalidate alike.
    """
    if header is None:
        return False
    if header.strip() == "*":
        return True
    opaque = etag.removeprefix("W/")
    return any(
        token.strip().removeprefix("W/") == opaque for token in header.split(",")
    )


def _is_json_feed(request: HttpRequest) -> bool:
    content_type = request.headers.get("content-type", "")
    if "json" in content_type:
        return True
    if "xml" in content_type:
        return False
    return request.body.lstrip()[:1] in (b"{", b"[")


def _resolve_snapshot(store, spec: str):
    """The shared ledger selector, as a 404 instead of a DatabaseError."""
    from repro.core.exceptions import DatabaseError

    try:
        return store.resolve(spec)
    except DatabaseError as error:
        raise NotFound(str(error)) from error


def _head_or_conflict(store):
    head = store.head()
    if head is None:
        raise Conflict("the database has no snapshots yet")
    return head


# ---------------------------------------------------------------------------
# the asyncio HTTP/1.1 front end
# ---------------------------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[HttpRequest, float]]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Returns the request together with the seconds spent parsing it (header
    split + body read).  The clock starts *after* the head arrives, so
    keep-alive idle time between requests never counts as parse time.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=IDLE_TIMEOUT
        )
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    except asyncio.TimeoutError:
        return None
    except asyncio.LimitOverrunError:
        raise BadRequest("request headers too large")
    parse_started = CLOCK.perf()
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise BadRequest("malformed request line")
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parts = urlsplit(target)
    query = {
        name: tuple(values)
        for name, values in parse_qs(
            parts.query, keep_blank_values=True
        ).items()
    }
    body = b""
    encoding = headers.get("transfer-encoding")
    if encoding is not None and encoding.lower() != "identity":
        # We cannot parse chunked framing; accepting the request anyway
        # would leave the chunk bytes unread in the stream to desync the
        # next keep-alive request, so the connection is closed after the
        # 501 envelope (the ApiError path below breaks the loop).
        raise NotImplementedFeature(
            f"Transfer-Encoding {encoding!r} is not supported; "
            "send a Content-Length body",
            detail={"header": "transfer-encoding"},
        )
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise BadRequest("malformed Content-Length header")
        if size < 0:
            raise BadRequest(
                f"Content-Length must be non-negative, got {size}",
                detail={"header": "content-length"},
            )
        if size > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"request body of {size} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if size:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(size), timeout=IDLE_TIMEOUT
                )
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return None
    request = HttpRequest(
        method=method.upper(),
        path=unquote(parts.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )
    return request, CLOCK.perf() - parse_started


def _serialise(response: HttpResponse, keep_alive: bool, version: str) -> bytes:
    reason = _STATUS_REASONS.get(response.status, "Unknown")
    headers = dict(response.headers)
    headers.setdefault("Server", f"repro/{version}")
    if response.status != 304:
        headers.setdefault("Content-Type", response.content_type)
    headers["Content-Length"] = str(len(response.body))
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    head = f"HTTP/1.1 {response.status} {reason}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()
    )
    return head.encode("latin-1") + b"\r\n" + response.body


async def _handle_connection(
    app: DiversityService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    from repro import __version__

    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except ApiError as error:
                body = _serialise(
                    DiversityService._render_error(error), False, __version__
                )
                writer.write(body)
                await writer.drain()
                break
            if parsed is None:
                break
            request, parse_seconds = parsed
            response = await app.dispatch_async(request, parse_seconds)
            keep_alive = request.headers.get("connection", "keep-alive") != "close"
            writer.write(_serialise(response, keep_alive, __version__))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


#: A ``(host, port)`` to bind, or an already-bound listening socket (a
#: worker's ``SO_REUSEPORT`` share of the public port).
Listener = Union[Tuple[str, int], socket.socket]


def request_stop(stop: "asyncio.Future", value: object) -> None:
    """Resolve ``stop`` with ``value`` (on its loop); a prior stop wins."""
    if not stop.done():
        stop.set_result(value)


async def serve_and_drain(
    app: DiversityService,
    listeners: Sequence[Listener],
    on_bound: Callable[..., None],
) -> bool:
    """The lifecycle every server runs; True when every job finished.

    On the main thread, SIGTERM and SIGINT request a stop with the config's
    ``drain_grace``.  Each listener is bound, then ``on_bound`` gets the
    bound ``(host, port)`` addresses, in order, and the ``stop`` future,
    which :func:`request_stop` resolves with a drain grace in seconds.  Once
    it does, the listeners close, running jobs get that grace to finish
    (``drain_async``), the connections still open are closed and their
    handlers awaited for up to ``_CLOSE_GRACE`` seconds, and the request
    pool is released (``shutdown``).
    """
    loop = asyncio.get_running_loop()
    stop = loop.create_future()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):  # Windows loops
                loop.add_signal_handler(signum, request_stop, stop, app.config.drain_grace)
    # Each open connection's handler task, and its writer.
    connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    def handle(reader, writer):
        # The task is created here, not by the stream, so the stop below
        # can close the connection and let its handler end instead of
        # leaving it to the cancellation at the end of the loop.
        task = loop.create_task(_handle_connection(app, reader, writer))
        connections[task] = writer
        task.add_done_callback(connections.pop)

    servers = []
    try:
        for listener in listeners:
            if isinstance(listener, socket.socket):
                servers.append(await asyncio.start_server(handle, sock=listener))
            else:
                servers.append(await asyncio.start_server(handle, *listener))
        on_bound([server.sockets[0].getsockname()[:2] for server in servers], stop)
        grace = await stop
    finally:
        # Stop accepting, then let the accepts already under way make their
        # transports: a server closed before that leaks the accepted socket.
        # Open connections are closed after the drain: ``wait_closed``
        # (Python 3.12+) would hold the drain behind idle keep-alive clients.
        for server in servers:
            for sock in server.sockets:
                with contextlib.suppress(NotImplementedError):  # Windows loops
                    loop.remove_reader(sock)
        await asyncio.sleep(0)
        for server in servers:
            server.close()
    drained = await app.drain_async(grace)
    # An idle keep-alive client reads EOF once its transport closes, so its
    # handler returns at once; a bound keeps a slow request from holding up
    # the stop.
    for writer in connections.values():
        writer.close()
    if connections:
        await asyncio.wait(list(connections), timeout=_CLOSE_GRACE)
    app.shutdown()
    return drained


def serve(config: ServiceConfig, provider=None, log=print) -> int:
    """Run the server until SIGTERM/SIGINT; the ``repro serve`` entry point."""
    app = DiversityService(config, provider)

    def announce(addresses, stop) -> None:
        host, port = addresses[0]
        log(
            f"repro service listening on http://{host}:{port} "
            f"(dataset: {app.provider.source})",
            file=sys.stderr,
        )
        stop.add_done_callback(
            lambda _stop: log("signal received; draining ...", file=sys.stderr)
        )

    listeners = [(config.host, config.port)]
    drained = asyncio.run(serve_and_drain(app, listeners, announce))
    log(
        "shutdown complete" if drained else "shutdown with unfinished jobs",
        file=sys.stderr,
    )
    return 0 if drained else 1


class LoopThread:
    """One serving coroutine on its own event loop, on a daemon thread.

    :meth:`start` runs ``main(ready)`` and returns the value ``main``
    passes to ``ready(value, stop)`` once it listens, or raises
    ``RuntimeError`` when a bind fails first.  :meth:`stop` resolves
    ``stop`` with a value from any thread, joins the thread and returns
    what ``main`` returned; tasks ``main`` leaves behind are cancelled
    before the loop closes.
    :class:`ServiceServer` and the cluster's front router run on it.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._stop: Optional[asyncio.Future] = None
        self._result: object = None

    def start(self, main: Callable[..., Awaitable]) -> object:
        ready: Future = Future()

        def report(value: object, stop: asyncio.Future) -> None:
            self._stop = stop
            ready.set_result(value)

        def run() -> None:
            try:
                self._result = asyncio.run(main(report))
            except OSError as error:  # a bind failed
                ready.set_exception(error)

        self._thread = threading.Thread(target=run, name=self._name, daemon=True)
        self._thread.start()
        try:
            return ready.result(timeout=10.0)
        except (OSError, StartTimeout) as error:
            reason = str(error) or "not listening after 10 s"
            raise RuntimeError(f"{self._name} failed to start: {reason}") from error

    def stop(self, value: object = None) -> object:
        if self._stop is not None:
            with contextlib.suppress(RuntimeError):  # closed: ``main`` returned
                self._stop.get_loop().call_soon_threadsafe(
                    request_stop, self._stop, value
                )
            self._thread.join()
        return self._result


class ServiceServer:
    """:func:`serve_and_drain` on a background thread (tests/benchmarks).

    ``start()`` binds (port 0 picks a free port) and returns the base URL,
    or raises ``RuntimeError`` when the bind fails.  ``stop()`` closes the
    listener, drains jobs (for ``drain_grace`` seconds, the config's by
    default), joins the thread and returns whether every job finished.
    The wrapped :class:`DiversityService` stays accessible as ``.app`` so
    harnesses can assert on registry/cache counters while requests fly.
    """

    def __init__(
        self,
        app: DiversityService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.app = app
        self._listener = (host, port)
        self._thread = LoopThread("repro-service")
        self.base_url: Optional[str] = None

    def start(self) -> str:
        """Bind and serve on a background thread; returns the base URL."""
        addresses = self._thread.start(
            lambda ready: serve_and_drain(self.app, [self._listener], ready)
        )
        host, port = addresses[0]
        self.base_url = f"http://{host}:{port}"
        return self.base_url

    def stop(self, drain_grace: Optional[float] = None) -> bool:
        """Close the listener, drain jobs, join the loop thread."""
        if drain_grace is None:
            drain_grace = self.app.config.drain_grace
        return bool(self._thread.stop(drain_grace))

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
