"""Reusable production-churn soak harness for the multi-worker serving layer.

Drives a live multi-worker cluster the way production traffic would: reader
threads cycle a mixed query set against every worker's listener (presenting
the last ``ETag`` they saw, like real revalidating clients), while a delta
stream lands snapshot ingests on one worker.  Every response is recorded as
an :class:`Observation`; :class:`SoakReport` then answers the three
"production under churn" questions the acceptance gates ask:

* **zero stale ETag reads** -- after a delta-ingest call returns, no reader
  may revalidate (304) against a retired ETag of a touched scope, nor be
  served a payload still carrying one;
* **monotone snapshot visibility** -- each reader issues its requests
  serially, so per (reader, worker, path) stream the ``snapshot_id`` in the
  payload's dataset block must never decrease;
* **bounded latency** -- per-request latencies are recorded so callers can
  gate p99 while the churn is happening.

The harness is deliberately tolerant of connection failures (they are
recorded as status-0 observations, not raised) so fault-injection tests can
kill a worker mid-soak and assert on the survivors -- see
``tests/service/test_cluster.py`` -- while the clean-cluster gates in
``benchmarks/bench_soak.py`` assert zero errors.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import ServerConfiguration
from repro.obs import MetricsRegistry
from repro.synthetic.evolution import evolve_corpus

#: The scope every delta touches (deltas are Debian-scoped, Windows-avoiding).
TOUCHED_PATH = "/v1/shared?os=Debian,OpenBSD"

#: A scope the deltas never touch: its ETag must keep revalidating.
UNTOUCHED_PATH = "/v1/shared?os=Windows2000,Windows2003"

#: The default mixed query load: touched + untouched scopes, both matrix
#: shapes and healthz.
DEFAULT_PATHS: Tuple[str, ...] = (
    TOUCHED_PATH,
    UNTOUCHED_PATH,
    "/v1/matrix/pairs",
    "/v1/matrix/ksets?k=3&top=5",
    "/healthz",
)

#: OSes the churn deltas must avoid so UNTOUCHED_PATH stays untouched.
WINDOWS_OSES = frozenset({"Windows2000", "Windows2003", "Windows2008"})

#: Per-delta corpus-evolution seeds; distinct seeds make every delta change
#: real content (re-applying one seed would be an idempotent no-op).
DEFAULT_DELTA_SEEDS: Tuple[int, ...] = (47, 101, 163, 229, 307, 401)


@dataclass(frozen=True)
class Observation:
    """One request/response pair as a reader thread saw it."""

    timestamp: float  # monotonic completion time
    reader: int
    url: str
    path: str
    status: int  # 0 = connection error (worker down / refused)
    etag: Optional[str]
    presented: Optional[str]  # If-None-Match header the reader sent
    snapshot_id: Optional[int]
    digest: Optional[str]
    latency: float


@dataclass(frozen=True)
class DeltaMark:
    """One applied delta: when its ingest returned and what it retired."""

    index: int
    returned_at: float
    #: Touched-scope ETags observed across all workers just before the
    #: ingest; any of them seen after ``returned_at`` is a stale read.
    retired_etags: frozenset
    report: Dict[str, object]


@dataclass
class SoakReport:
    """Everything a soak observed, with the gate computations attached."""

    observations: List[Observation]
    marks: List[DeltaMark]
    elapsed: float
    #: The harness's own instrument registry (``soak_requests_total`` by
    #: path/status, ``soak_request_seconds`` by path) -- the same
    #: :class:`~repro.obs.metrics.MetricsRegistry` machinery the serving
    #: stack exposes at ``/metrics``, so soak gates and production scrapes
    #: read identically-shaped data.  ``None`` on hand-built reports.
    metrics: Optional[MetricsRegistry] = None

    @property
    def errors(self) -> List[Observation]:
        """Connection-level failures (status 0)."""
        return [obs for obs in self.observations if obs.status == 0]

    @property
    def statuses(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for obs in self.observations:
            counts[obs.status] = counts.get(obs.status, 0) + 1
        return counts

    def latency_percentile(self, fraction: float) -> float:
        """Latency at the given fraction (0.99 = p99) over successful requests."""
        values = sorted(
            obs.latency for obs in self.observations if obs.status > 0
        )
        if not values:
            return 0.0
        index = min(len(values) - 1, max(0, math.ceil(fraction * len(values)) - 1))
        return values[index]

    def stale_reads(self) -> List[Observation]:
        """Touched-scope observations that saw a retired ETag post-ingest.

        A stale read is either a 304 revalidation of a retired ETag or a
        200 whose payload still carries one, observed strictly after the
        ingest call for the delta that retired it returned.
        """
        stale: List[Observation] = []
        for mark in self.marks:
            for obs in self.observations:
                if obs.path != TOUCHED_PATH or obs.timestamp <= mark.returned_at:
                    continue
                if obs.status == 304 and obs.presented in mark.retired_etags:
                    stale.append(obs)
                elif obs.status == 200 and obs.etag in mark.retired_etags:
                    stale.append(obs)
        return stale

    def snapshot_regressions(self) -> List[Tuple[Observation, Observation]]:
        """(earlier, later) pairs where a reader saw snapshot ids go back.

        Each reader runs its requests serially, so within one
        (reader, worker, path) stream the dataset block's ``snapshot_id``
        must be monotone non-decreasing; a decrease means a worker served
        an older snapshot after a newer one was already visible.
        """
        streams: Dict[Tuple[int, str, str], List[Observation]] = {}
        for obs in self.observations:
            if obs.snapshot_id is None:
                continue
            streams.setdefault((obs.reader, obs.url, obs.path), []).append(obs)
        regressions: List[Tuple[Observation, Observation]] = []
        for key in sorted(streams):
            stream = sorted(streams[key], key=lambda obs: obs.timestamp)
            for earlier, later in zip(stream, stream[1:]):
                if later.snapshot_id < earlier.snapshot_id:
                    regressions.append((earlier, later))
        return regressions

    def digests_after(self, timestamp: float, url: str) -> frozenset:
        """Distinct payload digests one worker served after ``timestamp``."""
        return frozenset(
            obs.digest
            for obs in self.observations
            if obs.url == url
            and obs.timestamp > timestamp
            and obs.digest is not None
        )

    def observations_after(self, timestamp: float) -> List[Observation]:
        return [obs for obs in self.observations if obs.timestamp > timestamp]


def _fetch(url: str, path: str, etag: Optional[str] = None, timeout: float = 60.0):
    """GET returning (status, headers, body); status 0 on connection error."""
    headers = {"If-None-Match": etag} if etag else {}
    request = urllib.request.Request(url + path, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()
    except (urllib.error.URLError, ConnectionError, OSError):
        return 0, {}, b""


def _dataset_fields(body: bytes) -> Tuple[Optional[int], Optional[str]]:
    """(snapshot_id, digest) from a payload's dataset block, if present."""
    if not body:
        return None, None
    try:
        payload = json.loads(body)
    except ValueError:
        return None, None
    if not isinstance(payload, dict):
        return None, None
    dataset = payload.get("dataset")
    if not isinstance(dataset, dict):
        return None, None
    return dataset.get("snapshot_id"), dataset.get("digest")


def debian_delta(corpus, seed: int):
    """A Debian-touching, Windows-avoiding, filter-admitted corpus delta.

    The shape every soak delta uses: it must change the ``TOUCHED_PATH``
    scope (Debian) while leaving ``UNTOUCHED_PATH`` (Windows) alone, and
    only touch entries the serving configuration admits so the dataset
    digest actually moves.
    """
    admits = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).admits
    return evolve_corpus(
        corpus,
        fraction=0.005,
        seed=seed,
        target_os="Debian",
        entry_filter=lambda entry: admits(entry)
        and not entry.affected_os & WINDOWS_OSES,
    )


def run_soak(
    urls: Sequence[str],
    corpus,
    work_dir: Path,
    *,
    ingest_url: Optional[str] = None,
    deltas: int = 2,
    readers_per_url: int = 2,
    min_requests: int = 200,
    settle: float = 0.5,
    paths: Sequence[str] = DEFAULT_PATHS,
    delta_seeds: Sequence[int] = DEFAULT_DELTA_SEEDS,
    deadline: float = 180.0,
    on_delta: Optional[Callable[[DeltaMark], None]] = None,
) -> SoakReport:
    """Soak a live cluster: mixed reads on every worker, deltas on one.

    ``urls`` are the listeners to hammer (typically the cluster's internal
    per-worker URLs, so every worker demonstrably serves fresh data, not
    just the one behind the shared port).  ``deltas`` snapshot ingests are
    POSTed to ``ingest_url`` (default: the first URL), each preceded by a
    sweep collecting the touched-scope ETags it will retire and followed by
    ``settle`` seconds of observed churn.  ``on_delta`` runs after each
    ingest returns -- the fault-injection hook.  The soak ends once every
    delta has landed and ``min_requests`` observations accumulated (or the
    ``deadline`` passes, whichever is first).
    """
    if not urls:
        raise ValueError("run_soak needs at least one worker URL")
    if deltas > len(delta_seeds):
        raise ValueError(
            f"need one distinct seed per delta: {deltas} deltas, "
            f"{len(delta_seeds)} seeds"
        )
    ingest_url = ingest_url or urls[0]
    observations: List[Observation] = []
    lock = threading.Lock()
    stop = threading.Event()
    metrics = MetricsRegistry()
    requests_total = metrics.counter(
        "soak_requests_total",
        "Soak reader requests, by path and response status.",
        labels=("path", "status"),
    )
    request_seconds = metrics.histogram(
        "soak_request_seconds",
        "Soak reader request latency, by path.",
        labels=("path",),
    )

    def reader(reader_index: int, url: str) -> None:
        last_etags: Dict[str, Optional[str]] = {}
        index = reader_index  # offset readers so paths interleave
        while not stop.is_set():
            path = paths[index % len(paths)]
            index += 1
            presented = last_etags.get(path)
            started = time.perf_counter()
            status, headers, body = _fetch(url, path, etag=presented)
            latency = time.perf_counter() - started
            snapshot_id, digest = _dataset_fields(body)
            requests_total.inc(path=path, status=str(status))
            request_seconds.observe(latency, path=path)
            etag = headers.get("ETag")
            if status == 200 and etag:
                last_etags[path] = etag
            with lock:
                observations.append(
                    Observation(
                        timestamp=time.monotonic(),
                        reader=reader_index,
                        url=url,
                        path=path,
                        status=status,
                        etag=etag,
                        presented=presented,
                        snapshot_id=snapshot_id,
                        digest=digest,
                        latency=latency,
                    )
                )
            if status == 0:
                # The worker is gone (fault injection): keep observing the
                # survivors without spinning on connection refusals.
                time.sleep(0.05)

    threads = [
        threading.Thread(
            target=reader,
            args=(offset * len(urls) + url_index, url),
            daemon=True,
        )
        for offset in range(readers_per_url)
        for url_index, url in enumerate(urls)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    marks: List[DeltaMark] = []
    try:
        for delta_index in range(deltas):
            # Collect the ETags this delta is about to retire, from every
            # worker (they share one ledger, so these should agree).
            retired = set()
            for url in urls:
                status, headers, _body = _fetch(url, TOUCHED_PATH)
                if status == 200 and headers.get("ETag"):
                    retired.add(headers["ETag"])
            delta = debian_delta(corpus, seed=delta_seeds[delta_index])
            feed = delta.write_feed(
                Path(work_dir) / f"soak-delta-{delta_index}.xml"
            )
            request = urllib.request.Request(
                ingest_url + "/v1/ingest/delta",
                data=feed.read_bytes(),
                headers={"Content-Type": "application/xml"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                report = json.loads(response.read())
            mark = DeltaMark(
                index=delta_index,
                returned_at=time.monotonic(),
                retired_etags=frozenset(retired),
                report=report,
            )
            marks.append(mark)
            if on_delta is not None:
                on_delta(mark)
            time.sleep(settle)

        # Keep the load going until the request floor is met.
        while time.monotonic() - started < deadline:
            with lock:
                observed = len(observations)
            if observed >= min_requests:
                break
            time.sleep(0.05)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    return SoakReport(
        observations=list(observations),
        marks=marks,
        elapsed=time.monotonic() - started,
        metrics=metrics,
    )
