"""Serving-layer load generator: warm-cache throughput and delta freshness.

The service's acceptance criteria, held on a live server (real sockets,
threaded clients):

* **throughput** -- on a 100-OS scaled catalogue, warm digest-cache
  throughput (registry + response cache populated) is at least ``10x``
  cold-compile throughput (both caches cleared before every request, so
  each request pays the full corpus compile);
* **latency** -- warm p50 is reported alongside both throughputs, so
  regressions are visible in CI logs even before a gate trips;
* **freshness** -- after an incremental delta lands, a request presenting
  the pre-delta ``ETag`` for a *touched* scope misses revalidation and is
  answered fresh -- with no server restart -- while an untouched scope
  keeps its ``304``.

Run the smoke subset (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q -s -k smoke

The same tests constitute the full gate; the suffix only mirrors the
other benchmarks' CI convention.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import ServerConfiguration
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.service import (
    DiversityService,
    ServiceCluster,
    ServiceConfig,
    ServiceServer,
    SnapshotDatasetProvider,
    StaticDatasetProvider,
)
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.store import SnapshotStore
from repro.synthetic.evolution import evolve_corpus
from repro.synthetic.generator import generate_scaled_catalogue

#: Acceptance gate: warm digest-cache vs cold-compile throughput.
WARM_SPEEDUP_FLOOR = 10.0

#: Acceptance gate: aggregate throughput at SCALING_WORKERS processes vs 1.
SCALING_SPEEDUP_FLOOR = 3.0
SCALING_WORKERS = 4

#: Request counts: cold requests pay a full 100-OS compile each, so a
#: handful suffices; warm requests are cheap, so many sharpen the p50.
COLD_REQUESTS = 5
WARM_REQUESTS = 200


def _get(base_url: str, path: str, etag=None):
    headers = {"If-None-Match": etag} if etag else {}
    request = urllib.request.Request(base_url + path, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture(scope="module")
def scaled_server():
    """A live server over the 100-OS scaled catalogue."""
    catalogue = generate_scaled_catalogue()  # 10 families x 10 releases
    app = DiversityService(
        ServiceConfig(),
        StaticDatasetProvider(
            catalogue.entries, os_names=catalogue.os_names,
            label="scaled catalogue (100 OS)",
        ),
    )
    service = ServiceServer(app)
    base_url = service.start()
    yield base_url, app, catalogue
    service.stop()


def test_service_smoke_warm_cache_throughput(scaled_server):
    """Warm digest-cache throughput >= 10x cold-compile throughput."""
    base_url, app, catalogue = scaled_server
    path = "/v1/shared?os=" + ",".join(catalogue.os_names[:3])

    # Cold: every request recompiles the corpus from scratch.
    cold_latencies = []
    for _ in range(COLD_REQUESTS):
        app.reset_caches()
        started = time.perf_counter()
        status, _headers, _body = _get(base_url, path)
        cold_latencies.append(time.perf_counter() - started)
        assert status == 200
    cold_throughput = COLD_REQUESTS / sum(cold_latencies)

    # Warm: the registry holds the compiled corpus, the response cache the
    # rendered bytes.  One priming request, then the measured volley.
    status, _headers, reference = _get(base_url, path)
    assert status == 200
    warm_latencies = []
    for _ in range(WARM_REQUESTS):
        started = time.perf_counter()
        status, _headers, body = _get(base_url, path)
        warm_latencies.append(time.perf_counter() - started)
        assert status == 200
        assert body == reference  # warm hits are byte-identical
    warm_throughput = WARM_REQUESTS / sum(warm_latencies)
    speedup = warm_throughput / cold_throughput

    print(f"\n=== service: warm vs cold throughput "
          f"({len(catalogue.os_names)} OSes, {len(catalogue.entries)} entries) ===")
    print(f"  cold (compile per request): {cold_throughput:8.1f} req/s "
          f"(p50 {statistics.median(cold_latencies) * 1e3:7.2f}ms)")
    print(f"  warm (digest-keyed caches): {warm_throughput:8.1f} req/s "
          f"(p50 {statistics.median(warm_latencies) * 1e3:7.2f}ms)")
    print(f"  speedup                   : {speedup:8.1f}x "
          f"(floor {WARM_SPEEDUP_FLOOR}x)")
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm-cache speedup {speedup:.1f}x below the "
        f"{WARM_SPEEDUP_FLOOR}x acceptance floor"
    )


def test_service_smoke_post_delta_freshness(corpus, tmp_path_factory):
    """A delta makes touched ETags stale -- fresh answers, no restart."""
    root = tmp_path_factory.mktemp("service-bench")
    db_path = root / "serve.db"
    database = VulnerabilityDatabase(db_path)
    pipeline = IngestPipeline(database=database)
    pipeline.ingest_raw(corpus.to_raw_feed_entries())
    SnapshotStore(database).commit(source="full ingest")

    app = DiversityService(
        ServiceConfig(db=str(db_path)), SnapshotDatasetProvider(str(db_path))
    )
    service = ServiceServer(app)
    base_url = service.start()
    try:
        windows = {"Windows2000", "Windows2003", "Windows2008"}
        debian_path = "/v1/shared?os=Debian,OpenBSD"
        windows_path = "/v1/shared?os=Windows2000,Windows2003"
        status, headers, debian_before = _get(base_url, debian_path)
        assert status == 200
        debian_etag = headers["ETag"]
        status, headers, _body = _get(base_url, windows_path)
        windows_etag = headers["ETag"]
        compiles_before = app.registry.compile_count

        # Land a Debian-only delta on the database the server is serving.
        admits = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).admits
        delta = evolve_corpus(
            corpus, fraction=0.005, seed=47, target_os="Debian",
            entry_filter=lambda entry: admits(entry)
            and not entry.affected_os & windows,
        )
        report = DeltaIngestPipeline(pipeline, SnapshotStore(database)).apply_raw(
            delta.entries, source="bench delta"
        )
        assert report.modified > 0

        # Touched scope: the stale ETag misses and fresh bytes arrive.
        status, headers, debian_after = _get(
            base_url, debian_path, etag=debian_etag
        )
        assert status == 200
        assert headers["ETag"] != debian_etag
        assert debian_after != debian_before
        # The read derived the new head from the cached parent.
        assert app.registry.compile_count == compiles_before
        assert app.registry.patched_count == 1

        # Untouched scope: the pre-delta ETag still revalidates to 304.
        status, headers, body = _get(base_url, windows_path, etag=windows_etag)
        assert status == 304
        assert body == b""

        print("\n=== service: post-delta freshness ===")
        print(f"  delta        : ~{report.modified} modified (Debian-scoped)")
        print(f"  touched scope: stale ETag -> 200 with fresh payload")
        print(f"  untouched    : old ETag -> 304 (no recompute)")
    finally:
        service.stop()
        database.close()


def test_service_smoke_job_throughput(scaled_server):
    """Submitting a job never blocks queries: the 202 returns immediately."""
    base_url, app, catalogue = scaled_server
    body = json.dumps(
        {
            "configurations": {"quad": list(catalogue.os_names[:4])},
            "runs": 50,
            "horizon": 2.0,
        }
    ).encode("utf-8")
    request = urllib.request.Request(
        base_url + "/v1/simulations", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    started = time.perf_counter()
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 202
        job_id = json.loads(response.read())["job_id"]
    submit_latency = time.perf_counter() - started

    # Queries stay fast while the job runs in the background.
    status, _headers, _body = _get(base_url, "/healthz")
    assert status == 200
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, _headers, payload = _get(base_url, f"/v1/jobs/{job_id}")
        state = json.loads(payload)["state"]
        if state in ("done", "failed"):
            break
        time.sleep(0.05)
    assert state == "done"
    print(f"\n=== service: background job ===")
    print(f"  submit -> 202 in {submit_latency * 1e3:.2f}ms; "
          f"job finished as {state!r}")


# ---------------------------------------------------------------------------
# multi-worker deployment gates
# ---------------------------------------------------------------------------


def _hammer(base_url, paths, threads, requests_per_thread):
    """Aggregate req/s from ``threads`` concurrent clients cycling ``paths``."""
    latencies = []
    failures = []
    lock = threading.Lock()

    def worker(offset):
        local = []
        for index in range(requests_per_thread):
            path = paths[(offset + index * threads) % len(paths)]
            started = time.perf_counter()
            status, _headers, _body = _get(base_url, path)
            local.append(time.perf_counter() - started)
            if status != 200:
                with lock:
                    failures.append((path, status))
        with lock:
            latencies.extend(local)

    clients = [
        threading.Thread(target=worker, args=(offset,))
        for offset in range(threads)
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    elapsed = time.perf_counter() - started
    assert not failures, f"non-200 responses under load: {failures[:5]}"
    return (threads * requests_per_thread) / elapsed, latencies


def test_service_smoke_cluster_byte_identity():
    """workers=1 and workers=2 deployments answer with identical bytes."""
    config = ServiceConfig(
        port=0, workers=2, catalogue="scaled:10x10", drain_grace=5.0
    )
    single = DiversityService(ServiceConfig(catalogue="scaled:10x10"))
    paths = ("/v1/matrix/pairs", "/v1/matrix/ksets?k=3&top=5")
    with ServiceCluster(config) as cluster:
        for path in paths:
            status, _headers, body = _get(cluster.base_url, path)
            assert status == 200
            from urllib.parse import parse_qs, urlsplit

            from repro.service import HttpRequest

            parts = urlsplit(path)
            reference = single.dispatch(
                HttpRequest(
                    method="GET", path=parts.path,
                    query={
                        name: tuple(values)
                        for name, values in parse_qs(parts.query).items()
                    },
                    headers={},
                )
            )
            assert body == reference.body, f"{path} diverged from single-process"
    print("\n=== service: cluster byte identity ===")
    print(f"  {len(paths)} matrix payloads identical across workers=1 vs 2")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < SCALING_WORKERS,
    reason=f"scaling gate needs >= {SCALING_WORKERS} cores to mean anything",
)
def test_service_scaling_aggregate_throughput():
    """Aggregate throughput at 4 workers >= 3x a single worker's.

    The workload is CPU-bound and response-cache-hostile: hundreds of
    distinct ``os=`` triples over the 100-OS catalogue, so every request
    computes a scoped digest and a shared-vulnerability listing instead
    of replaying cached bytes.
    """
    catalogue = generate_scaled_catalogue()  # 10 families x 10 releases
    paths = [
        "/v1/shared?os=" + ",".join(combo)
        for combo in itertools.islice(
            itertools.combinations(catalogue.os_names, 3), 0, 16000, 25
        )
    ]  # 640 distinct triples
    threads, per_thread = 8, 50

    throughputs = {}
    for workers in (1, SCALING_WORKERS):
        config = ServiceConfig(
            port=0, workers=workers, catalogue="scaled:10x10", drain_grace=5.0
        )
        with ServiceCluster(config) as cluster:
            _get(cluster.base_url, paths[0])  # prime the compile
            throughput, latencies = _hammer(
                cluster.base_url, paths, threads, per_thread
            )
            throughputs[workers] = (throughput, statistics.median(latencies))

    speedup = throughputs[SCALING_WORKERS][0] / throughputs[1][0]
    print(f"\n=== service: {SCALING_WORKERS}-worker scaling "
          f"({len(paths)} distinct scopes, {threads} client threads) ===")
    for workers, (throughput, p50) in sorted(throughputs.items()):
        print(f"  workers={workers}: {throughput:8.1f} req/s "
              f"(p50 {p50 * 1e3:7.2f}ms)")
    print(f"  speedup : {speedup:8.2f}x (floor {SCALING_SPEEDUP_FLOOR}x)")
    assert speedup >= SCALING_SPEEDUP_FLOOR, (
        f"{SCALING_WORKERS}-worker speedup {speedup:.2f}x below the "
        f"{SCALING_SPEEDUP_FLOOR}x acceptance floor"
    )


def test_service_smoke_zero_stale_etags_under_delta(corpus, tmp_path_factory):
    """Concurrent readers never see a stale ETag after a delta lands.

    Two workers share one snapshot ledger; reader threads hammer both
    internal listeners presenting the pre-delta ETag for a touched scope
    while the delta is ingested on worker 0.  Every response observed
    after the ingest call returned must be a fresh 200 with a new ETag --
    a 304 against the stale ETag would be a stale read.
    """
    root = tmp_path_factory.mktemp("cluster-bench")
    db_path = root / "serve.db"
    database = VulnerabilityDatabase(db_path)
    pipeline = IngestPipeline(database=database)
    pipeline.ingest_raw(corpus.to_raw_feed_entries())
    SnapshotStore(database).commit(source="full ingest")
    database.close()

    config = ServiceConfig(port=0, workers=2, db=str(db_path), drain_grace=10.0)
    cluster = ServiceCluster(config)
    cluster.start()
    try:
        touched_path = "/v1/shared?os=Debian,OpenBSD"
        etags = {}
        for url in cluster.internal_urls:
            status, headers, _body = _get(url, touched_path)
            assert status == 200
            etags[url] = headers["ETag"]
        assert len(set(etags.values())) == 1
        stale_etag = next(iter(etags.values()))

        observations = []
        lock = threading.Lock()
        stop = threading.Event()

        def reader(url):
            while not stop.is_set():
                status, headers, _body = _get(url, touched_path, etag=stale_etag)
                with lock:
                    observations.append(
                        (time.monotonic(), url, status, headers.get("ETag"))
                    )

        readers = [
            threading.Thread(target=reader, args=(url,))
            for url in cluster.internal_urls
            for _ in range(2)
        ]
        for thread in readers:
            thread.start()

        windows = {"Windows2000", "Windows2003", "Windows2008"}
        admits = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).admits
        delta = evolve_corpus(
            corpus, fraction=0.005, seed=47, target_os="Debian",
            entry_filter=lambda entry: admits(entry)
            and not entry.affected_os & windows,
        )
        feed = delta.write_feed(root / "delta.xml")
        request = urllib.request.Request(
            cluster.internal_urls[0] + "/v1/ingest/delta",
            data=feed.read_bytes(),
            headers={"Content-Type": "application/xml"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            report = json.loads(response.read())
        ingest_done = time.monotonic()
        assert report["modified"] > 0

        time.sleep(0.5)  # let the readers observe the post-ingest world
        stop.set()
        for thread in readers:
            thread.join(timeout=30)

        after = [obs for obs in observations if obs[0] > ingest_done]
        stale_hits = [
            obs for obs in after
            if obs[2] == 304 or obs[3] == stale_etag
        ]
        assert after, "no reader observations after the ingest completed"
        assert not stale_hits, (
            f"{len(stale_hits)} stale ETag hits after the delta landed: "
            f"{stale_hits[:3]}"
        )
        print("\n=== service: zero stale reads under concurrent delta ===")
        print(f"  observations: {len(observations)} total, "
              f"{len(after)} after ingest, 0 stale")
    finally:
        cluster.stop()
