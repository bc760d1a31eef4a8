"""Multi-process deployments, end to end: spawn real workers, query them.

Covers the cluster lifecycle (spawn, per-worker health, clean SIGTERM
drain), both public-socket modes (``SO_REUSEPORT`` kernel balancing and
the stdlib front-router proxy, which a platform without ``SO_REUSEPORT``
gets), public-vs-single-process byte identity,
and cross-worker freshness: a delta ingested on one worker's internal
listener makes the other worker, which hears nothing of it, answer stale
ETags fresh from the shared ledger, and a job submitted on one worker can
be polled through the other.  It also hosts the fault-injection suite: a
worker killed hard (SIGKILL, no drain) mid-operation must leave the
survivor answering every query with internally-consistent, single-digest
payloads.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.service import (
    DiversityService,
    HttpPeer,
    ServiceCluster,
    ServiceConfig,
)
from repro.service import cluster as cluster_module
from repro.snapshots.store import SnapshotStore

from tests.service.conftest import ServiceClient
from tests.service.soak import run_soak
from tests.service.test_delta_freshness import _debian_delta

#: Small generated catalogue: 20 OS releases keeps worker start-up quick.
CATALOGUE = "scaled:4x5"


def _fetch(url: str, etag=None):
    headers = {"If-None-Match": etag} if etag else {}
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture(scope="module")
def catalogue_cluster():
    """A live 2-worker cluster over the generated catalogue."""
    config = ServiceConfig(
        port=0, workers=2, catalogue=CATALOGUE, drain_grace=5.0
    )
    cluster = ServiceCluster(config)
    cluster.start()
    yield cluster
    cluster.stop()


class TestClusterLifecycle:
    def test_every_worker_reports_its_shard(self, catalogue_cluster):
        records = catalogue_cluster.healthz()
        assert all(r["ok"] for r in records)
        assert all(r["error"] is None for r in records)
        payloads = [r["payload"] for r in records]
        assert [p["shard"]["index"] for p in payloads] == [0, 1]
        assert all(p["shard"]["count"] == 2 for p in payloads)
        assert all(p["shard"]["peers"] == 2 for p in payloads)
        # Same config -> every worker rebuilt the identical dataset state.
        assert len({p["dataset"]["digest"] for p in payloads}) == 1

    def test_public_address_answers(self, catalogue_cluster):
        status, _headers, body = _fetch(catalogue_cluster.base_url + "/healthz")
        assert status == 200
        assert json.loads(body)["shard"]["count"] == 2

    def test_public_matrix_matches_single_process_bytes(self, catalogue_cluster):
        single = DiversityService(
            ServiceConfig(catalogue=CATALOGUE)
        )
        client = ServiceClient(catalogue_cluster.base_url)
        for path in ("/v1/matrix/pairs", "/v1/matrix/ksets?k=3&top=5"):
            from repro.service.server import HttpRequest
            from urllib.parse import parse_qs, urlsplit

            parts = urlsplit(path)
            query = {
                name: tuple(values)
                for name, values in parse_qs(parts.query).items()
            }
            reference = single.dispatch(
                HttpRequest(method="GET", path=parts.path, query=query, headers={})
            )
            result = client.get(path)
            assert result.status == 200
            assert result.body == reference.body

    def test_clean_sigterm_drain(self):
        config = ServiceConfig(
            port=0, workers=2, catalogue=CATALOGUE, drain_grace=5.0
        )
        cluster = ServiceCluster(config)
        cluster.start()
        assert cluster.stop() is True  # every worker exited 0 after drain


class TestJobsAcrossWorkers:
    """Generated job ids name their worker; any worker answers a poll."""

    REQUEST = {
        "configurations": {"G": ["F00-R00", "F01-R00", "F02-R00", "F03-R00"]},
        "runs": 8,
        "horizon": 2.0,
    }

    def _submit(self, base_url: str, seed: int) -> dict:
        request = urllib.request.Request(
            base_url + "/v1/simulations",
            data=json.dumps({**self.REQUEST, "seed": seed}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 202
            return json.loads(response.read())

    def _poll(self, base_url: str, job_id: str, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _headers, body = _fetch(f"{base_url}/v1/jobs/{job_id}")
            assert status == 200, body
            payload = json.loads(body)
            if payload["state"] in ("done", "failed"):
                return payload
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")

    def test_a_job_polls_through_the_other_worker(self, catalogue_cluster):
        first, second = catalogue_cluster.internal_urls
        on_first = self._submit(first, seed=1)
        on_second = self._submit(second, seed=2)
        assert on_first["job_id"] != on_second["job_id"]

        polled = self._poll(second, on_first["job_id"])
        assert polled["job_id"] == on_first["job_id"]
        assert polled["seed"] == 1
        assert polled["state"] == "done"
        assert polled == self._poll(first, on_first["job_id"])
        assert self._poll(first, on_second["job_id"])["seed"] == 2


class TestFrontRouterMode:
    def test_without_reuseport_the_proxy_serves_the_public_port(
        self, monkeypatch
    ):
        monkeypatch.setattr(cluster_module, "reuseport_available", lambda: False)
        config = ServiceConfig(
            port=0, workers=2, catalogue=CATALOGUE, drain_grace=5.0
        )
        cluster = ServiceCluster(config)
        assert cluster.mode == "front-router"
        try:
            base = cluster.start()
            # Round-robin: consecutive connections hit alternating workers.
            seen = set()
            for _ in range(4):
                status, _headers, body = _fetch(base + "/healthz")
                assert status == 200
                seen.add(json.loads(body)["shard"]["index"])
            assert seen == {0, 1}
            status, _headers, _body = _fetch(base + "/v1/matrix/pairs")
            assert status == 200
        finally:
            assert cluster.stop() is True


class TestCrossWorkerInvalidation:
    def test_delta_on_one_worker_freshens_the_other(
        self, corpus, tmp_path_factory
    ):
        db_path = tmp_path_factory.mktemp("cluster-db") / "serve.db"
        database = VulnerabilityDatabase(db_path)
        pipeline = IngestPipeline(database=database)
        pipeline.ingest_raw(corpus.to_raw_feed_entries())
        SnapshotStore(database).commit(source="full ingest")
        database.close()

        config = ServiceConfig(
            port=0, workers=2, db=str(db_path), drain_grace=10.0
        )
        cluster = ServiceCluster(config)
        cluster.start()
        try:
            first, second = cluster.internal_urls
            debian_path = "/v1/shared?os=Debian,OpenBSD"
            windows_path = "/v1/shared?os=Windows2000,Windows2003"

            # Prime worker 1 (the one that will NOT ingest the delta).
            status, headers, debian_before = _fetch(second + debian_path)
            assert status == 200
            debian_etag = headers["ETag"]
            status, headers, _body = _fetch(second + windows_path)
            windows_etag = headers["ETag"]

            # Ingest a Debian-only delta on worker 0's internal listener.
            feed = _debian_delta(corpus).write_feed(
                tmp_path_factory.mktemp("cluster-delta") / "delta.xml"
            )
            request = urllib.request.Request(
                first + "/v1/ingest/delta", data=feed.read_bytes(),
                headers={
                    "Content-Type": "application/xml",
                    "X-Repro-Trace": "cluster-delta-trace",
                },
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                report = json.loads(response.read())
            assert report["modified"] > 0

            # The traced ingest recorded the apply.
            with urllib.request.urlopen(
                first + "/v1/traces?id=cluster-delta-trace", timeout=60
            ) as response:
                trace = json.loads(response.read())
            span_names = {span["name"] for span in trace["spans"]}
            assert "ingest.apply" in span_names

            # Worker 1 is told nothing: its next read sees the new ledger
            # head, the Debian scope's digest has moved, so the stale
            # Debian ETag misses and fresh bytes arrive.
            status, headers, debian_after = _fetch(
                second + debian_path, etag=debian_etag
            )
            assert status == 200
            assert headers["ETag"] != debian_etag
            assert debian_after != debian_before

            # The untouched Windows scope still revalidates to 304.
            status, _headers, body = _fetch(
                second + windows_path, etag=windows_etag
            )
            assert status == 304
            assert body == b""

            # Worker 1 serves the snapshot the ingest committed.
            health = HttpPeer(second).get_json("/healthz")
            assert health["dataset"]["digest"] == report["snapshot"]["digest"]
        finally:
            cluster.stop()


class TestWorkerFaultInjection:
    """Kill a worker hard and assert the survivor degrades gracefully."""

    def test_killed_peer_degrades_to_local_compute(self):
        """With its peer SIGKILLed, the survivor's bytes stay identical.

        The survivor's matrix payloads must be byte-identical to a
        single-process deployment's and carry the one dataset digest its
        health check reports.
        """
        from urllib.parse import parse_qs, urlsplit

        from repro.service.server import HttpRequest

        config = ServiceConfig(
            port=0, workers=2, catalogue=CATALOGUE, drain_grace=5.0
        )
        cluster = ServiceCluster(config)
        cluster.start()
        try:
            survivor = cluster.internal_urls[0]
            victim = cluster.processes[1]
            victim.kill()
            victim.join(timeout=30)
            assert not victim.is_alive()

            single = DiversityService(ServiceConfig(catalogue=CATALOGUE))
            for path in ("/v1/matrix/pairs", "/v1/matrix/ksets?k=3&top=4"):
                status, _headers, body = _fetch(survivor + path)
                assert status == 200
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
                assert body == reference.body, (
                    f"{path} diverged from single-process bytes after the "
                    "peer died"
                )
                # One internally consistent dataset digest per payload.
                payload = json.loads(body)
                health = HttpPeer(survivor).get_json("/healthz")
                assert payload["dataset"]["digest"] == health["dataset"]["digest"]
        finally:
            # The victim was SIGKILLed, so the cluster cannot stop cleanly;
            # stop() must still reap every process without hanging.
            cluster.stop()

    def test_worker_killed_mid_soak_survivor_stays_consistent(
        self, corpus, tmp_path_factory
    ):
        """Mid-soak worker death: no stale reads, no mixed digests after.

        Runs the reusable soak harness (one delta, readers on both
        workers), SIGKILLs worker 1 the moment the delta's ingest returns,
        and asserts the survivor keeps serving fresh, monotone,
        single-digest payloads while the dead worker's readers record
        connection errors instead of crashing the soak.
        """
        root = tmp_path_factory.mktemp("soak-fault")
        db_path = root / "soak.db"
        database = VulnerabilityDatabase(db_path)
        IngestPipeline(database=database).ingest_raw(
            corpus.to_raw_feed_entries()
        )
        SnapshotStore(database).commit(source="soak seed")
        database.close()

        config = ServiceConfig(
            port=0, workers=2, db=str(db_path), drain_grace=10.0
        )
        cluster = ServiceCluster(config)
        cluster.start()
        killed_at = {}
        try:
            survivor, victim_url = cluster.internal_urls

            def kill_victim(mark):
                victim = cluster.processes[1]
                victim.kill()
                victim.join(timeout=30)
                killed_at["t"] = time.monotonic()

            report = run_soak(
                cluster.internal_urls,
                corpus,
                root,
                deltas=1,
                readers_per_url=1,
                min_requests=60,
                settle=1.0,
                on_delta=kill_victim,
            )

            assert killed_at, "the fault-injection hook never fired"
            # The survivor kept answering: every post-kill observation on
            # it succeeded, nothing stale, nothing moving backwards.
            after = [
                obs
                for obs in report.observations_after(killed_at["t"])
                if obs.url == survivor
            ]
            assert after, "no post-kill observations on the survivor"
            assert all(obs.status in (200, 304) for obs in after)
            assert not report.stale_reads()
            assert not report.snapshot_regressions()
            # The harness absorbed the dead worker as recorded errors.
            assert any(
                obs.status == 0
                for obs in report.observations
                if obs.url == victim_url
            ), "the dead worker's readers recorded no connection errors"
            # Post-kill the survivor serves exactly one dataset digest.
            digests = report.digests_after(killed_at["t"], survivor)
            assert len(digests) == 1, (
                f"mixed dataset digests after the kill: {sorted(digests)}"
            )

            # A never-cached matrix query after the kill: still one clean
            # payload on the surviving dataset state.
            status, _headers, body = _fetch(
                survivor + "/v1/matrix/ksets?k=2&top=3"
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["dataset"]["digest"] in digests
        finally:
            cluster.stop()
