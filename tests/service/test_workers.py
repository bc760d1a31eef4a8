"""One worker of a multi-worker deployment, in-process.

A worker answers every matrix query itself -- so each worker of an
N-worker fleet returns the bytes (and ETags) a single process returns,
without ever asking a peer -- and uses its peers only for the cluster
chores: metric gathering and forwarding a job poll to the worker that
generated the id.  A delta needs no peer call at all: workers over one
ledger learn of it from the ledger head, and each derives the new head
from the parent it has cached.  Peers here are recording
stand-ins for the internal listeners, so every call a worker makes to
them is visible to the test; the live-process paths are covered by
``test_cluster.py``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.obs import TRACE_HEADER, MetricsRegistry
from repro.service import (
    DiversityService,
    ServiceConfig,
    SnapshotDatasetProvider,
    schemas,
)
from repro.service.config import ServiceConfigError
from repro.service import server as server_module
from repro.service.server import HttpRequest
from repro.snapshots.store import SnapshotStore

from tests.service.conftest import make_app
from tests.service.test_delta_freshness import _debian_delta

SET1 = ["Windows2003", "Solaris", "Debian", "OpenBSD"]


class RecordingPeer:
    """A peer's internal listener: canned GET answers, every call recorded.

    A call through any other client method is recorded under the
    method's name, so a test that expects no peer traffic sees any.
    """

    def __init__(self, answers=None, down: bool = False) -> None:
        self.answers = dict(answers or {})
        self.down = down
        self.calls = []

    def get_json(self, path, headers=None):
        self.calls.append(("GET", path, headers))
        if self.down:
            raise OSError("connection refused")
        return self.answers.get(path)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)

        def call(path, *args, headers=None, **kwargs):
            self.calls.append((name, path, headers))

        return call


def _peer_urls(count: int):
    return tuple(f"http://127.0.0.1:{9100 + index}" for index in range(count))


def _get(app, path, query=None, headers=None):
    return app.dispatch(
        HttpRequest(
            method="GET", path=path, query=query or {}, headers=headers or {}
        )
    )


@pytest.fixture()
def workers(corpus):
    """Build worker ``index`` of a ``count``-worker fleet with recording peers.

    ``count=0`` builds a standalone server.  With ``db`` the worker serves
    that snapshot ledger, otherwise the session corpus.  Every app built
    is shut down (and its job table drained) on teardown.
    """
    built = []

    def build(index: int, count: int, db=None, **peers: RecordingPeer):
        if db is None:
            app = make_app(corpus, shard_index=index, peers=_peer_urls(count))
        else:
            app = DiversityService(
                ServiceConfig(db=db, shard_index=index, peers=_peer_urls(count)),
                SnapshotDatasetProvider(db),
            )
        app.peers = [
            peers.get(f"peer{position}", RecordingPeer())
            for position in range(count)
        ]
        built.append(app)
        return app

    yield build
    for app in built:
        assert app.jobs.drain(grace=60.0) is True
        app.shutdown()


def _peer_calls(app):
    return [call for peer in app.peers for call in peer.calls]


class TestWorkerConfig:
    @pytest.mark.parametrize(
        "index, peers", [(1, 0), (-1, 0), (2, 2), (-1, 2), (5, 3)]
    )
    def test_shard_index_must_index_the_peers(self, index, peers):
        with pytest.raises(ServiceConfigError, match="does not index"):
            ServiceConfig(shard_index=index, peers=_peer_urls(peers))

    @pytest.mark.parametrize("index, peers", [(0, 0), (1, 2), (2, 3)])
    def test_an_index_into_the_peers_is_accepted(self, index, peers):
        config = ServiceConfig(shard_index=index, peers=_peer_urls(peers))
        assert config.shard_index == index
        assert len(config.peers) == peers


class TestHealthzShardBlock:
    def test_a_standalone_worker_is_shard_0_of_1(self, workers):
        health = json.loads(_get(workers(0, 0), "/healthz").body)
        assert health["shard"] == {"index": 0, "count": 1, "peers": 0}

    def test_a_worker_reports_its_index_and_the_peer_count(self, workers):
        app = workers(2, 3)
        health = json.loads(_get(app, "/healthz").body)
        assert health["shard"] == {"index": 2, "count": 3, "peers": 3}
        assert _peer_calls(app) == []


class TestByteIdentity:
    """workers=1 and workers=N produce bit-for-bit identical payloads."""

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_pairs_matrix_is_byte_identical(self, workers, shards):
        reference = _get(workers(0, 0), "/v1/matrix/pairs")
        assert reference.status == 200
        for index in range(shards):
            app = workers(index, shards)
            result = _get(app, "/v1/matrix/pairs")
            assert result.status == 200
            assert result.body == reference.body
            assert result.headers["ETag"] == reference.headers["ETag"]

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("slug", list(schemas.CONFIGURATIONS))
    def test_ksets_are_byte_identical_across_configurations(
        self, workers, shards, slug
    ):
        query = {"k": ("3",), "top": ("7",), "configuration": (slug,)}
        reference = _get(workers(0, 0), "/v1/matrix/ksets", query)
        assert reference.status == 200
        for index in range(shards):
            result = _get(workers(index, shards), "/v1/matrix/ksets", query)
            assert result.status == 200
            assert result.body == reference.body

    def test_matrix_reads_never_contact_peers(self, workers):
        app = workers(1, 3)
        for slug in schemas.CONFIGURATIONS:
            query = {"configuration": (slug,)}
            assert _get(app, "/v1/matrix/pairs", query).status == 200
            for k in ("2", "4"):
                query = {"k": (k,), "top": ("5",), "configuration": (slug,)}
                assert _get(app, "/v1/matrix/ksets", query).status == 200
        assert _peer_calls(app) == []

    def test_an_etag_from_one_worker_revalidates_on_another(self, workers):
        first, second = workers(0, 2), workers(1, 2)
        query = {"k": ("2",), "top": ("3",)}
        etag = _get(first, "/v1/matrix/ksets", query).headers["ETag"]
        revalidated = _get(
            second, "/v1/matrix/ksets", query, headers={"if-none-match": etag}
        )
        assert revalidated.status == 304
        assert revalidated.headers["ETag"] == etag


class TestJobPollForwarding:
    """A generated id another worker owns is asked of that worker."""

    JOB = {"job_id": "job-1-4", "state": "done", "seed": 2}

    def _owner(self, down: bool = False) -> RecordingPeer:
        return RecordingPeer({"/v1/jobs/job-1-4": self.JOB}, down=down)

    def test_a_poll_is_forwarded_to_the_owner(self, workers):
        owner = self._owner()
        app = workers(0, 2, peer1=owner)
        response = _get(app, "/v1/jobs/job-1-4")
        assert response.status == 200
        assert json.loads(response.body) == self.JOB
        assert [call[:2] for call in owner.calls] == [("GET", "/v1/jobs/job-1-4")]

    def test_the_forwarded_poll_joins_the_trace(self, workers):
        owner = self._owner()
        app = workers(0, 2, peer1=owner)
        headers = {TRACE_HEADER.lower(): "poll-trace-1"}
        assert _get(app, "/v1/jobs/job-1-4", headers=headers).status == 200
        ((_method, _path, sent),) = owner.calls
        assert sent == {TRACE_HEADER: "poll-trace-1"}
        (record,) = app.tracer.find("poll-trace-1")
        forwards = [
            span["tags"] for span in record.to_json()["spans"]
            if span["name"] == "jobs.forward"
        ]
        assert forwards == [{"owner": "1"}]

    @pytest.mark.parametrize("down", [False, True])
    def test_an_owner_without_the_job_reads_as_404(self, workers, down):
        owner = RecordingPeer(down=down)
        app = workers(0, 2, peer1=owner)
        response = _get(app, "/v1/jobs/job-1-9")
        assert response.status == 404
        assert json.loads(response.body)["error"]["detail"] == {"job_id": "job-1-9"}
        assert len(owner.calls) == 1

    def test_a_local_hit_is_never_forwarded(self, workers):
        # A client may claim an id shaped like another worker's: the
        # worker that took it answers for it.
        app = workers(0, 2, peer1=self._owner())
        body = {
            "configurations": {"Set1": SET1}, "runs": 2, "horizon": 1.0,
            "seed": 5, "id": "job-1-4",
        }
        submitted = app.dispatch(
            HttpRequest(
                method="POST", path="/v1/simulations", query={}, headers={},
                body=json.dumps(body).encode("utf-8"),
            )
        )
        assert submitted.status == 202
        polled = json.loads(_get(app, "/v1/jobs/job-1-4").body)
        assert polled["job_id"] == "job-1-4" and polled["seed"] == 5
        assert _peer_calls(app) == []

    @pytest.mark.parametrize("job_id", ["nightly", "job-0-3", "job-2-1"])
    def test_ids_no_peer_generated_are_not_forwarded(self, workers, job_id):
        app = workers(0, 2, peer1=self._owner())
        assert _get(app, f"/v1/jobs/{job_id}").status == 404
        assert _peer_calls(app) == []

    def test_a_standalone_worker_never_forwards(self, workers):
        app = workers(0, 0)
        assert app.peers == []
        assert _get(app, "/v1/jobs/job-1-4").status == 404


class TestJobRunner:
    def test_a_cluster_worker_runs_jobs_inline(self, corpus, monkeypatch):
        # workers counts serving processes: a job pool of that size in
        # every worker would fork workers² processes.
        sizes = []
        for_dataset = server_module.GridRunner.for_dataset

        def recording(dataset, **kwargs):
            sizes.append(kwargs["workers"])
            return for_dataset(dataset, **kwargs)

        monkeypatch.setattr(server_module.GridRunner, "for_dataset", recording)
        app = make_app(corpus, workers=2, shard_index=0, peers=_peer_urls(2))
        app.peers = [RecordingPeer(), RecordingPeer()]
        body = {
            "configurations": {"Set1": SET1}, "runs": 2, "horizon": 1.0,
            "seed": 3,
        }
        try:
            submitted = app.dispatch(
                HttpRequest(
                    method="POST", path="/v1/simulations", query={}, headers={},
                    body=json.dumps(body).encode("utf-8"),
                )
            )
            assert submitted.status == 202
            assert app.jobs.drain(grace=60.0) is True
            job_id = json.loads(submitted.body)["job_id"]
            job = json.loads(_get(app, f"/v1/jobs/{job_id}").body)
        finally:
            app.shutdown()
        assert job["state"] == "done", job
        assert sizes == [1]


def _peer_metrics(shard: int):
    registry = MetricsRegistry()
    registry.counter("peer_probe_total", "A counter only peers carry.").inc()
    return {"/internal/v1/metrics": {"shard": shard, "metrics": registry.snapshot()}}


def _probe_shards(text: str):
    return sorted(
        re.findall(r'^repro_peer_probe_total\{shard="(\d+)"\} 1$', text, re.M)
    )


class TestMetricsGathering:
    def test_a_cluster_scrape_asks_every_other_worker_once(self, workers):
        peer0 = RecordingPeer(_peer_metrics(0))
        peer2 = RecordingPeer(_peer_metrics(2))
        app = workers(1, 3, peer0=peer0, peer2=peer2)
        result = _get(app, "/metrics")
        assert result.status == 200
        assert _probe_shards(result.body.decode("utf-8")) == ["0", "2"]
        assert [call[:2] for call in peer0.calls + peer2.calls] == [
            ("GET", "/internal/v1/metrics"),
            ("GET", "/internal/v1/metrics"),
        ]
        assert app.peers[1].calls == []

    def test_a_dead_peer_drops_out_of_the_scrape(self, workers):
        app = workers(
            0, 3,
            peer1=RecordingPeer(_peer_metrics(1), down=True),
            peer2=RecordingPeer(_peer_metrics(2)),
        )
        result = _get(app, "/metrics")
        assert result.status == 200
        text = result.body.decode("utf-8")
        assert _probe_shards(text) == ["2"]
        assert 'shard="0"' in text

    def test_a_worker_scope_scrape_asks_no_peer(self, workers):
        app = workers(0, 2, peer1=RecordingPeer(_peer_metrics(1)))
        result = _get(app, "/metrics", {"scope": ("worker",)})
        assert result.status == 200
        assert _probe_shards(result.body.decode("utf-8")) == []
        assert _peer_calls(app) == []


@pytest.fixture()
def ledger(corpus, tmp_path):
    """A snapshot ledger whose one snapshot holds the session corpus."""
    db_path = tmp_path / "serve.db"
    database = VulnerabilityDatabase(db_path)
    IngestPipeline(database=database).ingest_raw(corpus.to_raw_feed_entries())
    SnapshotStore(database).commit(source="full ingest")
    database.close()
    return str(db_path)


class TestLedgerOnlyFreshness:
    """Workers over one ledger learn of a delta from the ledger alone."""

    DEBIAN = {"os": ("Debian,OpenBSD",)}
    WINDOWS = {"os": ("Windows2000,Windows2003",)}

    def test_a_worker_that_heard_nothing_answers_the_new_head(
        self, workers, ledger, corpus, tmp_path
    ):
        ingesting, other = workers(0, 2, db=ledger), workers(1, 2, db=ledger)
        debian = _get(other, "/v1/shared", self.DEBIAN)
        windows = _get(other, "/v1/shared", self.WINDOWS)
        assert debian.status == windows.status == 200

        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        ingested = ingesting.dispatch(
            HttpRequest(
                method="POST", path="/v1/ingest/delta", query={}, headers={},
                body=feed.read_bytes(),
            )
        )
        assert ingested.status == 200, ingested.body
        head = json.loads(ingested.body)["snapshot"]
        assert _peer_calls(ingesting) == []

        # The touched scope's digest moved with the head, so the old ETag
        # misses; the untouched scope keeps its digest and revalidates.
        fresh = _get(
            other, "/v1/shared", self.DEBIAN,
            headers={"if-none-match": debian.headers["ETag"]},
        )
        assert fresh.status == 200
        assert fresh.headers["ETag"] != debian.headers["ETag"]
        assert json.loads(fresh.body)["dataset"]["snapshot_id"] == head["snapshot_id"]
        # It derived the new head from the parent it had cached.
        assert (other.registry.compile_count, other.registry.patched_count) == (1, 1)
        revalidated = _get(
            other, "/v1/shared", self.WINDOWS,
            headers={"if-none-match": windows.headers["ETag"]},
        )
        assert revalidated.status == 304
        assert other.responses.invalidations == 0
        assert _peer_calls(other) == []

    def test_no_worker_serves_an_invalidate_route(self, workers):
        app = workers(0, 2)
        response = app.dispatch(
            HttpRequest(
                method="POST", path="/internal/v1/invalidate", query={},
                headers={}, body=b'{"digest": "d"}',
            )
        )
        assert response.status == 404
