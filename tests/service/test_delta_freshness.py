"""Snapshot-backed serving: ledger endpoints, delta ingest, ETag freshness.

The tentpole cache property, end to end: a server over a PR-4 snapshot
store keeps answering -- without a restart -- while deltas land.  A delta
that touches a query's OSes makes its old ETag stale (full fresh response);
a delta that does not leaves the ETag valid (``304`` keeps working); the
ingesting server evicts exactly the touched response-cache entries; and a
delta that waits out the ledger's write lock answers ``503 busy``.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.classify.filters import ServerConfigurationFilter
from repro.core.constants import OS_NAMES
from repro.core.enums import ServerConfiguration
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.service import (
    DiversityService,
    ServiceConfig,
    ServiceServer,
    SnapshotDatasetProvider,
)
from repro.service.server import HttpRequest
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.store import SnapshotStore
from repro.synthetic.evolution import evolve_corpus

from tests.conftest import revisiting_ledger
from tests.service.conftest import ServiceClient

WINDOWS = {"Windows2000", "Windows2003", "Windows2008"}


@pytest.fixture()
def db_server(corpus, tmp_path):
    """A live server over a freshly-ingested snapshot store."""
    db_path = tmp_path / "serve.db"
    database = VulnerabilityDatabase(db_path)
    pipeline = IngestPipeline(database=database)
    pipeline.ingest_raw(corpus.to_raw_feed_entries())
    base = SnapshotStore(database).commit(source="full ingest")
    database.close()

    app = DiversityService(
        ServiceConfig(db=str(db_path)),
        SnapshotDatasetProvider(str(db_path)),
    )
    service = ServiceServer(app)
    client = ServiceClient(service.start())
    try:
        yield client, app, base
    finally:
        service.stop(drain_grace=30.0)


def _debian_delta(corpus, seed=71):
    """A delta touching Debian but none of the Windows OSes."""
    admits = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).admits
    return evolve_corpus(
        corpus,
        fraction=0.005,
        seed=seed,
        target_os="Debian",
        entry_filter=lambda entry: admits(entry) and not entry.affected_os & WINDOWS,
    )


class TestLedgerEndpoints:
    def test_snapshots_listing(self, db_server):
        client, _app, base = db_server
        payload = client.get("/v1/snapshots").json()
        assert [record["snapshot_id"] for record in payload["snapshots"]] == [
            base.snapshot_id
        ]
        assert payload["snapshots"][0]["digest"] == base.digest

    def test_single_snapshot_by_id_and_digest_prefix(self, db_server):
        client, _app, base = db_server
        by_id = client.get(f"/v1/snapshots/{base.snapshot_id}").json()
        by_digest = client.get(f"/v1/snapshots/{base.digest[:10]}").json()
        assert by_id == by_digest
        assert by_id["entry_count"] == base.entry_count

    def test_unknown_snapshot_is_404(self, db_server):
        client, _app, _base = db_server
        assert client.get("/v1/snapshots/999").status == 404

    def test_diff_defaults_to_the_parent_on_a_revisiting_ledger(self, tmp_path):
        db_path = str(tmp_path / "revisit.db")
        database, (first, second, _third) = revisiting_ledger(db_path)
        database.close()
        app = DiversityService(
            ServiceConfig(db=db_path), SnapshotDatasetProvider(db_path)
        )
        try:
            response = app.dispatch(
                HttpRequest(
                    method="GET", path="/v1/snapshots/diff",
                    query={"to": ("2",)}, headers={},
                )
            )
        finally:
            app.shutdown()
        assert response.status == 200, response.body
        payload = json.loads(response.body)
        assert payload["from_snapshot"]["snapshot_id"] == first.snapshot_id
        assert payload["to_snapshot"]["snapshot_id"] == second.snapshot_id
        assert payload["modified"] == ["CVE-2005-0001"]

    def test_diff_of_a_root_needs_from(self, db_server):
        client, _app, base = db_server
        response = client.get("/v1/snapshots/diff")
        assert response.status == 400
        error = response.json()["error"]
        assert f"#{base.snapshot_id} has no parent" in error["message"]
        assert error["detail"] == {"parameter": "from"}

    def test_healthz_names_the_snapshot(self, db_server):
        client, _app, base = db_server
        payload = client.get("/healthz").json()
        assert payload["dataset"]["snapshot_id"] == base.snapshot_id
        assert payload["dataset"]["digest"] == base.digest


class TestDeltaIngestOverHttp:
    def test_delta_lands_and_diff_reports_blast_radius(
        self, db_server, corpus, tmp_path
    ):
        client, _app, base = db_server
        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        result = client.request(
            "POST",
            "/v1/ingest/delta?source=test-delta",
            headers={"Content-Type": "application/xml"},
            body=feed.read_bytes(),
        )
        assert result.status == 200, result.body
        report = result.json()
        assert report["modified"] > 0
        assert report["snapshot"]["parent_digest"] == base.digest

        diff = client.get(
            f"/v1/snapshots/diff?from={base.snapshot_id}"
            f"&to={report['snapshot']['snapshot_id']}"
        ).json()
        assert "Debian" in diff["affected_os_names"]
        assert not set(diff["affected_os_names"]) & WINDOWS

    def test_replayed_delta_is_idempotent(self, db_server, corpus, tmp_path):
        client, _app, _base = db_server
        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        body = feed.read_bytes()
        first = client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"}, body=body,
        ).json()
        second = client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"}, body=body,
        ).json()
        assert second["modified"] == second["added"] == second["removed"] == 0
        assert second["snapshot"]["digest"] == first["snapshot"]["digest"]


class TestConcurrentIngest:
    def test_concurrent_deltas_keep_the_ledger_linear(
        self, db_server, corpus, tmp_path
    ):
        # Eight deltas, each on a different OS, posted at once: every
        # commit must chain off the one before it, never off a shared head.
        client, _app, base = db_server
        bodies = [
            evolve_corpus(corpus, fraction=0.005, seed=300 + index, target_os=name)
            .write_feed(tmp_path / f"delta-{index}.xml")
            .read_bytes()
            for index, name in enumerate(OS_NAMES[:8])
        ]
        start = threading.Barrier(len(bodies))

        def post(body):
            start.wait()
            return client.request(
                "POST", "/v1/ingest/delta",
                headers={"Content-Type": "application/xml"}, body=body,
            )

        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            results = list(pool.map(post, bodies))
        assert [result.status for result in results] == [200] * len(bodies)
        ledger = client.get("/v1/snapshots").json()["snapshots"]
        assert ledger[0]["digest"] == base.digest
        # Each delta's upserts and commit are one transaction, so no commit
        # captures another delta's rows: one new snapshot per delta.
        assert len(ledger) == 1 + len(bodies)
        for parent, child in zip(ledger, ledger[1:]):
            assert child["parent_digest"] == parent["digest"], ledger
        # Every answer names a snapshot of that one chain.
        digests = {record["digest"] for record in ledger}
        for result in results:
            assert result.json()["snapshot"]["digest"] in digests


class TestEtagFreshnessAcrossDeltas:
    def test_touched_scope_goes_stale_untouched_scope_keeps_304(
        self, db_server, corpus, tmp_path
    ):
        client, app, _base = db_server
        debian_path = "/v1/shared?os=Debian,OpenBSD"
        windows_path = "/v1/shared?os=Windows2000,Windows2003"
        debian_before = client.get(debian_path)
        windows_before = client.get(windows_path)
        assert debian_before.status == windows_before.status == 200

        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        assert client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"},
            body=feed.read_bytes(),
        ).status == 200

        # The Debian-scoped ETag is stale: revalidation misses and the
        # server answers fresh bytes with a new ETag -- no restart needed.
        debian_after = client.get(
            debian_path, headers={"If-None-Match": debian_before.etag}
        )
        assert debian_after.status == 200
        assert debian_after.etag != debian_before.etag

        # The Windows-scoped ETag survives the delta: still a 304.
        windows_after = client.get(
            windows_path, headers={"If-None-Match": windows_before.etag}
        )
        assert windows_after.status == 304
        assert windows_after.etag == windows_before.etag

    def test_one_etag_naming_two_bodies_is_weak(self, db_server, corpus, tmp_path):
        # A delta that misses a scope keeps the scope's digest and so its
        # ETag.  The pre-delta service still holds the old bytes, while a
        # fresh service over the same ledger (another worker) renders the
        # new snapshot's dataset block under that same ETag.
        client, app, _base = db_server
        windows_path = "/v1/shared?os=Windows2000,Windows2003"
        assert client.get(windows_path).status == 200
        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        assert client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"},
            body=feed.read_bytes(),
        ).status == 200

        cached = client.get(windows_path)
        fresh = DiversityService(
            ServiceConfig(db=app.config.db), SnapshotDatasetProvider(app.config.db)
        )

        def fresh_get(headers):
            return fresh.dispatch(HttpRequest(
                method="GET", path="/v1/shared",
                query={"os": ("Windows2000,Windows2003",)}, headers=headers,
            ))

        try:
            rendered = fresh_get({})
            assert rendered.status == cached.status == 200
            assert rendered.headers["ETag"] == cached.etag
            assert rendered.body != cached.body
            assert cached.etag.startswith('W/"')
            # Weak comparison: either spelling of the tag revalidates.
            for presented in (cached.etag, cached.etag.removeprefix("W/")):
                assert fresh_get({"if-none-match": presented}).status == 304
                assert client.get(
                    windows_path, headers={"If-None-Match": presented}
                ).status == 304
        finally:
            fresh.shutdown()

    def test_ingest_evicts_only_touched_cache_entries(
        self, db_server, corpus, tmp_path
    ):
        client, app, _base = db_server
        client.get("/v1/shared?os=Debian,OpenBSD")
        client.get("/v1/shared?os=Windows2000,Windows2003")
        client.get("/v1/matrix/pairs")  # catalogue-wide scope
        entries_before = len(app.responses)
        assert entries_before == 3

        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"},
            body=feed.read_bytes(),
        )
        # The ingest handler evicted the Debian-scoped entry and the global
        # matrix by the snapshot diff's blast radius; the Windows entry
        # survived.
        assert len(app.responses) == 1
        assert app.responses.invalidations == 2

    def test_new_head_is_derived_from_its_parent(self, db_server, corpus, tmp_path):
        client, app, _base = db_server
        assert app.config.engine == "bitset"
        client.get("/v1/catalogue")
        assert app.registry.compile_count == 1
        feed = _debian_delta(corpus).write_feed(tmp_path / "delta.xml")
        client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"},
            body=feed.read_bytes(),
        )
        client.get("/v1/catalogue")
        # The read derived the new head from the cached parent; serving it
        # loaded nothing from the ledger.
        assert app.registry.compile_count == 1
        assert app.registry.patched_count == 1
        assert len(app.registry) == 2  # the old snapshot stays pinnable


class TestBusyLedger:
    def test_a_delta_behind_the_write_lock_is_a_503_then_lands(
        self, db_server, corpus, tmp_path, monkeypatch
    ):
        client, app, base = db_server
        # Shorten sqlite3's 5 s busy wait so the ingest gives up quickly.
        monkeypatch.setattr(
            sqlite3, "connect", functools.partial(sqlite3.connect, timeout=0.2)
        )
        body = _debian_delta(corpus).write_feed(tmp_path / "delta.xml").read_bytes()

        def post():
            return client.request(
                "POST", "/v1/ingest/delta",
                headers={"Content-Type": "application/xml"}, body=body,
            )

        holder = sqlite3.connect(app.config.db, isolation_level=None)
        try:
            holder.execute("BEGIN IMMEDIATE")
            blocked = post()
            holder.execute("ROLLBACK")
        finally:
            holder.close()
        assert blocked.status == 503
        assert blocked.headers["Retry-After"] == "1"
        error = blocked.json()["error"]
        assert (error["code"], error["status"]) == ("busy", 503)

        retried = post()
        assert retried.status == 200, retried.body
        assert retried.json()["snapshot"]["parent_digest"] == base.digest
        ledger = client.get("/v1/snapshots").json()["snapshots"]
        assert [record["parent_digest"] for record in ledger] == [
            None, base.digest
        ]

    def test_any_other_sqlite_error_stays_a_500(
        self, db_server, corpus, tmp_path, monkeypatch
    ):
        client, _app, _base = db_server

        def broken(self, path, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(DeltaIngestPipeline, "apply_feed", broken)
        body = _debian_delta(corpus).write_feed(tmp_path / "delta.xml").read_bytes()
        result = client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"}, body=body,
        )
        assert result.status == 500
        assert result.json()["error"]["code"] == "internal_error"
        assert "Retry-After" not in result.headers
