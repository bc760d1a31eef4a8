"""Derived heads: a head built from its cached parent is a cold head's twin.

:meth:`~repro.service.registry.ArtifactRegistry.get` is the only place a
head is built.  On a miss whose snapshot's parent is cached it derives the
head (:meth:`~repro.service.registry.ArtifactRegistry.patch`):
:meth:`~repro.snapshots.diff.SnapshotDiff.apply` replays the one-link diff
on the parent's entries and the dataset compiles on the parent's engine,
with no decode of the ledger.  The result must be *indistinguishable to
clients* from a cold ``dataset_at`` load -- identical entries in identical
order, scoped digests, ETags and response payloads -- on every engine.
These tests pin that at the registry level and over live HTTP, and pin
that concurrent readers of a new head share one derivation.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest

from repro.analysis.dataset import ENGINES
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
from repro.service.registry import ArtifactRegistry, DatasetState
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.store import SnapshotStore
from repro.synthetic.evolution import evolve_corpus

from tests.service.conftest import ServiceClient

#: Every scope a query can name here: the whole catalogue, each OS, each
#: pair, and one scope with an uncatalogued name (hashed over the view).
SCOPES = (
    None,
    *((name,) for name in OS_NAMES),
    *combinations(OS_NAMES, 2),
    ("Debian", "Plan9"),
)


@pytest.fixture(scope="module")
def snapshot_db(corpus, tmp_path_factory):
    """A snapshot store with a base commit and one applied delta."""
    db_path = tmp_path_factory.mktemp("patch") / "patch.db"
    database = VulnerabilityDatabase(db_path)
    pipeline = IngestPipeline(database=database)
    raw_entries = corpus.to_raw_feed_entries()
    pipeline.ingest_raw(raw_entries[:-5])
    store = SnapshotStore(database)
    base = store.commit(source="full")
    delta = evolve_corpus(corpus, fraction=0.01, seed=23, rejections=1)
    known = {raw.cve_id for raw in raw_entries[:-5]}
    DeltaIngestPipeline(pipeline, store).apply_raw(
        [*raw_entries[-5:], *(raw for raw in delta.entries if raw.cve_id in known)],
        source="delta",
    )
    head = store.head()
    diff = store.diff(base.snapshot_id, head.snapshot_id)
    assert diff.counts() == {"added": 5, "modified": 22, "removed": 1}
    database.close()
    return str(db_path), base, head, diff


def _state(record):
    return DatasetState(digest=record.digest, snapshot=record)


@pytest.mark.parametrize("engine", ENGINES)
class TestDerivedHead:
    def test_a_head_with_a_cached_parent_equals_a_cold_head(
        self, snapshot_db, engine
    ):
        db_path, base, head, _diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        parent = registry.get(_state(base), provider)
        derived = registry.get(_state(head), provider)
        assert (registry.patched_count, registry.compile_count) == (1, 1)
        assert derived.dataset.engine == engine

        cold = ArtifactRegistry().get(_state(head), provider)
        assert derived.dataset.entries == cold.dataset.entries
        assert derived.dataset.snapshot == cold.dataset.snapshot == head
        assert derived.digest == cold.digest == head.digest
        assert derived.dataset.digest() == head.digest
        # Identical ETag material: every scoped digest matches on both paths.
        for configuration in ServerConfiguration:
            for scope in SCOPES:
                assert derived.scope_digest(scope, configuration) == (
                    cold.scope_digest(scope, configuration)
                ), (scope, configuration)
            # Identical payload material: the derived analyses agree too.
            assert derived.pair_matrix(configuration) == cold.pair_matrix(
                configuration
            )
            for pair in (("Debian", "RedHat"), ("OpenBSD", "NetBSD")):
                assert derived.shared_count(pair, configuration) == (
                    cold.shared_count(pair, configuration)
                )
        # The parent's scoped digests differ wherever the delta hit.
        assert parent.scope_digest(None) != derived.scope_digest(None)

    def test_a_derived_head_is_served_from_the_registry(self, snapshot_db, engine):
        db_path, base, head, _diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        registry.get(_state(base), provider)
        derived = registry.get(_state(head), provider)
        assert registry.get(_state(head), provider) is derived
        assert registry.hit_count == 1
        assert (registry.patched_count, registry.compile_count) == (1, 1)

    def test_a_head_without_a_cached_parent_loads_cold(self, snapshot_db, engine):
        db_path, _base, head, _diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        loaded = registry.get(_state(head), provider)
        assert (registry.patched_count, registry.compile_count) == (0, 1)
        assert registry.digests() == [head.digest]
        assert loaded.dataset.entries == provider.load(_state(head)).entries

    def test_a_derived_head_reuses_the_parents_unchanged_entries(
        self, snapshot_db, engine
    ):
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        parent = registry.get(_state(base), provider)
        derived = registry.get(_state(head), provider)
        by_id = {entry.cve_id: entry for entry in parent.dataset.entries}
        changed = set(diff.changed)
        reused = [
            entry
            for entry in derived.dataset.entries
            if entry.cve_id not in changed
        ]
        assert len(reused) == len(by_id) - len(diff.modified) - len(diff.removed)
        assert all(entry is by_id[entry.cve_id] for entry in reused)

    def test_a_derived_head_keeps_the_registry_to_its_bound(
        self, snapshot_db, engine
    ):
        db_path, base, head, _diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry(max_datasets=1)
        registry.get(_state(base), provider)
        registry.get(_state(head), provider)
        assert registry.patched_count == 1
        assert registry.digests() == [head.digest]


def test_racing_gets_of_a_new_head_share_one_derivation(snapshot_db):
    """Eight gets of a new head, released together under a 1 us switch
    interval: one derivation, no extra compile, one object for all."""
    db_path, base, head, _diff = snapshot_db
    provider = SnapshotDatasetProvider(db_path)
    registry = ArtifactRegistry()
    registry.get(_state(base), provider)
    start = threading.Barrier(8)

    def get():
        start.wait(30)
        return registry.get(_state(head), provider)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(get) for _ in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result is results[0] for result in results)
    assert (registry.patched_count, registry.compile_count) == (1, 1)
    assert registry.get(_state(head), provider) is results[0]
    assert len(registry) == 2


class TestPatchedServiceOverHttp:
    PATHS = ("/v1/matrix/pairs", "/v1/shared?os=Debian,OpenBSD")

    @pytest.fixture(params=ENGINES)
    def db_server(self, request, corpus, tmp_path):
        """A live server over a snapshot store, on each engine."""
        db_path = tmp_path / "serve.db"
        database = VulnerabilityDatabase(db_path)
        pipeline = IngestPipeline(database=database)
        pipeline.ingest_raw(corpus.to_raw_feed_entries())
        SnapshotStore(database).commit(source="full ingest")
        database.close()

        app = DiversityService(
            ServiceConfig(db=str(db_path), engine=request.param),
            SnapshotDatasetProvider(str(db_path), engine=request.param),
        )
        service = ServiceServer(app)
        client = ServiceClient(service.start())
        try:
            yield client, app
        finally:
            service.stop(drain_grace=30.0)

    def test_the_first_read_after_a_delta_derives_cold_server_bytes(
        self, db_server, corpus, tmp_path
    ):
        client, app = db_server
        before = client.get("/v1/matrix/pairs")
        assert before.status == 200
        assert app.registry.compile_count == 1

        feed = evolve_corpus(corpus, fraction=0.01, seed=5).write_feed(
            tmp_path / "delta.xml"
        )
        assert client.request(
            "POST", "/v1/ingest/delta",
            headers={"Content-Type": "application/xml"},
            body=feed.read_bytes(),
        ).status == 200
        # The ingest leaves the registry alone...
        assert app.registry.patched_count == 0
        after = {path: client.get(path) for path in self.PATHS}
        assert all(response.status == 200 for response in after.values())
        assert after["/v1/matrix/pairs"].etag != before.etag
        # ...and the first read derived the new head from the parent,
        # without loading the ledger again.
        registry = client.get("/healthz").json()["registry"]
        assert (registry["patches"], registry["compiles"]) == (1, 1)

        # Both paths serve identical bytes: a cold registry and response
        # cache reproduce the patched ETags and payloads exactly.
        app.reset_caches()
        for path, served in after.items():
            recompiled = client.get(path)
            assert recompiled.headers["X-Cache"] == "miss"
            assert recompiled.etag == served.etag
            assert recompiled.body == served.body
        assert app.registry.compile_count == 2
