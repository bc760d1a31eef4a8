"""Incremental registry updates: derived and recompiled corpora are twins.

When a delta lands, the ingesting worker derives the new head from its
cached parent (:meth:`~repro.service.registry.ArtifactRegistry.patch`):
:meth:`~repro.snapshots.diff.SnapshotDiff.apply` replays the diff on the
parent's entries and the dataset compiles on the parent's engine, with no
decode of the ledger.  The result must be *indistinguishable to clients*
from a cold ``dataset_at`` load -- identical entries in identical order,
scoped digests, ETags and response payloads -- on every engine.  These
tests pin that at the registry level and over live HTTP, and pin that the
first registration of a digest wins when a cold load races the patch.
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
class TestRegistryPatch:
    def test_patched_artifacts_equal_recompiled_artifacts(self, snapshot_db, engine):
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        parent = registry.get(_state(base), provider.load)
        patched = registry.patch(_state(base), _state(head), diff)
        assert patched is not None
        assert registry.patched_count == 1
        assert patched.dataset.engine == engine

        recompiled = ArtifactRegistry().get(_state(head), provider.load)
        assert patched.dataset.entries == recompiled.dataset.entries
        assert patched.dataset.snapshot == recompiled.dataset.snapshot == head
        assert patched.digest == recompiled.digest == head.digest
        assert patched.dataset.digest() == head.digest
        # Identical ETag material: every scoped digest matches on both paths.
        for configuration in ServerConfiguration:
            for scope in SCOPES:
                assert patched.scope_digest(scope, configuration) == (
                    recompiled.scope_digest(scope, configuration)
                ), (scope, configuration)
            # Identical payload material: the derived analyses agree too.
            assert patched.pair_matrix(configuration) == recompiled.pair_matrix(
                configuration
            )
            for pair in (("Debian", "RedHat"), ("OpenBSD", "NetBSD")):
                assert patched.shared_count(pair, configuration) == (
                    recompiled.shared_count(pair, configuration)
                )
        # The parent's scoped digests differ wherever the delta hit.
        assert parent.scope_digest(None) != patched.scope_digest(None)

    def test_patch_reuses_the_parents_unchanged_entries(self, snapshot_db, engine):
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        parent = registry.get(_state(base), provider.load)
        patched = registry.patch(_state(base), _state(head), diff)
        by_id = {entry.cve_id: entry for entry in parent.dataset.entries}
        changed = set(diff.changed)
        reused = [
            entry
            for entry in patched.dataset.entries
            if entry.cve_id not in changed
        ]
        assert len(reused) == len(by_id) - len(diff.modified) - len(diff.removed)
        assert all(entry is by_id[entry.cve_id] for entry in reused)

    def test_patched_digest_is_served_from_the_registry(self, snapshot_db, engine):
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        registry.get(_state(base), provider.load)
        patched = registry.patch(_state(base), _state(head), diff)
        assert registry.get(_state(head), provider.load) is patched
        assert registry.compile_count == 1  # the base compile only

    def test_patch_requires_a_cached_parent(self, snapshot_db, engine):
        db_path, base, head, diff = snapshot_db
        registry = ArtifactRegistry()
        assert registry.patch(_state(base), _state(head), diff) is None
        assert registry.patched_count == 0
        assert len(registry) == 0

    def test_patch_returns_existing_artifacts_when_already_compiled(
        self, snapshot_db, engine
    ):
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        registry.get(_state(base), provider.load)
        compiled = registry.get(_state(head), provider.load)
        assert registry.patch(_state(base), _state(head), diff) is compiled
        assert registry.patched_count == 0

    def test_patch_trims_the_registry_to_its_bound(self, snapshot_db, engine):
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry(max_datasets=1)
        registry.get(_state(base), provider.load)
        registry.patch(_state(base), _state(head), diff)
        assert registry.digests() == [head.digest]

    def test_a_cold_get_finishing_after_patch_keeps_the_patched_artifacts(
        self, snapshot_db, engine
    ):
        """The first registration of a digest wins.

        A reader sees the new head through ``PRAGMA data_version`` while
        the ingest thread is still diffing, so its cold load can finish
        after ``patch`` registered the head; it must not replace the
        patched artifacts and the memos requests already made on them.
        """
        db_path, base, head, diff = snapshot_db
        provider = SnapshotDatasetProvider(db_path, engine=engine)
        registry = ArtifactRegistry()
        registry.get(_state(base), provider.load)
        loading, release = threading.Event(), threading.Event()

        def blocked_loader(state):
            loading.set()
            assert release.wait(30)
            return provider.load(state)

        with ThreadPoolExecutor(max_workers=1) as pool:
            cold = pool.submit(registry.get, _state(head), blocked_loader)
            assert loading.wait(30)
            patched = registry.patch(_state(base), _state(head), diff)
            assert patched is not None
            scoped = patched.scope_digest(("Debian", "OpenBSD"))
            release.set()
            assert cold.result(timeout=60) is patched
        assert registry.get(_state(head), provider.load) is patched
        assert patched.scope_digest(("Debian", "OpenBSD")) == scoped
        assert registry.patched_count == 1
        assert registry.compile_count == 2  # the base and the cold load
        assert len(registry) == 2


def test_racing_gets_and_a_patch_share_one_registration(snapshot_db):
    """Eight cold gets and a patch of one head, released together under a
    1 us switch interval: every caller gets the one registered object."""
    db_path, base, head, diff = snapshot_db
    provider = SnapshotDatasetProvider(db_path)
    registry = ArtifactRegistry()
    registry.get(_state(base), provider.load)
    start = threading.Barrier(9)

    def get():
        start.wait(30)
        return registry.get(_state(head), provider.load)

    def patch():
        start.wait(30)
        return registry.patch(_state(base), _state(head), diff)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=9) as pool:
            futures = [pool.submit(get) for _ in range(8)] + [pool.submit(patch)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result is results[0] for result in results)
    assert registry.get(_state(head), provider.load) is results[0]
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

    def test_delta_ingest_patches_and_serves_cold_server_bytes(
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
        # The ingest handler derived the new head from the parent...
        assert app.registry.patched_count == 1
        after = {path: client.get(path) for path in self.PATHS}
        assert all(response.status == 200 for response in after.values())
        assert after["/v1/matrix/pairs"].etag != before.etag
        # ...so serving it never loaded the ledger again.
        assert app.registry.compile_count == 1
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
