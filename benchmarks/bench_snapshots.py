"""Incremental ingestion: speed, idempotence and selective-invalidation gates.

The snapshot subsystem promises that the reproduction is *incrementally*
updatable, and this bench holds it to all three acceptance criteria on the
full calibrated corpus:

* **speed** -- applying a 1%-modified delta feed (parse + upsert + snapshot
  commit) is at least ``10x`` faster than a full re-ingest of the corpus
  feed (parse + normalise + classify + insert + snapshot commit);
* **idempotence** -- re-applying the same delta mutates nothing and commits
  no new snapshot: the ledger head keeps the identical digest;
* **selective invalidation** -- after a delta touching one OS, a warm-cache
  sweep re-runs only the cells whose OSes appear in the snapshot diff;
  every other cell is served from the content-addressed cache with its
  bytes unchanged on disk.

Run the smoke subset (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_snapshots.py -q -s -k smoke

or the full gate including the 10x timing floor::

    PYTHONPATH=src python -m pytest benchmarks/bench_snapshots.py -q -s
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing
from pathlib import Path

import pytest

from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import ServerConfiguration
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.runner import ExperimentGrid, GridRunner, ResultCache
from repro.runner.cache import CACHE_FILE
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.store import SnapshotStore
from repro.synthetic.evolution import evolve_corpus

#: Acceptance gate: 1%-modified delta ingest vs full re-ingest.
DELTA_SPEEDUP_FLOOR = 10.0


def _full_ingest(feed_paths, db_path):
    """Full pipeline: parse feeds, normalise, classify, insert, snapshot."""
    database = VulnerabilityDatabase(db_path)
    pipeline = IngestPipeline(database=database)
    started = time.perf_counter()
    pipeline.ingest_xml_feeds(feed_paths)
    record = SnapshotStore(database).commit(source="full")
    elapsed = time.perf_counter() - started
    return database, pipeline, record, elapsed


@pytest.fixture(scope="module")
def ingested(corpus, tmp_path_factory):
    """The corpus written as feeds and fully ingested once, with timings."""
    root = tmp_path_factory.mktemp("snapshots-bench")
    feed_dir = root / "feeds"
    paths = corpus.write_xml_feeds(feed_dir)
    database, pipeline, record, full_seconds = _full_ingest(paths, root / "corpus.db")
    return {
        "root": root,
        "feed_paths": paths,
        "database": database,
        "pipeline": pipeline,
        "snapshot": record,
        "full_seconds": full_seconds,
    }


# ---------------------------------------------------------------------------
# smoke subset (CI: -k smoke)
# ---------------------------------------------------------------------------


def test_snapshots_smoke_delta_is_idempotent(corpus, ingested):
    """Applying the same 1% delta twice: second pass is a ledger no-op."""
    delta = evolve_corpus(corpus, fraction=0.01, seed=1311, rejections=2)
    feed = delta.write_feed(ingested["root"] / "modified.xml")
    pipeline = DeltaIngestPipeline(ingested["pipeline"])

    first = pipeline.apply_feed(feed, source="delta")
    assert first.changed == len(delta.entries)
    assert first.snapshot is not None
    assert first.snapshot.parent_digest == ingested["snapshot"].digest

    second = pipeline.apply_feed(feed, source="delta-replay")
    assert second.changed == 0
    assert second.snapshot.digest == first.snapshot.digest
    assert second.snapshot.snapshot_id == first.snapshot.snapshot_id
    print(f"\n=== snapshots smoke (idempotence) ===")
    print(f"  first apply : {first.summary()}")
    print(f"  second apply: {second.summary()}")


def _rows(cache):
    """Every stored ``(key, text)`` row of a sweep cache, as a dict."""
    with closing(sqlite3.connect(cache.cache_dir / CACHE_FILE)) as connection:
        return dict(connection.execute("SELECT key, text FROM cells"))


def test_snapshots_smoke_selective_cache_invalidation(corpus, tmp_path):
    """After a Debian-only delta, a warm sweep re-runs only Debian cells."""
    database = VulnerabilityDatabase()
    pipeline = IngestPipeline(database=database)
    pipeline.ingest_raw(corpus.to_raw_feed_entries())
    store = SnapshotStore(database)
    base = store.commit(source="full")

    grid = ExperimentGrid(
        configurations={
            "debian-mixed": ("Debian", "OpenBSD", "Solaris", "Windows2003"),
            "windows-only": ("Windows2000", "Windows2003", "Windows2008",
                             "Windows2000"),
        },
        runs=20,
        horizon=2.0,
    )
    cache = ResultCache(tmp_path / "cache")
    before = store.dataset_at(base.snapshot_id)
    cold = GridRunner(
        [entry for entry in before if entry.is_valid], seed=41, cache=cache
    ).run(grid)
    assert cold.cached_cells == 0

    # A delta over entries the Isolated-Thin simulation can actually see,
    # touching Debian but none of the windows-only cell's OSes.
    admits = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).admits
    delta = evolve_corpus(
        corpus, fraction=0.005, seed=7, target_os="Debian",
        entry_filter=lambda entry: admits(entry)
        and not entry.affected_os & {"Windows2000", "Windows2003", "Windows2008"},
    )
    report = DeltaIngestPipeline(pipeline, store).apply_raw(
        delta.entries, source="debian-delta"
    )
    diff = store.diff(base.snapshot_id, report.snapshot.snapshot_id)
    assert "Debian" in diff.affected_os_names()

    cached_rows = _rows(cache)
    # One row per cold cell, so the byte check below cannot pass vacuously.
    assert sorted(json.loads(text)["cell_id"] for text in cached_rows.values()) == (
        sorted(cell.cell.cell_id for cell in cold.cells)
    )

    after = store.dataset_at(report.snapshot.snapshot_id)
    warm = GridRunner(
        [entry for entry in after if entry.is_valid], seed=41, cache=cache
    ).run(grid)
    rerun = {cell.cell.configuration for cell in warm.cells if not cell.cached}
    served = {cell.cell.configuration for cell in warm.cells if cell.cached}
    for cell in warm.cells:
        # Acceptance criterion: every cell the diff does not touch is a
        # cache hit.  (A touched cell re-runs whenever the change is inside
        # its admitted scope, as the Debian cell below demonstrates.)
        if not diff.touches_group(cell.cell.os_names):
            assert cell.cached, cell.cell.cell_id
    assert rerun == {"debian-mixed"}
    assert served == {"windows-only"}
    # Cached rows of untouched cells are byte-identical in the cache file.
    after_rows = _rows(cache)
    for key, text in cached_rows.items():
        assert after_rows[key] == text
    print(f"\n=== snapshots smoke (selective invalidation) ===")
    print(f"  re-ran : {sorted(rerun)}")
    print(f"  cached : {sorted(served)}")


# ---------------------------------------------------------------------------
# full gate (the 10x timing floor)
# ---------------------------------------------------------------------------


def test_snapshots_delta_ingest_speedup(corpus, ingested):
    """1%-modified delta ingest >= 10x faster than a full re-ingest."""
    delta = evolve_corpus(corpus, fraction=0.01, seed=2011)
    feed = delta.write_feed(ingested["root"] / "speed-delta.xml")

    # Fresh full ingest (measured against a second, untouched database so
    # the comparison is parse-to-snapshot on both sides).
    _, _, _, full_seconds = _full_ingest(
        ingested["feed_paths"], ingested["root"] / "reingest.db"
    )

    pipeline = DeltaIngestPipeline(ingested["pipeline"])
    started = time.perf_counter()
    report = pipeline.apply_feed(feed, source="speed-delta")
    delta_seconds = time.perf_counter() - started
    assert report.modified > 0

    speedup = full_seconds / delta_seconds
    print(f"\n=== snapshots: delta vs full re-ingest "
          f"({len(corpus.entries)} entries, {len(delta.entries)} in delta) ===")
    print(f"  full re-ingest : {full_seconds * 1e3:8.1f}ms")
    print(f"  delta ingest   : {delta_seconds * 1e3:8.1f}ms")
    print(f"  speedup        : {speedup:5.1f}x (floor {DELTA_SPEEDUP_FLOOR}x)")
    assert speedup >= DELTA_SPEEDUP_FLOOR, (
        f"delta ingest speedup {speedup:.1f}x below the "
        f"{DELTA_SPEEDUP_FLOOR}x acceptance floor"
    )
