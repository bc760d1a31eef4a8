"""Snapshot ledger: commits, chaining, time travel, diffs, checkout."""

import dataclasses
import sqlite3

import pytest

from repro.core.exceptions import DatabaseError
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.digests import dataset_digest_of
from repro.snapshots.export import entry_to_raw, write_snapshot_feeds
from repro.snapshots.store import SnapshotStore
from repro.synthetic.evolution import evolve_corpus
from tests.conftest import make_entry, revisiting_ledger


@pytest.fixture()
def store():
    database = VulnerabilityDatabase()
    database.register_os_catalog()
    return SnapshotStore(database)


def _fill(store, *entries):
    for entry in entries:
        store.database.upsert_entry(entry)


class TestCommit:
    def test_first_commit_records_everything_as_added(self, store):
        _fill(store, make_entry("CVE-2005-0001"), make_entry("CVE-2005-0002"))
        record = store.commit(source="seed")
        assert record.snapshot_id == 1
        assert record.parent_digest is None
        assert (record.entry_count, record.added, record.modified, record.removed) \
            == (2, 2, 0, 0)
        assert record.source == "seed"

    def test_commit_created_timestamp_is_injectable(self, store):
        # The ledger timestamp is the store's only wall-clock seam; pinning
        # it makes two commits of the same state byte-identical ledgers.
        _fill(store, make_entry("CVE-2005-0001"))
        record = store.commit(source="seed", created="2010-09-30T12:00:00+00:00")
        assert record.created == "2010-09-30T12:00:00+00:00"

    def test_delta_pipeline_threads_created_through(self):
        from repro.nvd.feed_parser import RawFeedEntry
        import datetime as dt

        pipeline = DeltaIngestPipeline(IngestPipeline())
        raw = RawFeedEntry(
            cve_id="CVE-2006-0001",
            published=dt.date(2006, 1, 2),
            summary="A flaw in the kernel allows remote attackers in.",
            cvss_vector="AV:N/AC:L/Au:N/C:P/I:P/A:P",
            cpe_uris=("cpe:/o:debian:debian_linux:3.1",),
        )
        report = pipeline.apply_raw([raw], created="2010-09-30T12:00:00+00:00")
        assert report.snapshot is not None
        assert report.snapshot.created == "2010-09-30T12:00:00+00:00"

    def test_commit_digest_is_the_dataset_content_address(self, store):
        entries = [make_entry("CVE-2005-0001"), make_entry("CVE-2005-0002")]
        _fill(store, *entries)
        assert store.commit().digest == dataset_digest_of(entries)

    def test_unchanged_commit_returns_head(self, store):
        _fill(store, make_entry())
        first = store.commit()
        again = store.commit(source="different label")
        assert again == first
        assert len(store.list()) == 1

    def test_chained_commits_record_parent_and_deltas(self, store):
        _fill(store, make_entry("CVE-2005-0001"), make_entry("CVE-2005-0002"))
        first = store.commit()
        _fill(store, make_entry("CVE-2005-0002", summary="A revised flaw."),
              make_entry("CVE-2005-0003"))
        store.database.tombstone_entry("CVE-2005-0001")
        second = store.commit()
        assert second.parent_digest == first.digest
        assert (second.added, second.modified, second.removed) == (1, 1, 1)
        assert second.entry_count == 2

    def test_head_and_get_and_by_digest(self, store):
        _fill(store, make_entry())
        record = store.commit()
        assert store.head() == record
        assert store.get(record.snapshot_id) == record
        assert store.by_digest(record.digest[:8]) == record
        with pytest.raises(DatabaseError):
            store.get(99)
        with pytest.raises(DatabaseError):
            store.by_digest("feedface")

    def test_empty_store_has_no_head(self, store):
        assert store.head() is None
        assert store.list() == []

    def test_parent_is_the_row_committed_before(self):
        database, (first, second, third) = revisiting_ledger()
        store = SnapshotStore(database)
        assert store.parent(first) is None
        # #1 and #3 share a digest: the newest match (#3) is not #2's parent.
        assert store.by_digest(second.parent_digest) == third
        assert store.parent(second) == first
        assert store.parent(third) == second
        database.close()

    def test_a_parent_missing_from_the_ledger_raises(self, store):
        _fill(store, make_entry())
        record = store.commit()
        orphan = dataclasses.replace(record, snapshot_id=2, parent_digest="f" * 64)
        with pytest.raises(DatabaseError, match="not in the ledger"):
            store.parent(orphan)


class TestCommitTransaction:
    """A commit reads and writes inside one write transaction."""

    @pytest.fixture()
    def ledger(self, tmp_path):
        path = tmp_path / "ledger.db"
        database = VulnerabilityDatabase(path)
        database.register_os_catalog()
        yield path, SnapshotStore(database)
        database.close()

    def test_the_live_state_is_read_under_the_write_lock(self, ledger, monkeypatch):
        # Another connection (thread or worker process) cannot start a
        # write between this commit's reads and its inserts.
        path, store = ledger
        _fill(store, make_entry("CVE-2005-0001"))
        other = sqlite3.connect(str(path), timeout=0.05)
        live_state = store.database.live_state

        def contended():
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                other.execute("BEGIN IMMEDIATE")
            return live_state()

        monkeypatch.setattr(store.database, "live_state", contended)
        assert store.commit().snapshot_id == 1
        other.execute("BEGIN IMMEDIATE")  # released once the commit is done
        other.rollback()
        other.close()

    def test_a_no_op_commit_ends_its_transaction(self, ledger):
        _path, store = ledger
        _fill(store, make_entry("CVE-2005-0001"))
        head = store.commit()
        assert store.commit() == head
        assert not store.database.connection.in_transaction

    def test_a_failed_commit_rolls_back_and_releases_the_lock(
        self, ledger, monkeypatch
    ):
        path, store = ledger
        _fill(store, make_entry("CVE-2005-0001"))

        def fail(**_kwargs):
            raise RuntimeError("payload load failed")

        monkeypatch.setattr(store.database, "load_entries", fail)
        with pytest.raises(RuntimeError):
            store.commit()
        assert not store.database.connection.in_transaction
        assert store.head() is None  # the ledger row was rolled back
        monkeypatch.undo()
        with VulnerabilityDatabase(path) as other:
            assert SnapshotStore(other).commit().snapshot_id == 1


class TestTimeTravel:
    def test_dataset_at_reproduces_each_state(self, store):
        a, b = make_entry("CVE-2005-0001"), make_entry("CVE-2005-0002")
        _fill(store, a, b)
        first = store.commit()
        revised = make_entry("CVE-2005-0002", summary="A revised flaw.")
        _fill(store, revised)
        store.database.tombstone_entry("CVE-2005-0001")
        second = store.commit()

        at_first = store.dataset_at(first.snapshot_id)
        assert sorted(e.cve_id for e in at_first) == ["CVE-2005-0001", "CVE-2005-0002"]
        assert at_first.digest() == first.digest
        assert at_first.snapshot == first

        at_second = store.dataset_at(second.snapshot_id)
        assert [e.cve_id for e in at_second] == ["CVE-2005-0002"]
        assert at_second.entries[0].summary == "A revised flaw."
        assert at_second.digest() == second.digest

    def test_dataset_at_matches_from_scratch_ingest(self, store):
        entries = [
            make_entry("CVE-2005-0001", oses=("Debian", "RedHat")),
            make_entry("CVE-2006-0002", year=2006, oses=("Solaris",)),
            make_entry("CVE-2004-0003", year=2004, oses=("OpenBSD",)),
        ]
        _fill(store, *entries)
        record = store.commit()

        fresh = VulnerabilityDatabase()
        fresh.register_os_catalog()
        for entry in entries:
            fresh.insert_entry(entry)
        assert list(store.dataset_at(record.snapshot_id)) == fresh.load_entries()

    def test_dataset_at_unknown_snapshot_raises(self, store):
        with pytest.raises(DatabaseError):
            store.dataset_at(1)


class TestDiff:
    def test_diff_classifies_changes(self, store):
        _fill(store, make_entry("CVE-2005-0001", oses=("Debian",)),
              make_entry("CVE-2005-0002", oses=("Solaris",)))
        first = store.commit()
        _fill(store, make_entry("CVE-2005-0002", oses=("Solaris", "RedHat"),
                                summary="A revised flaw."),
              make_entry("CVE-2005-0003", oses=("OpenBSD", "NetBSD")))
        store.database.tombstone_entry("CVE-2005-0001")
        second = store.commit()

        diff = store.diff(first.snapshot_id, second.snapshot_id)
        assert diff.added == ("CVE-2005-0003",)
        assert diff.modified == ("CVE-2005-0002",)
        assert diff.removed == ("CVE-2005-0001",)
        assert diff.affected_os_names() == frozenset(
            {"Debian", "Solaris", "RedHat", "OpenBSD", "NetBSD"}
        )
        assert ("NetBSD", "OpenBSD") in diff.affected_pairs()
        # Pairs must come from within one changed entry, not across entries.
        assert ("Debian", "Solaris") not in diff.affected_pairs()
        assert diff.touches_group(("Debian", "Ubuntu")) is True
        assert diff.touches_group(("Ubuntu", "FreeBSD")) is False

    def test_rows_that_cancel_out_inside_the_span_are_no_change(self):
        database, (first, second, third) = revisiting_ledger()
        store = SnapshotStore(database)
        # #2 and #3 both hold a version row of the CVE, yet #1 and #3 are
        # one state.
        assert store.diff(first.snapshot_id, third.snapshot_id).is_empty
        assert store.diff(third.snapshot_id, first.snapshot_id).is_empty
        assert store.diff(second.snapshot_id, third.snapshot_id).modified == (
            "CVE-2005-0001",
        )
        database.close()

    def test_empty_diff(self, store):
        _fill(store, make_entry())
        record = store.commit()
        diff = store.diff(record.snapshot_id, record.snapshot_id)
        assert diff.is_empty
        assert diff.affected_os_names() == frozenset()
        assert not diff.touches_group(("Debian",))

    def test_diff_summary_mentions_affected_oses(self, store):
        _fill(store, make_entry("CVE-2005-0001", oses=("Debian",)))
        first = store.commit()
        _fill(store, make_entry("CVE-2005-0001", oses=("Debian",),
                                summary="A revised flaw."))
        second = store.commit()
        summary = store.diff(first.snapshot_id, second.snapshot_id).summary()
        assert "Debian" in summary
        assert "~1 modified" in summary


class TestCheckout:
    def test_checkout_reingest_reproduces_digest(self, corpus, tmp_path):
        pipeline = IngestPipeline()
        pipeline.ingest_raw(corpus.to_raw_feed_entries()[:200])
        store = SnapshotStore(pipeline.database)
        record = store.commit(source="seed")

        feed_dir = tmp_path / "checkout"
        paths = write_snapshot_feeds(store, record.snapshot_id, feed_dir)
        assert paths

        fresh = IngestPipeline()
        fresh.ingest_xml_feeds(paths)
        assert dataset_digest_of(fresh.database.load_entries()) == record.digest

    def test_entry_to_raw_synthesises_catalogue_cpes(self):
        entry = make_entry(oses=("Debian",), versions={"Debian": ("4.0",)})
        raw = entry_to_raw(entry)
        assert raw.cpe_uris and "debian" in raw.cpe_uris[0]
        assert raw.cve_id == entry.cve_id


class TestDeltaRoundTrip:
    def test_delta_chain_equals_from_scratch(self, corpus, tmp_path):
        raw_entries = corpus.to_raw_feed_entries()[:300]
        pipeline = IngestPipeline()
        pipeline.ingest_raw(raw_entries)
        store = SnapshotStore(pipeline.database)
        store.commit(source="full")

        delta = evolve_corpus(corpus, fraction=0.02, seed=5, rejections=3)
        applied = DeltaIngestPipeline(pipeline, store).apply_raw(
            [raw for raw in delta.entries
             if raw.cve_id in {r.cve_id for r in raw_entries}],
            source="delta",
        )
        head = store.head()
        assert applied.snapshot == head

        # From scratch: ingest the final state directly.
        fresh = IngestPipeline()
        rejected = set(delta.rejected_ids)
        modified = {raw.cve_id: raw for raw in delta.modified}
        final = [
            modified.get(raw.cve_id, raw)
            for raw in raw_entries
            if raw.cve_id not in rejected
        ]
        fresh.ingest_raw(final)
        fresh_store = SnapshotStore(fresh.database)
        scratch = fresh_store.commit(source="scratch")
        assert scratch.digest == head.digest
        assert list(fresh_store.dataset_at(scratch.snapshot_id)) == list(
            store.dataset_at(head.snapshot_id)
        )


class TestDigestSelectorSafety:
    def test_wildcards_do_not_match(self, store):
        _fill(store, make_entry())
        store.commit()
        for selector in ("%", "____", "", "%a%"):
            with pytest.raises(DatabaseError):
                store.by_digest(selector)

    def test_exact_prefix_still_matches(self, store):
        _fill(store, make_entry())
        record = store.commit()
        assert store.by_digest(record.digest[:4]) == record
