"""Delta ingestion: upserts, tombstones, idempotence, schema migration."""

import dataclasses
import sqlite3

import pytest

from repro.core.enums import ValidityStatus
from repro.core.exceptions import DatabaseError
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.db.schema import SCHEMA_VERSION, migrate_connection
from repro.nvd.feed_parser import RawFeedEntry, parse_xml_feed
from repro.nvd.feed_writer import rejection_entry, write_modified_feed
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.digests import entry_digest
from repro.snapshots.store import SnapshotStore
from tests.conftest import make_entry


@pytest.fixture()
def pipeline():
    return IngestPipeline()


@pytest.fixture()
def delta(pipeline):
    return DeltaIngestPipeline(pipeline)


def raw(cve_id="CVE-2005-0001", summary="A kernel flaw in Debian allows "
        "remote attackers to crash the system.", year=2005,
        cpes=("cpe:/o:debian:debian_linux:4.0",)):
    import datetime as dt

    return RawFeedEntry(
        cve_id=cve_id,
        published=dt.date(year, 6, 15),
        summary=summary,
        cvss_vector="AV:N/AC:L/Au:N/C:P/I:P/A:P",
        cpe_uris=tuple(cpes),
    )


class TestUpsert:
    def test_new_entry_is_added(self, delta):
        report = delta.apply_raw([raw()])
        assert (report.added, report.modified, report.unchanged) == (1, 0, 0)
        assert delta.database.entry_count() == 1

    def test_identical_reapplication_is_unchanged(self, delta):
        delta.apply_raw([raw()])
        report = delta.apply_raw([raw()])
        assert (report.added, report.modified, report.unchanged) == (0, 0, 1)
        assert report.changed == 0

    def test_content_change_is_modified(self, delta):
        delta.apply_raw([raw()])
        revised = raw(summary="A kernel flaw in Debian allows remote "
                      "attackers to crash the system. Revised advisory.")
        report = delta.apply_raw([revised])
        assert report.modified == 1
        entries = delta.database.load_entries()
        assert len(entries) == 1
        assert "Revised advisory" in entries[0].summary

    def test_upsert_replaces_relationships(self, delta):
        delta.apply_raw([raw()])
        moved = raw(cpes=("cpe:/o:redhat:enterprise_linux:5",))
        delta.apply_raw([moved])
        (entry,) = delta.database.load_entries()
        assert entry.affected_os == frozenset({"RedHat"})

    def test_upsert_entry_outcomes_directly(self):
        database = VulnerabilityDatabase()
        database.register_os_catalog()
        entry = make_entry()
        assert database.upsert_entry(entry) == "added"
        assert database.upsert_entry(entry) == "unchanged"
        revised = make_entry(summary="A revised kernel flaw.")
        assert database.upsert_entry(revised) == "modified"
        stored = database.load_entries()[0]
        assert entry_digest(stored) == entry_digest(revised)


class TestTombstones:
    def test_rejection_tombstones_the_entry(self, delta):
        delta.apply_raw([raw()])
        report = delta.apply_raw([rejection_entry("CVE-2005-0001", raw().published)])
        assert report.removed == 1
        assert delta.database.entry_count() == 0
        assert delta.database.load_entries() == []

    def test_rejecting_unknown_entry_is_skipped(self, delta):
        report = delta.apply_raw([rejection_entry("CVE-1999-9999", raw().published)])
        assert report.removed == 0
        assert report.skipped_no_os == 1

    def test_out_of_scope_republication_tombstones(self, delta):
        delta.apply_raw([raw()])
        # Republished with only an application CPE: leaves the study scope.
        out = raw(cpes=("cpe:/a:apache:http_server:2.2",))
        report = delta.apply_raw([out])
        assert report.removed == 1
        assert delta.database.entry_count() == 0

    def test_tombstoned_entry_can_be_resurrected(self, delta):
        delta.apply_raw([raw()])
        delta.apply_raw([rejection_entry("CVE-2005-0001", raw().published)])
        report = delta.apply_raw([raw()])
        assert report.modified == 1  # same id, content restored
        assert delta.database.entry_count() == 1

    def test_tombstone_excluded_from_counts_and_digests(self):
        database = VulnerabilityDatabase()
        database.register_os_catalog()
        database.insert_entry(make_entry("CVE-2005-0001"))
        database.insert_entry(make_entry("CVE-2005-0002"))
        database.tombstone_entry("CVE-2005-0001")
        assert database.entry_count() == 1
        assert set(database.live_state()) == {"CVE-2005-0002"}


class TestFeedApplication:
    def test_apply_xml_feed_commits_snapshot(self, delta, tmp_path):
        path = write_modified_feed([raw()], tmp_path / "modified.xml")
        report = delta.apply_feed(path)
        assert report.added == 1
        assert report.snapshot is not None
        assert report.snapshot.source == str(path)

    def test_rejection_survives_the_feed_round_trip(self, tmp_path):
        tombstone = rejection_entry("CVE-2005-0001", raw().published)
        path = write_modified_feed([tombstone], tmp_path / "modified.xml")
        (parsed,) = parse_xml_feed(path)
        assert parsed.is_rejected
        assert parsed.cve_id == "CVE-2005-0001"

    def test_commit_false_leaves_no_snapshot(self, delta):
        report = delta.apply_raw([raw()], commit=False)
        assert report.snapshot is None
        assert SnapshotStore(delta.database).head() is None


class TestOneTransactionPerDelta:
    """A delta's upserts, tombstones and snapshot commit are one transaction."""

    BASE = 40

    @staticmethod
    def _revision(index: int) -> RawFeedEntry:
        return raw(
            cve_id=f"CVE-2005-{index:04d}",
            summary=f"A revised kernel flaw {index} in Debian lets remote "
            "attackers crash the system.",
        )

    def _ledger(self, tmp_path) -> VulnerabilityDatabase:
        """A file ledger with ``BASE`` entries and one snapshot of them."""
        database = VulnerabilityDatabase(tmp_path / "ledger.db")
        DeltaIngestPipeline(IngestPipeline(database=database)).apply_raw(
            [raw(cve_id=f"CVE-2005-{index:04d}") for index in range(self.BASE)],
            created="2011-06-27T00:00:00+00:00",
        )
        return database

    @pytest.mark.parametrize("size", [1, 10, 38])
    def test_a_delta_commits_twice_whatever_its_size(self, tmp_path, size):
        database = self._ledger(tmp_path)
        statements = []
        database.connection.set_trace_callback(statements.append)
        # As the ingest endpoint does it: a fresh pipeline per delta, whose
        # catalogue registration is the first of the two commits.
        delta = DeltaIngestPipeline(IngestPipeline(database=database))
        report = delta.apply_raw(
            [self._revision(index) for index in range(size)]
            + [
                raw(cve_id="CVE-2006-0001"),
                rejection_entry(f"CVE-2005-{self.BASE - 1:04d}", raw().published),
            ]
        )
        database.connection.set_trace_callback(None)
        assert (report.modified, report.added, report.removed) == (size, 1, 1)
        assert report.snapshot.modified == size
        commits = [sql for sql in statements if sql.strip().upper() == "COMMIT"]
        assert len(commits) == 2

    def test_a_delta_that_fails_part_way_changes_nothing(
        self, tmp_path, monkeypatch
    ):
        database = self._ledger(tmp_path)
        store = SnapshotStore(database)
        head, live = store.head(), database.live_state()
        rows = list(database.connection.iterdump())
        upserted = []
        upsert = database.upsert_entry

        def third_upsert_fails(entry):
            upserted.append(entry.cve_id)
            if len(upserted) == 3:
                raise DatabaseError("injected failure")
            return upsert(entry)

        monkeypatch.setattr(database, "upsert_entry", third_upsert_fails)
        delta = DeltaIngestPipeline(IngestPipeline(database=database))
        with pytest.raises(DatabaseError, match="injected failure"):
            delta.apply_raw(
                [
                    self._revision(0),
                    rejection_entry("CVE-2005-0005", raw().published),
                    raw(cve_id="CVE-2006-0001"),
                    self._revision(1),
                ]
            )
        assert len(upserted) == 3
        assert not database.connection.in_transaction
        assert store.head() == head
        assert database.live_state() == live
        assert list(database.connection.iterdump()) == rows
        with VulnerabilityDatabase(tmp_path / "ledger.db") as reader:
            assert SnapshotStore(reader).head() == head


class TestSchemaMigration:
    V1_STATEMENTS = (
        """
        CREATE TABLE vulnerability (
            vuln_id INTEGER PRIMARY KEY,
            cve_id TEXT NOT NULL UNIQUE,
            published DATE NOT NULL,
            summary TEXT NOT NULL,
            validity TEXT NOT NULL DEFAULT 'Valid'
        )
        """,
        """
        CREATE TABLE vulnerability_type (
            vuln_id INTEGER PRIMARY KEY REFERENCES vulnerability(vuln_id),
            component_class TEXT
        )
        """,
    )

    def test_v1_database_is_upgraded_in_place(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        for statement in self.V1_STATEMENTS:
            conn.execute(statement)
        conn.execute(
            "INSERT INTO vulnerability (cve_id, published, summary)"
            " VALUES ('CVE-2001-0001', '2001-05-01', 'An old flaw.')"
        )
        conn.commit()
        conn.close()

        database = VulnerabilityDatabase(path)
        version = database.connection.execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION
        columns = {
            row[1]
            for row in database.connection.execute(
                "PRAGMA table_info(vulnerability)"
            )
        }
        assert {"entry_digest", "tombstoned"} <= columns
        # The pre-existing row survived with NULL digest and live status.
        row = database.connection.execute(
            "SELECT entry_digest, tombstoned FROM vulnerability"
        ).fetchone()
        assert row["entry_digest"] is None
        assert row["tombstoned"] == 0
        database.close()

    def test_migration_is_idempotent(self, tmp_path):
        path = tmp_path / "fresh.db"
        with VulnerabilityDatabase(path):
            pass
        conn = sqlite3.connect(path)
        conn.row_factory = sqlite3.Row
        assert migrate_connection(conn) == SCHEMA_VERSION
        assert migrate_connection(conn) == SCHEMA_VERSION
        conn.close()

    def test_live_state_backfills_missing_digests(self):
        database = VulnerabilityDatabase()
        database.register_os_catalog()
        entry = make_entry()
        database.insert_entry(entry)
        with database.connection:
            database.connection.execute(
                "UPDATE vulnerability SET entry_digest = NULL"
            )
        state = database.live_state()
        assert state == {entry.cve_id: entry_digest(entry)}
        # The backfill is persisted.
        row = database.connection.execute(
            "SELECT entry_digest FROM vulnerability"
        ).fetchone()
        assert row["entry_digest"] == entry_digest(entry)

    def test_a_backfill_joins_the_callers_transaction(self):
        # SnapshotStore.commit reads the live state under the write lock;
        # committing the backfill on its own would release the lock early.
        database = VulnerabilityDatabase()
        database.register_os_catalog()
        entry = make_entry()
        database.insert_entry(entry)
        with database.connection:
            database.connection.execute(
                "UPDATE vulnerability SET entry_digest = NULL"
            )
        database.connection.execute("BEGIN IMMEDIATE")
        assert database.live_state() == {entry.cve_id: entry_digest(entry)}
        assert database.connection.in_transaction
        database.connection.commit()
        row = database.connection.execute(
            "SELECT entry_digest FROM vulnerability"
        ).fetchone()
        assert row["entry_digest"] == entry_digest(entry)


class TestLoadEntriesChunking:
    def test_large_cve_id_filters_are_chunked(self, monkeypatch):
        import repro.db.database as database_module

        monkeypatch.setattr(database_module, "_CVE_ID_CHUNK", 2)
        database = VulnerabilityDatabase()
        database.register_os_catalog()
        entries = [
            make_entry(f"CVE-2005-{index:04d}", month=(index % 12) + 1)
            for index in range(1, 8)
        ]
        for entry in entries:
            database.insert_entry(entry)
        wanted = [entry.cve_id for entry in entries]
        loaded = database.load_entries(cve_ids=wanted)
        # Chunked loads return the same entries in the same global order as
        # an unfiltered load.
        assert loaded == database.load_entries()

    def test_full_corpus_commit_exceeding_chunk_size(self, monkeypatch):
        # The first commit passes every CVE id through load_entries at once;
        # with a tiny chunk size this exercises the chunked path end to end.
        import repro.db.database as database_module

        monkeypatch.setattr(database_module, "_CVE_ID_CHUNK", 3)
        database = VulnerabilityDatabase()
        database.register_os_catalog()
        entries = [
            make_entry(f"CVE-2005-{index:04d}", month=(index % 12) + 1)
            for index in range(1, 11)
        ]
        for entry in entries:
            database.insert_entry(entry)
        record = SnapshotStore(database).commit(source="chunked")
        assert record.added == len(entries)
        store = SnapshotStore(database)
        assert list(store.dataset_at(record.snapshot_id)) == database.load_entries()
