"""Tests for the SQLite vulnerability database."""

import sqlite3

import pytest

from repro.core.constants import OS_CATALOG
from repro.core.enums import AccessVector, ComponentClass, ValidityStatus
from repro.core.exceptions import DatabaseError
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.db.schema import SCHEMA_STATEMENTS
from tests.conftest import make_entry


@pytest.fixture()
def db():
    database = VulnerabilityDatabase()
    database.register_os_catalog()
    yield database
    database.close()


class TestSchema:
    def test_schema_has_figure1_tables(self):
        ddl = " ".join(SCHEMA_STATEMENTS)
        for table in ("os", "os_release", "vulnerability", "vulnerability_type",
                      "cvss", "security_protection", "os_vuln"):
            assert f"CREATE TABLE IF NOT EXISTS {table}" in ddl

    def test_catalog_registration_is_idempotent(self, db):
        db.register_os_catalog()
        assert len(db.os_names()) == 11

    def test_a_fresh_database_gets_every_catalogue_row(self):
        with VulnerabilityDatabase() as database:
            IngestPipeline(database=database)
            releases = set(database.connection.execute(
                "SELECT name, version, year FROM os JOIN os_release USING (os_id)"
            ).fetchall())
            assert database.os_names() == list(OS_CATALOG)
        assert {tuple(row) for row in releases} == {
            (os_obj.name, release.version, release.year)
            for os_obj in OS_CATALOG.values()
            for release in os_obj.releases
        }

    def test_a_stored_catalogue_is_read_not_rewritten(self, db):
        statements = []
        db.connection.set_trace_callback(statements.append)
        db.register_os_catalog()
        assert not [sql for sql in statements if not sql.startswith("SELECT")]
        # A missing release row is written back by the next registration.
        with db.transaction() as connection:
            connection.execute("DELETE FROM os_release WHERE version = "
                               "(SELECT MIN(version) FROM os_release)")
        statements.clear()
        db.register_os_catalog()
        db.connection.set_trace_callback(None)
        assert statements.count("COMMIT") == 1
        (count,) = db.connection.execute("SELECT COUNT(*) FROM os_release").fetchone()
        assert count == sum(len(os_obj.releases) for os_obj in OS_CATALOG.values())

    def test_os_names_registered(self, db):
        assert set(db.os_names()) == {
            "OpenBSD", "NetBSD", "FreeBSD", "OpenSolaris", "Solaris",
            "Debian", "Ubuntu", "RedHat", "Windows2000", "Windows2003", "Windows2008",
        }


class TestInsertAndLoad:
    def test_insert_and_count(self, db):
        db.insert_entry(make_entry())
        assert db.entry_count() == 1
        assert db.entry_count(only_valid=True) == 1

    def test_insert_preserves_fields_on_load(self, db):
        original = make_entry(
            cve_id="CVE-2007-1234",
            oses=("Debian", "RedHat"),
            component_class=ComponentClass.SYSTEM_SOFTWARE,
            access=AccessVector.LOCAL,
            versions={"Debian": ("4.0",), "RedHat": ()},
        )
        db.insert_entry(original)
        loaded = db.load_entries()[0]
        assert loaded.cve_id == original.cve_id
        assert loaded.published == original.published
        assert loaded.affected_os == original.affected_os
        assert loaded.component_class is ComponentClass.SYSTEM_SOFTWARE
        assert loaded.cvss.access_vector is AccessVector.LOCAL
        assert loaded.affected_versions["Debian"] == ("4.0",)
        # An OS with no recorded versions means "all versions"; the
        # canonical representation drops the key, and .get reads it back.
        assert loaded.affected_versions.get("RedHat", ()) == ()
        assert loaded == original

    def test_duplicate_cve_rejected(self, db):
        db.insert_entry(make_entry())
        with pytest.raises(DatabaseError):
            db.insert_entry(make_entry())

    def test_insert_unknown_os_rejected(self):
        database = VulnerabilityDatabase()  # catalogue not registered
        with pytest.raises(DatabaseError):
            database.insert_entry(make_entry())
        database.close()

    def test_load_only_valid(self, db):
        db.insert_entries(
            [
                make_entry(cve_id="CVE-2001-0001"),
                make_entry(cve_id="CVE-2001-0002", validity=ValidityStatus.DISPUTED),
            ]
        )
        assert db.entry_count() == 2
        assert [e.cve_id for e in db.load_entries(only_valid=True)] == ["CVE-2001-0001"]

    def test_context_manager(self):
        with VulnerabilityDatabase() as database:
            database.register_os_catalog()
            database.insert_entry(make_entry())
            assert database.entry_count() == 1

    def test_on_disk_database(self, tmp_path):
        path = tmp_path / "nvd.sqlite"
        with VulnerabilityDatabase(path) as database:
            database.register_os_catalog()
            database.insert_entry(make_entry())
        with VulnerabilityDatabase(path) as reopened:
            assert reopened.entry_count() == 1


class TestManualEnrichment:
    def test_set_component_class(self, db):
        db.insert_entry(make_entry(component_class=ComponentClass.APPLICATION))
        db.set_component_class("CVE-2005-0001", ComponentClass.KERNEL)
        assert db.load_entries()[0].component_class is ComponentClass.KERNEL

    def test_set_component_class_unknown_cve(self, db):
        with pytest.raises(DatabaseError):
            db.set_component_class("CVE-1900-0001", ComponentClass.KERNEL)

    def test_set_validity(self, db):
        db.insert_entry(make_entry())
        db.set_validity("CVE-2005-0001", ValidityStatus.UNSPECIFIED)
        assert db.entry_count(only_valid=True) == 0

    def test_set_validity_unknown_cve(self, db):
        with pytest.raises(DatabaseError):
            db.set_validity("CVE-1900-0001", ValidityStatus.VALID)


class TestTransaction:
    """``transaction()`` is the one write path; nested calls join it."""

    def test_a_nested_write_rolls_back_with_its_outer_transaction(self, db):
        db.insert_entry(make_entry("CVE-2005-0001"))
        with pytest.raises(DatabaseError, match="CVE-2005-0002"):
            with db.transaction():
                db.insert_entry(make_entry("CVE-2005-0002"))
                db.tombstone_entry("CVE-2005-0001")
                db.insert_entry(make_entry("CVE-2005-0002"))
        assert not db.connection.in_transaction
        assert set(db.live_state()) == {"CVE-2005-0001"}

    def test_the_outermost_call_takes_the_write_lock_first(self, tmp_path):
        path = tmp_path / "ledger.db"
        other = sqlite3.connect(path, timeout=0.05)
        try:
            with VulnerabilityDatabase(path) as database:
                with database.transaction():
                    # Nothing written yet, and the lock is already held.
                    with pytest.raises(sqlite3.OperationalError, match="locked"):
                        other.execute("BEGIN IMMEDIATE")
                other.execute("BEGIN IMMEDIATE")
                other.rollback()
        finally:
            other.close()

    def test_a_full_ingest_is_one_transaction(self):
        pipeline = IngestPipeline()
        duplicate = [make_entry("CVE-2005-0001"), make_entry("CVE-2005-0002"),
                     make_entry("CVE-2005-0001")]
        with pytest.raises(DatabaseError, match="CVE-2005-0001"):
            pipeline.ingest_entries(duplicate)
        assert pipeline.database.entry_count() == 0
