"""Typed facade over the SQLite vulnerability database."""

from __future__ import annotations

import datetime as _dt
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.constants import OS_CATALOG
from repro.core.enums import AccessVector, ComponentClass, ValidityStatus
from repro.core.exceptions import DatabaseError
from repro.core.models import CVSSVector, OperatingSystem, VulnerabilityEntry
from repro.db.schema import migrate_connection
from repro.snapshots.digests import entry_digest

#: Batch size for ``cve_id IN (...)`` queries; safely below the 999-variable
#: limit of older SQLite builds (SQLITE_MAX_VARIABLE_NUMBER).
_CVE_ID_CHUNK = 500


class VulnerabilityDatabase:
    """SQLite-backed store with the schema of the paper's Figure 1.

    The database can be in-memory (the default, convenient for analysis runs
    and tests) or on disk.  It offers typed insert/load operations plus access
    to the raw connection for the SQL analysis queries in
    :mod:`repro.db.queries`.
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self._path = str(path)
        self._conn = sqlite3.connect(self._path)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._create_schema()
        self._os_ids: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def _create_schema(self) -> None:
        migrate_connection(self._conn)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "VulnerabilityDatabase":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying SQLite connection (for ad-hoc queries)."""
        return self._conn

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """The one way to write: a transaction that nested calls join.

        The outermost call takes SQLite's write lock up front (``BEGIN
        IMMEDIATE``), so writers from other connections queue on it, and
        commits when its block ends or rolls back when the block raises.
        A call inside an open transaction adds its writes to that one, so
        a caller can make several writes atomic: a delta's upserts,
        tombstones and snapshot commit, or a full ingest's inserts.
        """
        if self._conn.in_transaction:
            yield self._conn
            return
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            yield self._conn

    # -- operating systems -----------------------------------------------------

    def register_os_catalog(
        self, catalog: Optional[Mapping[str, OperatingSystem]] = None
    ) -> None:
        """Insert the OS catalogue (names, families, releases)."""
        catalog = catalog or OS_CATALOG
        with self.transaction():
            for os_obj in catalog.values():
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO os (name, family, vendor, first_release_year)"
                    " VALUES (?, ?, ?, ?)",
                    (os_obj.name, os_obj.family.value, os_obj.vendor, os_obj.first_release_year),
                )
                if cursor.rowcount:
                    os_id = cursor.lastrowid
                else:
                    # Already registered (idempotent re-registration).
                    os_id = self._os_id(os_obj.name)
                for release in os_obj.releases:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO os_release (os_id, version, year)"
                        " VALUES (?, ?, ?)",
                        (os_id, release.version, release.year),
                    )
        self._os_ids = {
            row["name"]: row["os_id"]
            for row in self._conn.execute("SELECT os_id, name FROM os")
        }

    def _os_id(self, name: str) -> int:
        if name in self._os_ids:
            return self._os_ids[name]
        row = self._conn.execute("SELECT os_id FROM os WHERE name = ?", (name,)).fetchone()
        if row is None:
            raise DatabaseError(
                f"operating system {name!r} is not registered; call register_os_catalog first"
            )
        self._os_ids[name] = row["os_id"]
        return row["os_id"]

    def os_names(self) -> List[str]:
        return [row["name"] for row in self._conn.execute("SELECT name FROM os ORDER BY os_id")]

    # -- vulnerabilities -------------------------------------------------------

    def insert_entry(self, entry: VulnerabilityEntry) -> int:
        """Insert one entry (and its relationships); returns the row id."""
        try:
            with self.transaction():
                cursor = self._conn.execute(
                    "INSERT INTO vulnerability"
                    " (cve_id, published, summary, validity, entry_digest, tombstoned)"
                    " VALUES (?, ?, ?, ?, ?, 0)",
                    (
                        entry.cve_id,
                        entry.published.isoformat(),
                        entry.summary,
                        entry.validity.value,
                        entry_digest(entry),
                    ),
                )
                vuln_id = cursor.lastrowid
                self._insert_relationships(vuln_id, entry)
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(f"cannot insert {entry.cve_id}: {exc}") from exc
        return vuln_id

    def _insert_relationships(self, vuln_id: int, entry: VulnerabilityEntry) -> None:
        """Insert the type, CVSS and OS rows of an entry (inside a txn)."""
        self._conn.execute(
            "INSERT INTO vulnerability_type (vuln_id, component_class) VALUES (?, ?)",
            (
                vuln_id,
                entry.component_class.value if entry.component_class else None,
            ),
        )
        cvss = entry.cvss
        self._conn.execute(
            "INSERT INTO cvss (vuln_id, access_vector, access_complexity,"
            " authentication, confidentiality_impact, integrity_impact,"
            " availability_impact, base_score) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                vuln_id,
                cvss.access_vector.value,
                cvss.access_complexity,
                cvss.authentication,
                cvss.confidentiality_impact,
                cvss.integrity_impact,
                cvss.availability_impact,
                cvss.base_score,
            ),
        )
        for name in sorted(entry.affected_os):
            versions = ",".join(entry.affected_versions.get(name, ()))
            self._conn.execute(
                "INSERT OR IGNORE INTO os_vuln (os_id, vuln_id, versions)"
                " VALUES (?, ?, ?)",
                (self._os_id(name), vuln_id, versions),
            )

    # -- incremental (delta) operations ---------------------------------------

    def upsert_entry(self, entry: VulnerabilityEntry) -> str:
        """Insert or update one entry by CVE id; returns what happened.

        The outcome is one of ``"added"`` (no row existed), ``"modified"``
        (the stored normalized content differed, including resurrecting a
        tombstoned entry) or ``"unchanged"`` (same content digest -- the
        update is skipped entirely, which is what makes delta re-application
        idempotent and cheap).
        """
        digest = entry_digest(entry)
        with self.transaction():
            row = self._conn.execute(
                "SELECT vuln_id, entry_digest, tombstoned FROM vulnerability"
                " WHERE cve_id = ?",
                (entry.cve_id,),
            ).fetchone()
            if row is None:
                self.insert_entry(entry)
                return "added"
            if row["entry_digest"] == digest and not row["tombstoned"]:
                return "unchanged"
            vuln_id = row["vuln_id"]
            try:
                self._conn.execute(
                    "UPDATE vulnerability SET published = ?, summary = ?,"
                    " validity = ?, entry_digest = ?, tombstoned = 0"
                    " WHERE vuln_id = ?",
                    (
                        entry.published.isoformat(),
                        entry.summary,
                        entry.validity.value,
                        digest,
                        vuln_id,
                    ),
                )
                for table in ("vulnerability_type", "cvss", "os_vuln",
                              "security_protection"):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE vuln_id = ?", (vuln_id,)
                    )
                self._insert_relationships(vuln_id, entry)
            except sqlite3.IntegrityError as exc:
                raise DatabaseError(f"cannot update {entry.cve_id}: {exc}") from exc
        return "modified"

    def tombstone_entry(self, cve_id: str) -> bool:
        """Soft-delete an entry; returns whether a live row was tombstoned.

        The row (and its relationships) stays in place so snapshot history
        can still reference it; every load/count/digest path excludes
        tombstoned rows.  Tombstoning an already-tombstoned or unknown entry
        is a no-op returning ``False``.
        """
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE vulnerability SET tombstoned = 1"
                " WHERE cve_id = ? AND tombstoned = 0",
                (cve_id,),
            )
        return cursor.rowcount > 0

    def live_state(self) -> Dict[str, str]:
        """Mapping of live (non-tombstoned) CVE ids to entry digests.

        Digests missing from the stored rows (databases migrated from schema
        version 1) are backfilled on the fly, so the result is always
        complete.  The backfill joins the caller's open transaction
        (:meth:`SnapshotStore.commit
        <repro.snapshots.store.SnapshotStore.commit>` holds the write lock
        across this read) or runs in one of its own.
        """
        state: Dict[str, str] = {}
        missing: List[str] = []
        for row in self._conn.execute(
            "SELECT cve_id, entry_digest FROM vulnerability WHERE tombstoned = 0"
        ):
            if row["entry_digest"]:
                state[row["cve_id"]] = row["entry_digest"]
            else:
                missing.append(row["cve_id"])
        if missing:
            backfilled = {
                entry.cve_id: entry_digest(entry)
                for entry in self.load_entries(cve_ids=missing)
            }
            with self.transaction():
                for cve_id, digest in backfilled.items():
                    self._conn.execute(
                        "UPDATE vulnerability SET entry_digest = ? WHERE cve_id = ?",
                        (digest, cve_id),
                    )
            state.update(backfilled)
        return state

    def insert_entries(self, entries: Iterable[VulnerabilityEntry]) -> int:
        """Insert a batch of entries in one transaction; returns the count."""
        count = 0
        with self.transaction():
            for entry in entries:
                self.insert_entry(entry)
                count += 1
        return count

    def entry_count(self, only_valid: bool = False) -> int:
        query = "SELECT COUNT(*) AS n FROM vulnerability WHERE tombstoned = 0"
        if only_valid:
            query += " AND validity = 'Valid'"
        return int(self._conn.execute(query).fetchone()["n"])

    def load_entries(
        self,
        only_valid: bool = False,
        cve_ids: Optional[Sequence[str]] = None,
    ) -> List[VulnerabilityEntry]:
        """Materialise database rows back into :class:`VulnerabilityEntry` objects.

        Tombstoned entries are never returned.  ``cve_ids`` restricts the
        load to the given identifiers (used by the snapshot store to fetch
        only the entries a commit actually changed).
        """
        conditions = ["v.tombstoned = 0"]
        parameters: List[object] = []
        if only_valid:
            conditions.append("v.validity = 'Valid'")
        if cve_ids is not None:
            if not cve_ids:
                return []
            if len(cve_ids) > _CVE_ID_CHUNK:
                # Stay under SQLITE_MAX_VARIABLE_NUMBER (999 on older
                # builds): query in chunks, then restore the global order.
                entries: List[VulnerabilityEntry] = []
                for start in range(0, len(cve_ids), _CVE_ID_CHUNK):
                    entries.extend(
                        self.load_entries(
                            only_valid=only_valid,
                            cve_ids=cve_ids[start : start + _CVE_ID_CHUNK],
                        )
                    )
                entries.sort(key=lambda entry: (entry.published, entry.cve_id))
                return entries
            placeholders = ",".join("?" for _ in cve_ids)
            conditions.append(f"v.cve_id IN ({placeholders})")
            parameters.extend(cve_ids)
        where = "WHERE " + " AND ".join(conditions)
        rows = self._conn.execute(
            f"""
            SELECT v.vuln_id, v.cve_id, v.published, v.summary, v.validity,
                   t.component_class,
                   c.access_vector, c.access_complexity, c.authentication,
                   c.confidentiality_impact, c.integrity_impact,
                   c.availability_impact, c.base_score
            FROM vulnerability v
            JOIN vulnerability_type t ON t.vuln_id = v.vuln_id
            JOIN cvss c ON c.vuln_id = v.vuln_id
            {where}
            ORDER BY v.published, v.cve_id
            """,
            parameters,
        ).fetchall()
        if cve_ids is None:
            os_rows = self._conn.execute(
                """
                SELECT ov.vuln_id, o.name, ov.versions
                FROM os_vuln ov JOIN os o ON o.os_id = ov.os_id
                """
            ).fetchall()
        else:
            # Restricted loads only need the matched rows' relationships --
            # not a full os_vuln scan per call (or per chunk).
            vuln_ids = [row["vuln_id"] for row in rows]
            os_rows = (
                self._conn.execute(
                    f"""
                    SELECT ov.vuln_id, o.name, ov.versions
                    FROM os_vuln ov JOIN os o ON o.os_id = ov.os_id
                    WHERE ov.vuln_id IN ({",".join("?" for _ in vuln_ids)})
                    """,
                    vuln_ids,
                ).fetchall()
                if vuln_ids
                else []
            )
        affected: Dict[int, Dict[str, Tuple[str, ...]]] = {}
        for row in os_rows:
            versions = tuple(v for v in row["versions"].split(",") if v)
            affected.setdefault(row["vuln_id"], {})[row["name"]] = versions
        entries: List[VulnerabilityEntry] = []
        for row in rows:
            os_versions = affected.get(row["vuln_id"], {})
            entries.append(
                VulnerabilityEntry(
                    cve_id=row["cve_id"],
                    published=_dt.date.fromisoformat(row["published"]),
                    summary=row["summary"],
                    cvss=CVSSVector(
                        access_vector=AccessVector(row["access_vector"]),
                        access_complexity=row["access_complexity"],
                        authentication=row["authentication"],
                        confidentiality_impact=row["confidentiality_impact"],
                        integrity_impact=row["integrity_impact"],
                        availability_impact=row["availability_impact"],
                        base_score=row["base_score"],
                    ),
                    affected_os=frozenset(os_versions),
                    affected_versions=os_versions,
                    component_class=(
                        ComponentClass(row["component_class"])
                        if row["component_class"]
                        else None
                    ),
                    validity=ValidityStatus(row["validity"]),
                )
            )
        return entries

    # -- updates (hand enrichment) ----------------------------------------------

    def set_component_class(self, cve_id: str, component_class: ComponentClass) -> None:
        """Record a (possibly revised) manual classification for an entry."""
        row = self._conn.execute(
            "SELECT vuln_id FROM vulnerability WHERE cve_id = ?", (cve_id,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"unknown CVE identifier {cve_id!r}")
        with self.transaction():
            self._conn.execute(
                "UPDATE vulnerability_type SET component_class = ? WHERE vuln_id = ?",
                (component_class.value, row["vuln_id"]),
            )

    def set_validity(self, cve_id: str, validity: ValidityStatus) -> None:
        """Record a manual validity decision for an entry."""
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE vulnerability SET validity = ? WHERE cve_id = ?",
                (validity.value, cve_id),
            )
        if cursor.rowcount == 0:
            raise DatabaseError(f"unknown CVE identifier {cve_id!r}")
