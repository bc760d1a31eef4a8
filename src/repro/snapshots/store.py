"""The snapshot ledger: content-addressed dataset states with time travel.

A :class:`SnapshotStore` wraps a :class:`~repro.db.database
.VulnerabilityDatabase` and materialises *snapshots* of its live entry set:

* :meth:`SnapshotStore.commit` computes the dataset's content digest
  (:func:`~repro.snapshots.digests.dataset_digest` -- sha256 over the sorted
  ``cve_id:entry_digest`` pairs), records a ledger row (digest, parent
  digest, creation time, feed provenance, entry-count deltas) and appends
  one :mod:`entry_version <repro.db.schema>` row per entry that *changed*
  relative to the parent snapshot.  Committing an unchanged database is a
  no-op that returns the existing head -- the property behind idempotent
  delta re-application.
* :meth:`SnapshotStore.dataset_at` reconstructs the entry set of any
  historical snapshot from the version chain and returns it as a
  :class:`~repro.analysis.dataset.VulnerabilityDataset`, ordered exactly
  like a fresh :meth:`~repro.db.database.VulnerabilityDatabase.load_entries`
  (by publication date, then CVE id) so time-travelled datasets are
  indistinguishable from from-scratch ingests.
* :meth:`SnapshotStore.diff` compares two snapshots and reports which CVEs
  -- and therefore which OSes, OS pairs and k-sets -- are affected, which is
  what selective cache invalidation keys off.

Storage is delta-compressed: snapshot ``N`` stores payloads only for the
entries it changed, so a long chain of small deltas stays small, and a
diff reads only the rows of the snapshots it spans.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import DatabaseError
from repro.snapshots.digests import (
    dataset_digest,
    entry_from_json,
    entry_to_json,
)
from repro.snapshots.diff import SnapshotDiff, entry_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (db imports digests)
    from repro.analysis.dataset import VulnerabilityDataset
    from repro.core.models import VulnerabilityEntry
    from repro.db.database import VulnerabilityDatabase


@dataclass(frozen=True)
class SnapshotRecord:
    """One row of the snapshot ledger."""

    snapshot_id: int
    digest: str
    parent_digest: Optional[str]
    created: str
    source: str
    entry_count: int
    added: int
    modified: int
    removed: int

    @property
    def short_digest(self) -> str:
        return self.digest[:12]

    def summary(self) -> str:
        """One-line human-readable ledger line."""
        parent = self.parent_digest[:12] if self.parent_digest else "-"
        return (
            f"#{self.snapshot_id} {self.short_digest} parent={parent} "
            f"entries={self.entry_count} (+{self.added} ~{self.modified} "
            f"-{self.removed}) source={self.source or '-'} at {self.created}"
        )


class SnapshotStore:
    """Snapshot ledger and time-travel queries over one database."""

    def __init__(self, database: "VulnerabilityDatabase") -> None:
        self._db = database
        self._conn = database.connection

    @property
    def database(self) -> "VulnerabilityDatabase":
        return self._db

    # -- ledger ----------------------------------------------------------------

    @staticmethod
    def _record(row) -> SnapshotRecord:
        return SnapshotRecord(
            snapshot_id=row["snapshot_id"],
            digest=row["digest"],
            parent_digest=row["parent_digest"],
            created=row["created"],
            source=row["source"],
            entry_count=row["entry_count"],
            added=row["added"],
            modified=row["modified"],
            removed=row["removed"],
        )

    def head(self) -> Optional[SnapshotRecord]:
        """The most recent snapshot, or ``None`` on a fresh database."""
        row = self._conn.execute(
            "SELECT * FROM snapshot ORDER BY snapshot_id DESC LIMIT 1"
        ).fetchone()
        return self._record(row) if row is not None else None

    def list(self) -> List[SnapshotRecord]:
        """All snapshots, oldest first."""
        return [
            self._record(row)
            for row in self._conn.execute(
                "SELECT * FROM snapshot ORDER BY snapshot_id"
            )
        ]

    def get(self, snapshot_id: int) -> SnapshotRecord:
        """The ledger row for one snapshot id."""
        row = self._conn.execute(
            "SELECT * FROM snapshot WHERE snapshot_id = ?", (snapshot_id,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no snapshot with id {snapshot_id}")
        return self._record(row)

    def resolve(self, spec: str) -> SnapshotRecord:
        """Resolve a ledger-id-or-digest-prefix selector to a record.

        All-digit selectors prefer the ledger-id reading but fall back to
        a digest-prefix match on a miss (an all-digit string like
        ``"2778"`` can also be a hex prefix).  The single resolver behind
        the CLI's ``--snapshot`` and the service's snapshot endpoints;
        raises :class:`~repro.core.exceptions.DatabaseError` when nothing
        matches.
        """
        if spec.isdigit():
            try:
                return self.get(int(spec))
            except DatabaseError:
                pass
        return self.by_digest(spec)

    def by_digest(self, digest: str) -> SnapshotRecord:
        """The most recent snapshot carrying the given (possibly short) digest.

        Prefix matching uses ``substr`` rather than ``LIKE``, so selectors
        containing SQL wildcards (``%``, ``_``) cannot match arbitrary rows.
        """
        if not digest:
            raise DatabaseError("an empty digest matches no snapshot")
        row = self._conn.execute(
            "SELECT * FROM snapshot WHERE substr(digest, 1, ?) = ?"
            " ORDER BY snapshot_id DESC LIMIT 1",
            (len(digest), digest),
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no snapshot with digest {digest!r}")
        return self._record(row)

    def parent(self, record: SnapshotRecord) -> Optional[SnapshotRecord]:
        """The snapshot ``record`` was committed on, or ``None`` for a root.

        The newest snapshot *before* ``record`` carrying its parent digest:
        a ledger that revisits a state (A -> B -> A) holds that digest
        twice, and only the earlier row is the parent of the middle one.
        """
        if record.parent_digest is None:
            return None
        row = self._conn.execute(
            "SELECT * FROM snapshot WHERE digest = ? AND snapshot_id < ?"
            " ORDER BY snapshot_id DESC LIMIT 1",
            (record.parent_digest, record.snapshot_id),
        ).fetchone()
        if row is None:
            raise DatabaseError(
                f"snapshot #{record.snapshot_id}'s parent "
                f"{record.parent_digest[:12]} is not in the ledger"
            )
        return self._record(row)

    # -- commit ----------------------------------------------------------------

    def commit(
        self, source: str = "", created: Optional[str] = None
    ) -> SnapshotRecord:
        """Snapshot the database's current live state.

        Returns the new ledger record -- or the existing head unchanged when
        the live state digests identically to it (idempotence: re-applying
        an already-applied delta and committing produces no new snapshot).
        ``source`` records feed provenance (a path, URL or label).
        ``created`` pins the ledger timestamp (ISO-8601); it defaults to the
        current UTC time and is the store's only wall-clock seam -- it is
        recorded for provenance and never feeds digests.

        The live-state read, the head read and the inserts run in one
        write transaction (:meth:`VulnerabilityDatabase.transaction
        <repro.db.database.VulnerabilityDatabase.transaction>`), which
        takes SQLite's write lock first, so concurrent commits -- from
        threads or from other worker processes -- queue on the lock and
        chain one after another instead of forking off one head.  Inside
        a caller's transaction (a delta's) the commit joins it.
        """
        with self._db.transaction():
            live = self._db.live_state()
            digest = dataset_digest(live)
            head = self.head()
            if head is not None and head.digest == digest:
                return head
            parent_state = (
                self._state_at(head.snapshot_id) if head is not None else {}
            )
            added = sorted(set(live) - set(parent_state))
            removed = sorted(set(parent_state) - set(live))
            modified = sorted(
                cve_id
                for cve_id in set(live) & set(parent_state)
                if live[cve_id] != parent_state[cve_id]
            )
            if created is None:
                created = _dt.datetime.now(_dt.timezone.utc).isoformat(  # repro: noqa[DET002] -- the single sanctioned wall-clock seam; callers inject `created=` for reproducible ledgers
                    timespec="seconds"
                )
            cursor = self._conn.execute(
                "INSERT INTO snapshot (digest, parent_digest, created, source,"
                " entry_count, added, modified, removed)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    digest,
                    head.digest if head is not None else None,
                    created,
                    source,
                    len(live),
                    len(added),
                    len(modified),
                    len(removed),
                ),
            )
            snapshot_id = cursor.lastrowid
            changed = added + modified
            payloads = {
                entry.cve_id: entry_to_json(entry)
                for entry in self._db.load_entries(cve_ids=changed)
            }
            for cve_id in changed:
                self._conn.execute(
                    "INSERT INTO entry_version"
                    " (snapshot_id, cve_id, entry_digest, payload, deleted)"
                    " VALUES (?, ?, ?, ?, 0)",
                    (snapshot_id, cve_id, live[cve_id], payloads[cve_id]),
                )
            for cve_id in removed:
                self._conn.execute(
                    "INSERT INTO entry_version"
                    " (snapshot_id, cve_id, entry_digest, payload, deleted)"
                    " VALUES (?, ?, NULL, NULL, 1)",
                    (snapshot_id, cve_id),
                )
        return self.get(snapshot_id)

    # -- time travel ------------------------------------------------------------

    def _version_rows_at(
        self, snapshot_id: int, changed_in: Optional[Tuple[int, int]] = None
    ):
        """Latest version row per CVE as of ``snapshot_id`` (incl. tombstones).

        ``changed_in=(low, high)`` keeps only the CVEs with a version row
        in snapshots ``low + 1 .. high``.
        """
        changed = (
            " AND cve_id IN (SELECT cve_id FROM entry_version"
            " WHERE snapshot_id > ? AND snapshot_id <= ?)"
            if changed_in is not None
            else ""
        )
        return self._conn.execute(
            f"""
            SELECT ev.cve_id, ev.entry_digest, ev.payload, ev.deleted
            FROM entry_version ev
            JOIN (
                SELECT cve_id, MAX(version_id) AS latest
                FROM entry_version
                WHERE snapshot_id <= ?{changed}
                GROUP BY cve_id
            ) last ON last.latest = ev.version_id
            """,
            (snapshot_id, *(changed_in or ())),
        ).fetchall()

    def _state_at(self, snapshot_id: int) -> Dict[str, str]:
        """Mapping of live CVE ids to entry digests as of a snapshot."""
        return {
            row["cve_id"]: row["entry_digest"]
            for row in self._version_rows_at(snapshot_id)
            if not row["deleted"]
        }

    def entries_at(self, snapshot_id: int) -> List["VulnerabilityEntry"]:
        """The live entries of a snapshot, ordered by :func:`entry_order`.

        The ordering matches :meth:`~repro.db.database.VulnerabilityDatabase
        .load_entries`, so a time-travelled entry list is byte-compatible
        with a from-scratch ingest of the same feed state -- the equality
        property ``tests/snapshots`` pins down.
        """
        self.get(snapshot_id)  # raises on unknown ids
        entries = [
            entry_from_json(row["payload"])
            for row in self._version_rows_at(snapshot_id)
            if not row["deleted"]
        ]
        entries.sort(key=entry_order)
        return entries

    def dataset_at(
        self, snapshot_id: int, engine: str = "bitset"
    ) -> "VulnerabilityDataset":
        """The dataset pinned to a snapshot (see :meth:`entries_at`)."""
        from repro.analysis.dataset import VulnerabilityDataset

        record = self.get(snapshot_id)
        return VulnerabilityDataset(
            self.entries_at(snapshot_id),
            engine=engine,
            snapshot=record,
        )

    # -- diffing ----------------------------------------------------------------

    def diff(self, from_id: int, to_id: int) -> SnapshotDiff:
        """What changed between two snapshots (in either direction).

        The diff carries the changed CVE ids, the old/new entry payloads and
        the derived blast radius (affected OS names, pairs, k-sets) consumed
        by selective cache invalidation, the CLI and the registry's derived
        heads.  Only CVEs with a version row in the snapshots between the
        two ends can differ -- a CVE's state as of a snapshot is its latest
        row -- so only those CVEs' latest rows at each end are read: a
        one-link diff costs its link's rows, not two full snapshots.
        """
        from_record = self.get(from_id)
        to_record = self.get(to_id)
        between = (min(from_id, to_id), max(from_id, to_id))
        before = {
            row["cve_id"]: (row["entry_digest"], row["payload"])
            for row in self._version_rows_at(from_id, between)
            if not row["deleted"]
        }
        after = {
            row["cve_id"]: (row["entry_digest"], row["payload"])
            for row in self._version_rows_at(to_id, between)
            if not row["deleted"]
        }
        added = sorted(set(after) - set(before))
        removed = sorted(set(before) - set(after))
        modified = sorted(
            cve_id
            for cve_id in set(before) & set(after)
            if before[cve_id][0] != after[cve_id][0]
        )
        old_entries = {
            cve_id: entry_from_json(before[cve_id][1])
            for cve_id in (*modified, *removed)
        }
        new_entries = {
            cve_id: entry_from_json(after[cve_id][1])
            for cve_id in (*added, *modified)
        }
        return SnapshotDiff(
            from_snapshot=from_record,
            to_snapshot=to_record,
            added=tuple(added),
            modified=tuple(modified),
            removed=tuple(removed),
            old_entries=old_entries,
            new_entries=new_entries,
        )
