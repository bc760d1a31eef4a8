"""Incremental (NVD *modified*-feed) ingestion.

The batch :class:`~repro.db.ingest.IngestPipeline` re-parses and re-inserts
the whole corpus on every run; this module applies a **delta**: a feed that
carries only the entries republished since the last pull, plus
``** REJECT **`` tombstones for withdrawn ones -- the shape of NVD's
``nvdcve-2.0-modified.xml``.

For every raw delta entry the pipeline:

* tombstones the stored entry when the delta rejects it
  (:attr:`~repro.nvd.feed_parser.RawFeedEntry.is_rejected`) **or** when its
  republished form no longer resolves to any catalogued OS (it left the
  study's scope);
* otherwise converts it through the same normalisation/classification path
  as a full ingest and upserts it -- insert when new, update when the
  normalized content digest changed, *no-op* when identical.  Digest-equal
  re-application therefore touches nothing, which makes replaying a delta
  idempotent.

After the database mutation the attached snapshot store commits, so each
applied delta yields exactly one ledger entry (or none, when the delta was
already applied) whose digest identifies the resulting dataset state.  The
mutation and the commit are one SQLite transaction: a delta is applied
whole or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.db.ingest import IngestPipeline
from repro.nvd.feed_parser import RawFeedEntry, parse_xml_feed
from repro.nvd.json_feed import parse_json_feed
from repro.obs.clock import CLOCK, Clock
from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.snapshots.store import SnapshotRecord, SnapshotStore


@dataclass
class DeltaReport:
    """Summary of one applied delta."""

    parsed_entries: int = 0
    added: int = 0
    modified: int = 0
    unchanged: int = 0
    removed: int = 0
    #: Delta entries that neither matched a catalogued OS nor a stored row.
    skipped_no_os: int = 0
    #: Snapshot committed after the delta (``None`` with ``commit=False``).
    snapshot: Optional[SnapshotRecord] = None
    by_outcome: Dict[str, int] = field(default_factory=dict)

    @property
    def changed(self) -> int:
        """Number of database mutations the delta caused."""
        return self.added + self.modified + self.removed

    def summary(self) -> str:
        digest = self.snapshot.short_digest if self.snapshot else "uncommitted"
        return (
            f"delta: {self.parsed_entries} entries -> +{self.added} added, "
            f"~{self.modified} modified, -{self.removed} removed, "
            f"{self.unchanged} unchanged, {self.skipped_no_os} out of scope "
            f"[snapshot {digest}]"
        )


class DeltaIngestPipeline:
    """Applies modified-feed deltas to an existing ingested database."""

    def __init__(
        self,
        pipeline: IngestPipeline,
        store: Optional[SnapshotStore] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.pipeline = pipeline
        self.database = pipeline.database
        self.store = store or SnapshotStore(self.database)
        # Observability only: apply latency, blast-radius size and a delta
        # counter.  Reports stay byte-identical whether or not a shared
        # registry is wired in.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self._clock = clock if clock is not None else CLOCK
        self._apply_seconds = self._metrics.histogram(
            "ingest_apply_seconds",
            "Wall time of one delta application (mutations + commit).",
        )
        self._blast_entries = self._metrics.histogram(
            "ingest_blast_entries",
            "Database mutations (blast radius) per applied delta.",
            buckets=SIZE_BUCKETS,
        )
        self._deltas_counter = self._metrics.counter(
            "ingest_deltas_total",
            "Deltas applied, by whether they changed the dataset.",
            labels=("outcome",),
        )

    # -- application ------------------------------------------------------------

    def apply_raw(
        self,
        raw_entries: Sequence[RawFeedEntry],
        source: str = "delta",
        commit: bool = True,
        created: Optional[str] = None,
    ) -> DeltaReport:
        """Apply already-parsed delta entries; returns the report.

        ``source`` is recorded as the committed snapshot's feed provenance.
        With ``commit=False`` the database is mutated but no snapshot is
        cut (callers batching several deltas commit once at the end).
        ``created`` pins the committed snapshot's ledger timestamp (see
        :meth:`SnapshotStore.commit`); omitted, the store stamps it.
        The report's ``snapshot`` is the committed ledger record; a
        long-lived consumer (the serving layer's response cache) evicts
        what its diff from the parent touches once this returns.

        The upserts, the tombstones and the snapshot commit run in one
        write transaction: a delta that fails part-way leaves the rows and
        the ledger as they were, and no concurrent commit can capture half
        of it.
        """
        started = self._clock.perf()
        report = DeltaReport(parsed_entries=len(raw_entries))
        with self.database.transaction():
            for raw in raw_entries:
                outcome = self._apply_one(raw)
                report.by_outcome[outcome] = report.by_outcome.get(outcome, 0) + 1
                if outcome == "added":
                    report.added += 1
                elif outcome == "modified":
                    report.modified += 1
                elif outcome == "unchanged":
                    report.unchanged += 1
                elif outcome == "removed":
                    report.removed += 1
                else:
                    report.skipped_no_os += 1
            if commit:
                report.snapshot = self.store.commit(source=source, created=created)
        elapsed = self._clock.perf() - started
        self._apply_seconds.observe(elapsed)
        self._blast_entries.observe(report.changed)
        self._deltas_counter.inc(
            outcome="changed" if report.changed else "no-op"
        )
        if self._tracer is not None:
            trace = self._tracer.current()
            if trace is not None:
                trace.record(
                    "ingest.apply",
                    started,
                    elapsed,
                    {"changed": str(report.changed), "source": source},
                )
        return report

    def _apply_one(self, raw: RawFeedEntry) -> str:
        if raw.is_rejected:
            return "removed" if self.database.tombstone_entry(raw.cve_id) else "skipped"
        entry = self.pipeline.convert(raw)
        if entry is None:
            # Republished outside the catalogue: the stored entry (if any)
            # left the study's scope and is withdrawn from the live set.
            return "removed" if self.database.tombstone_entry(raw.cve_id) else "skipped"
        return self.database.upsert_entry(entry)

    def apply_xml_feed(
        self,
        path: Union[str, Path],
        source: Optional[str] = None,
        commit: bool = True,
        created: Optional[str] = None,
    ) -> DeltaReport:
        """Parse and apply one XML modified feed."""
        return self.apply_raw(
            parse_xml_feed(path),
            source=source or str(path),
            commit=commit,
            created=created,
        )

    def apply_json_feed(
        self,
        path: Union[str, Path],
        source: Optional[str] = None,
        commit: bool = True,
        created: Optional[str] = None,
    ) -> DeltaReport:
        """Parse and apply one JSON modified feed."""
        return self.apply_raw(
            parse_json_feed(path),
            source=source or str(path),
            commit=commit,
            created=created,
        )

    def apply_feed(
        self,
        path: Union[str, Path],
        source: Optional[str] = None,
        commit: bool = True,
        created: Optional[str] = None,
    ) -> DeltaReport:
        """Apply a feed file, dispatching on its suffix (.xml or .json)."""
        if str(path).endswith(".json"):
            return self.apply_json_feed(
                path, source=source, commit=commit, created=created
            )
        return self.apply_xml_feed(
            path, source=source, commit=commit, created=created
        )
