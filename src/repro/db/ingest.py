"""Feed -> database ingest pipeline.

Reproduces the collection program described in Section III of the paper: it
parses the NVD data feeds, keeps only operating-system platforms, normalises
(product, vendor) aliases onto the 11-OS catalogue, assigns validity statuses
and component classes, and loads everything into the SQL database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.classify.classifier import ComponentClassifier
from repro.classify.filters import ValidityFilter
from repro.core.exceptions import CVSSError
from repro.core.models import VulnerabilityEntry
from repro.nvd.cvss import parse_cvss_vector
from repro.nvd.feed_parser import RawFeedEntry, parse_xml_feeds
from repro.nvd.json_feed import parse_json_feed
from repro.nvd.normalize import ProductNormalizer
from repro.db.database import VulnerabilityDatabase

FeedPath = Union[str, Path]


@dataclass
class IngestReport:
    """Summary of one ingest run."""

    parsed_entries: int = 0
    ingested_entries: int = 0
    skipped_no_os: int = 0
    valid_entries: int = 0
    excluded_entries: int = 0
    unmatched_products: int = 0
    by_validity: Dict[str, int] = field(default_factory=dict)


class IngestPipeline:
    """Parses feeds and loads them into a :class:`VulnerabilityDatabase`."""

    def __init__(
        self,
        database: Optional[VulnerabilityDatabase] = None,
        normalizer: Optional[ProductNormalizer] = None,
        classifier: Optional[ComponentClassifier] = None,
        validity_filter: Optional[ValidityFilter] = None,
    ) -> None:
        self.database = database or VulnerabilityDatabase()
        self.normalizer = normalizer or ProductNormalizer()
        self.classifier = classifier or ComponentClassifier()
        self.validity_filter = validity_filter or ValidityFilter()
        self.database.register_os_catalog()

    # -- conversion -----------------------------------------------------------

    def convert(self, raw: RawFeedEntry) -> Optional[VulnerabilityEntry]:
        """Convert a raw feed entry to a study entry, or ``None`` if out of scope.

        An entry is out of scope when none of its CPE names resolves to one of
        the 11 studied OS distributions (either because it is an application
        or hardware platform, or an OS outside the catalogue).
        """
        cpes = raw.parsed_cpes()
        affected, versions = self.normalizer.resolve_many(cpes)
        if not affected:
            return None
        try:
            cvss = parse_cvss_vector(raw.cvss_vector)
        except CVSSError:
            # Entries without usable CVSS data default to a remote vector,
            # the conservative choice for the Isolated-Thin analysis.  Only
            # a malformed vector takes this path; other exceptions are
            # parser bugs and propagate.
            from repro.core.enums import AccessVector
            from repro.core.models import CVSSVector

            cvss = CVSSVector(access_vector=AccessVector.NETWORK)
        entry = VulnerabilityEntry(
            cve_id=raw.cve_id,
            published=raw.published,
            summary=raw.summary,
            cvss=cvss,
            affected_os=frozenset(affected),
            affected_versions=versions,
            raw_cpes=tuple(cpes),
        )
        entry = entry.with_validity(self.validity_filter.status_for_text(entry.summary))
        if entry.is_valid:
            entry = entry.with_class(self.classifier.classify(entry))
        return entry

    # -- ingestion -------------------------------------------------------------

    def ingest_raw(self, raw_entries: Sequence[RawFeedEntry]) -> IngestReport:
        """Ingest already-parsed raw entries, in one write transaction."""
        report = IngestReport(parsed_entries=len(raw_entries))
        with self.database.transaction():
            for raw in raw_entries:
                entry = self.convert(raw)
                if entry is None:
                    report.skipped_no_os += 1
                    continue
                self.database.insert_entry(entry)
                report.ingested_entries += 1
                report.by_validity[entry.validity.value] = (
                    report.by_validity.get(entry.validity.value, 0) + 1
                )
                if entry.is_valid:
                    report.valid_entries += 1
                else:
                    report.excluded_entries += 1
        report.unmatched_products = len(self.normalizer.report.unmatched_keys)
        return report

    def ingest_xml_feeds(self, paths: Iterable[FeedPath]) -> IngestReport:
        """Parse and ingest one or more XML feeds."""
        return self.ingest_raw(parse_xml_feeds(list(paths)))

    def ingest_json_feed(self, path: FeedPath) -> IngestReport:
        """Parse and ingest a JSON feed."""
        return self.ingest_raw(parse_json_feed(path))

    def ingest_entries(self, entries: Iterable[VulnerabilityEntry]) -> IngestReport:
        """Ingest pre-built entries (e.g. a synthetic corpus) without re-parsing.

        Validity and classification are preserved when already present.
        The inserts run in one write transaction.
        """
        report = IngestReport()
        with self.database.transaction():
            for entry in entries:
                report.parsed_entries += 1
                if not entry.affected_os:
                    report.skipped_no_os += 1
                    continue
                if entry.component_class is None and entry.is_valid:
                    entry = entry.with_class(self.classifier.classify(entry))
                self.database.insert_entry(entry)
                report.ingested_entries += 1
                if entry.is_valid:
                    report.valid_entries += 1
                else:
                    report.excluded_entries += 1
                report.by_validity[entry.validity.value] = (
                    report.by_validity.get(entry.validity.value, 0) + 1
                )
        return report
