"""Two connections to one snapshot ledger, interleaved by a state machine.

Each rule runs through one of two ``VulnerabilityDatabase`` connections to
one ledger file, the way two worker processes share a ledger: a small
delta applied through either (committed, or left for a later commit), a
bare commit, reads of ``head()`` and ``list()`` through the other, and a
checkout of a recorded snapshot.  Whatever the interleaving, the ledger
stays one chain -- each snapshot's ``parent_digest`` is its predecessor's
digest, so there are no forks -- and the head's dataset digests to the
head's recorded digest, and each snapshot's parent lookup names the row
before it -- with three CVEs the ledger often revisits a state, so one
digest names several rows.  A checkout also diffs a random recorded pair,
in either direction and across any number of links, and replays the diff.
"""

from __future__ import annotations

import datetime as dt
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.nvd.feed_parser import RawFeedEntry
from repro.nvd.feed_writer import rejection_entry
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.digests import dataset_digest

CVES = ("CVE-2005-0001", "CVE-2005-0002", "CVE-2005-0003")
PUBLISHED = dt.date(2005, 6, 15)
#: Debian, OpenBSD and Solaris platforms, plus an application CPE that
#: takes an entry out of the study's scope (a tombstone).
CPES = (
    "cpe:/o:debian:debian_linux:4.0",
    "cpe:/o:openbsd:openbsd:4.0",
    "cpe:/o:sun:solaris:10",
    "cpe:/a:apache:http_server:2.2",
)


def _published(index: int, revision: int, cpe: str) -> RawFeedEntry:
    return RawFeedEntry(
        cve_id=CVES[index],
        published=PUBLISHED,
        summary=f"A kernel flaw allows remote attackers to crash the "
        f"system (revision {revision}).",
        cvss_vector="AV:N/AC:L/Au:N/C:P/I:P/A:P",
        cpe_uris=(cpe,),
    )


_cve = st.integers(min_value=0, max_value=len(CVES) - 1)
_delta = st.lists(
    st.one_of(
        st.builds(
            _published, _cve, st.integers(min_value=0, max_value=2),
            st.sampled_from(CPES),
        ),
        st.builds(lambda index: rejection_entry(CVES[index], PUBLISHED), _cve),
    ),
    min_size=1,
    max_size=3,
)
_connection = st.integers(min_value=0, max_value=1)


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="ledger-machine-"))
        path = self.directory / "ledger.db"
        self.pipelines = [
            DeltaIngestPipeline(IngestPipeline(VulnerabilityDatabase(path)))
            for _ in range(2)
        ]

    def teardown(self) -> None:
        for pipeline in self.pipelines:
            pipeline.database.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _committed(self, record, writer: int) -> None:
        """The other connection reads ``record`` as the head, and it names
        the live state both connections share."""
        other = self.pipelines[1 - writer]
        assert other.store.head() == record
        assert record.digest == dataset_digest(other.database.live_state())

    @rule(writer=_connection, delta=_delta, commit=st.booleans())
    def apply(self, writer, delta, commit):
        report = self.pipelines[writer].apply_raw(
            delta, source=f"delta-{writer}", commit=commit
        )
        if commit:
            self._committed(report.snapshot, writer)

    @rule(writer=_connection)
    def commit(self, writer):
        record = self.pipelines[writer].store.commit(source=f"commit-{writer}")
        self._committed(record, writer)

    @rule(reader=_connection)
    def read(self, reader):
        store = self.pipelines[reader].store
        ledger = store.list()
        assert store.head() == (ledger[-1] if ledger else None)
        assert ledger == self.pipelines[1 - reader].store.list()

    @rule(
        reader=_connection,
        position=st.integers(min_value=0),
        other=st.integers(min_value=0),
    )
    def checkout(self, reader, position, other):
        store = self.pipelines[reader].store
        ledger = store.list()
        if ledger:
            record = ledger[position % len(ledger)]
            assert store.dataset_at(record.snapshot_id).digest() == record.digest
            # Any recorded pair, either direction, across any number of
            # links: the diff replays one snapshot's entries into the other's.
            target = ledger[other % len(ledger)]
            diff = store.diff(record.snapshot_id, target.snapshot_id)
            assert diff.apply(store.entries_at(record.snapshot_id)) == (
                store.entries_at(target.snapshot_id)
            )

    @invariant()
    def one_chain(self):
        store = self.pipelines[0].store
        ledger = store.list()
        predecessors = [None] + [record.digest for record in ledger]
        assert [record.parent_digest for record in ledger] == predecessors[
            : len(ledger)
        ]
        # The parent lookup names the row before, even where a revisited
        # state gives a later row the parent's digest too.
        assert [store.parent(record) for record in ledger] == [None, *ledger][
            : len(ledger)
        ]
        # A commit that changes nothing returns the head: no repeated state.
        assert all(a.digest != b.digest for a, b in zip(ledger, ledger[1:]))

    @invariant()
    def head_dataset_matches_its_digest(self):
        store = self.pipelines[1].store
        head = store.head()
        if head is not None:
            assert store.dataset_at(head.snapshot_id).digest() == head.digest


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
