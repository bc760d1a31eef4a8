"""Replaying a snapshot diff on its source entries (:meth:`SnapshotDiff.apply`).

The contract: for any chain of deltas landing on a snapshot store,
``diff.apply(entries_at(a)) == entries_at(b)`` where ``diff`` is
``store.diff(a, b)`` -- same entries, in the same ``(published, cve_id)``
order -- and every entry the diff leaves alone is the very object passed
in, so its memoised entry digest carries over.  The deltas are randomly
generated ``evolve_corpus`` batches (modifications and rejections)
interleaved with brand-new entries, so additions, removals and content
changes -- including publication-date changes that reorder the entry list
-- are all exercised, as are diffs across several links and backwards.
The hand-rolled cases pin the ordering corners one at a time.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataset import ENGINES, VulnerabilityDataset
from repro.db.database import VulnerabilityDatabase
from repro.db.ingest import IngestPipeline
from repro.snapshots.delta import DeltaIngestPipeline
from repro.snapshots.diff import SnapshotDiff, entry_order
from repro.snapshots.store import SnapshotStore
from repro.synthetic.evolution import evolve_corpus
from tests.conftest import make_entry


@pytest.fixture()
def ledger(corpus):
    """(store, delta pipeline, base snapshot) over the first 300 entries."""
    pipeline = IngestPipeline(database=VulnerabilityDatabase())
    pipeline.ingest_raw(corpus.to_raw_feed_entries()[:300])
    store = SnapshotStore(pipeline.database)
    base = store.commit(source="full")
    return store, DeltaIngestPipeline(pipeline, store), base


def _assert_applies(store, diff, from_id, to_id):
    """``diff`` replays ``from_id``'s entries into ``to_id``'s, reusing
    every unchanged entry object."""
    parent = store.entries_at(from_id)
    applied = diff.apply(parent)
    assert applied == store.entries_at(to_id)
    by_id = {entry.cve_id: entry for entry in parent}
    changed = set(diff.changed)
    for entry in applied:
        if entry.cve_id in changed:
            assert entry is diff.new_entries[entry.cve_id]
        else:
            assert entry is by_id[entry.cve_id]
    return applied


def _delta_of_known(store, base, corpus, seed, fraction=0.03, rejections=2):
    """Apply a random modification batch over ``base``'s entries."""
    known = {entry.cve_id for entry in store.entries_at(base.snapshot_id)}
    batch = evolve_corpus(corpus, fraction=fraction, seed=seed, rejections=rejections)
    return [raw for raw in batch.entries if raw.cve_id in known]


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_random_delta_batch_applies_to_the_head(ledger, corpus, seed):
    store, delta_pipeline, base = ledger
    delta_pipeline.apply_raw(_delta_of_known(store, base, corpus, seed), source="delta")
    head = store.head()
    diff = store.diff(base.snapshot_id, head.snapshot_id)
    assert not diff.is_empty
    _assert_applies(store, diff, base.snapshot_id, head.snapshot_id)


def test_delta_chain_with_additions_applies_every_link(ledger, corpus):
    """A chain of deltas (adds + modifications + removals), applied link by
    link and also end to end across the whole chain."""
    store, delta_pipeline, base = ledger
    raw_entries = corpus.to_raw_feed_entries()
    known = {raw.cve_id for raw in raw_entries[:300]}
    previous = base
    for step, seed in enumerate((11, 12, 13)):
        batch = evolve_corpus(corpus, fraction=0.02, seed=seed, rejections=1)
        adds = raw_entries[300 + 10 * step : 300 + 10 * (step + 1)]
        delta_pipeline.apply_raw(
            [*adds, *(raw for raw in batch.entries if raw.cve_id in known)],
            source=f"delta-{step}",
        )
        head = store.head()
        assert head.snapshot_id != previous.snapshot_id
        diff = store.diff(previous.snapshot_id, head.snapshot_id)
        assert diff.counts()["added"] == 10
        _assert_applies(store, diff, previous.snapshot_id, head.snapshot_id)
        previous = head
    # One combined diff across the whole chain applies identically too.
    combined = store.diff(base.snapshot_id, previous.snapshot_id)
    assert combined.counts()["added"] == 30
    _assert_applies(store, combined, base.snapshot_id, previous.snapshot_id)


def test_reverse_diff_applies_back_to_the_parent(ledger, corpus):
    """Diffs run in either direction; applying backwards restores the old."""
    store, delta_pipeline, base = ledger
    raw_entries = corpus.to_raw_feed_entries()
    delta_pipeline.apply_raw(
        [*raw_entries[300:305], *_delta_of_known(store, base, corpus, seed=9)],
        source="delta",
    )
    head = store.head()
    backwards = store.diff(head.snapshot_id, base.snapshot_id)
    assert backwards.counts()["removed"] == 5
    _assert_applies(store, backwards, head.snapshot_id, base.snapshot_id)


@pytest.mark.parametrize("engine", ENGINES)
def test_applied_dataset_answers_like_the_ledger_head(ledger, corpus, engine):
    store, delta_pipeline, base = ledger
    delta_pipeline.apply_raw(
        _delta_of_known(store, base, corpus, seed=42, fraction=0.05, rejections=3),
        source="delta",
    )
    head = store.head()
    diff = store.diff(base.snapshot_id, head.snapshot_id)
    parent = store.dataset_at(base.snapshot_id, engine=engine)
    applied = VulnerabilityDataset(
        diff.apply(parent.entries), parent.os_names, engine=engine
    )
    fresh = store.dataset_at(head.snapshot_id, engine=engine)
    assert applied.digest() == fresh.digest() == head.digest
    names = fresh.os_names
    index, fresh_index = applied.query_index(), fresh.query_index()
    assert index.pair_matrix(names) == fresh_index.pair_matrix(names)
    assert index.k_set_totals(names, 3) == fresh_index.k_set_totals(names, 3)
    assert applied.affecting_at_least(3) == fresh.affecting_at_least(3)
    for name in diff.affected_os_names():
        assert applied.count_for(name) == fresh.count_for(name)


# -- hand-rolled diffs: one ordering corner each ------------------------------


@pytest.fixture()
def entries():
    return [
        make_entry(cve_id="CVE-2005-0001", oses=("Debian", "RedHat", "Ubuntu")),
        make_entry(cve_id="CVE-2005-0002", oses=("Debian", "RedHat")),
        make_entry(cve_id="CVE-2005-0003", oses=("OpenBSD",)),
        make_entry(cve_id="CVE-2005-0004", oses=("OpenBSD", "NetBSD", "FreeBSD")),
        make_entry(cve_id="CVE-2005-0005", oses=("Debian",)),
    ]


def _diff(entries, added=(), modified=(), removed=()):
    """A hand-rolled SnapshotDiff from ``entries``."""
    by_id = {entry.cve_id: entry for entry in entries}
    return SnapshotDiff(
        from_snapshot=None,
        to_snapshot=None,
        added=tuple(sorted(entry.cve_id for entry in added)),
        modified=tuple(sorted(entry.cve_id for entry in modified)),
        removed=tuple(sorted(removed)),
        old_entries={
            cve_id: by_id[cve_id]
            for cve_id in (*[entry.cve_id for entry in modified], *removed)
            if cve_id in by_id
        },
        new_entries={entry.cve_id: entry for entry in (*added, *modified)},
    )


class TestApplyOrdering:
    def test_empty_diff_keeps_every_entry_object(self, entries):
        applied = _diff(entries).apply(entries)
        assert applied == entries
        assert all(new is old for new, old in zip(applied, entries))
        assert applied is not entries

    def test_insertion_before_existing_entries(self, entries):
        """An add published before every entry goes first."""
        early = make_entry(cve_id="CVE-2005-0009", oses=("Debian",), month=1)
        applied = _diff(entries, added=[early]).apply(entries)
        assert applied == [early, *entries]
        assert all(new is old for new, old in zip(applied[1:], entries))

    def test_date_changing_modification_moves_the_entry(self, entries):
        moved = make_entry(cve_id="CVE-2005-0002", oses=("Ubuntu",), month=12)
        applied = _diff(entries, modified=[moved]).apply(entries)
        assert applied == [entries[0], *entries[2:], moved]
        assert applied[-1] is moved

    def test_unknown_modified_id_is_added(self, entries):
        stranger = make_entry(cve_id="CVE-2005-0000", oses=("Debian",))
        applied = _diff(entries, modified=[stranger]).apply(entries)
        assert applied == [stranger, *entries]

    def test_add_modify_and_remove_in_one_diff(self, entries):
        added = make_entry(cve_id="CVE-2005-0009", oses=("NetBSD", "FreeBSD"))
        modified = make_entry(cve_id="CVE-2005-0002", oses=("Ubuntu",), month=1)
        applied = _diff(
            entries, added=[added], modified=[modified], removed=["CVE-2005-0003"]
        ).apply(entries)
        expected = sorted(
            [entries[0], modified, entries[3], entries[4], added], key=entry_order
        )
        assert applied == expected
        assert [entry.cve_id for entry in applied] == [
            "CVE-2005-0002",
            "CVE-2005-0001",
            "CVE-2005-0004",
            "CVE-2005-0005",
            "CVE-2005-0009",
        ]

    def test_input_order_does_not_matter(self, entries):
        added = make_entry(cve_id="CVE-2005-0006", oses=("Debian",), month=3)
        diff = _diff(entries, added=[added], removed=["CVE-2005-0004"])
        assert diff.apply(reversed(entries)) == diff.apply(entries)
