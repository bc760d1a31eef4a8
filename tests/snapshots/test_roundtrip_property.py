"""Property tests: random delta batches vs from-scratch ingestion.

The contract under test is the heart of the incremental pipeline: after any
sequence of upserts and tombstones, (1) the head snapshot's time-travelled
dataset is *identical* to a from-scratch ingest of the final state, (2)
replaying any applied batch changes neither the database nor the ledger,
and (3) sweep-cache scope digests move only for replica groups whose OSes
the batch touched.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import ServerConfiguration
from repro.db.database import VulnerabilityDatabase
from repro.snapshots.digests import dataset_digest_of, scope_digest
from repro.snapshots.store import SnapshotStore
from tests.conftest import make_entry

OSES = ("Debian", "RedHat", "Solaris", "OpenBSD")
CVE_IDS = tuple(f"CVE-2005-{index:04d}" for index in range(1, 9))

#: One mutation: (cve_id, None) tombstones, (cve_id, (revision, oses)) upserts.
_mutation = st.tuples(
    st.sampled_from(CVE_IDS),
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sets(st.sampled_from(OSES), min_size=1, max_size=3),
        ),
    ),
)


def _entry(cve_id, revision, oses):
    return make_entry(
        cve_id=cve_id,
        oses=tuple(sorted(oses)),
        summary=f"A kernel flaw (rev {revision}) allows remote attackers "
        "to crash the system.",
        # Spread publication dates so ordering is exercised.
        month=(int(cve_id[-4:]) % 12) + 1,
    )


def _apply(database, state, batch):
    """Apply one mutation batch to a database and a model state dict."""
    for cve_id, action in batch:
        if action is None:
            database.tombstone_entry(cve_id)
            state.pop(cve_id, None)
        else:
            revision, oses = action
            entry = _entry(cve_id, revision, oses)
            database.upsert_entry(entry)
            state[cve_id] = entry


@settings(max_examples=25, deadline=None)
@given(batches=st.lists(st.lists(_mutation, min_size=1, max_size=6),
                        min_size=1, max_size=4))
def test_snapshot_chain_matches_from_scratch_ingest(batches):
    database = VulnerabilityDatabase()
    database.register_os_catalog()
    store = SnapshotStore(database)
    state = {}
    for batch in batches:
        _apply(database, state, batch)
        store.commit(source="batch")
    head = store.head()
    assert head is not None

    # From scratch: a fresh database holding only the final state.
    fresh = VulnerabilityDatabase()
    fresh.register_os_catalog()
    for entry in state.values():
        fresh.insert_entry(entry)

    assert head.digest == dataset_digest_of(state.values())
    if state:
        assert list(store.dataset_at(head.snapshot_id)) == fresh.load_entries()
    else:
        assert store.dataset_at(head.snapshot_id).entries == ()


@settings(max_examples=25, deadline=None)
@given(batch=st.lists(_mutation, min_size=1, max_size=6))
def test_replaying_an_applied_batch_is_a_noop(batch):
    database = VulnerabilityDatabase()
    database.register_os_catalog()
    store = SnapshotStore(database)
    state = {}
    _apply(database, state, batch)
    first = store.commit()
    _apply(database, state, batch)  # replay the identical batch
    second = store.commit()
    assert second == first
    assert len(store.list()) == 1


@settings(max_examples=25, deadline=None)
@given(
    before=st.lists(_mutation, min_size=2, max_size=8),
    after=st.lists(_mutation, min_size=1, max_size=4),
)
def test_scope_digests_move_only_for_touched_groups(before, after):
    database = VulnerabilityDatabase()
    database.register_os_catalog()
    store = SnapshotStore(database)
    state = {}
    _apply(database, state, before)
    first = store.commit()
    old_entries = store.entries_at(first.snapshot_id)

    _apply(database, state, after)
    second = store.commit()
    if second == first:
        return  # the batch was a net no-op; nothing to compare
    new_entries = store.entries_at(second.snapshot_id)
    diff = store.diff(first.snapshot_id, second.snapshot_id)
    admitted = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).apply
    old_pool, new_pool = admitted(old_entries), admitted(new_entries)

    for group in ((OSES[0],), (OSES[1], OSES[2]), OSES):
        untouched = not diff.touches_group(group)
        same_digest = scope_digest(old_pool, group) == scope_digest(new_pool, group)
        if untouched:
            # The cache-key scope of an untouched group never moves.
            assert same_digest
