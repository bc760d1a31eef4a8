"""The ledger reader behind ``SnapshotDatasetProvider.current()``.

Each calling thread keeps one reader connection and resolves the head (or
its pin) again only when ``PRAGMA data_version`` shows that another
connection committed.  The oracle interleaves writes from a separate
connection -- the way another worker process writes -- with reads from
one to three threads: after every step, each thread's state must equal
what a fresh connection resolves.  The cost test pins the saving itself:
one connection per thread, one head read per foreign commit.
"""

from __future__ import annotations

import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.db.database import VulnerabilityDatabase
from repro.service import DatasetState, SnapshotDatasetProvider
from repro.service.errors import Conflict, NotFound
from repro.snapshots.digests import dataset_digest, entry_digest
from repro.snapshots.store import SnapshotStore

from tests.conftest import make_entry

CVES = ("CVE-2005-0001", "CVE-2005-0002", "CVE-2005-0003")


def _entry(index: int, variant: int):
    return make_entry(
        cve_id=CVES[index], summary=f"A kernel flaw, revision {variant}."
    )


#: A digest prefix of a state the writer can reach (and reach again, so a
#: later snapshot takes the pin over): entry 0 at revision 0 alone.
DIGEST_PIN = dataset_digest({CVES[0]: entry_digest(_entry(0, 0))})[:12]


class Ledger:
    """The writer: its own connection, never shared with a reader."""

    def __init__(self, path: Path) -> None:
        self.database = VulnerabilityDatabase(path)
        self.database.register_os_catalog()
        self.store = SnapshotStore(self.database)
        self.commits = 0

    def mutate(self, index: int, variant) -> None:
        """Set entry ``index`` to a revision, or tombstone it (``None``)."""
        if variant is None:
            self.database.tombstone_entry(CVES[index])
        else:
            self.database.upsert_entry(_entry(index, variant))

    def commit(self) -> None:
        self.commits += 1
        self.store.commit(
            source="oracle", created=f"2011-06-27T00:00:{self.commits:02d}+00:00"
        )

    def close(self) -> None:
        self.database.close()


def _observe(provider: SnapshotDatasetProvider):
    """``current()``, with the API errors it raises as values."""
    try:
        return provider.current()
    except (Conflict, NotFound) as error:
        return type(error)


def _fresh(provider: SnapshotDatasetProvider, path: Path):
    """What a fresh connection resolves: the oracle (never counted)."""
    database = VulnerabilityDatabase(path)
    try:
        record = SnapshotDatasetProvider._resolve(provider, SnapshotStore(database))
    except (Conflict, NotFound) as error:
        return type(error)
    finally:
        database.close()
    return DatasetState(digest=record.digest, snapshot=record)


#: One writer action: change an entry and snapshot it, change an entry
#: without a snapshot (the database moves, the ledger does not), or commit
#: an unchanged state (a no-op that returns the head).
_action = st.one_of(
    st.tuples(
        st.sampled_from(("snapshot", "mutate")),
        st.integers(min_value=0, max_value=len(CVES) - 1),
        st.sampled_from((0, 1, None)),
    ),
    st.just(("noop", 0, None)),
)


@pytest.mark.parametrize("pin", [None, "2", DIGEST_PIN], ids=["head", "id", "digest"])
@settings(max_examples=30, deadline=None)
@given(
    threads=st.integers(min_value=1, max_value=3),
    steps=st.lists(st.lists(_action, max_size=3), min_size=1, max_size=8),
)
# The first snapshot gains every provider a state; the id pin resolves
# at the second; the third returns to the pinned digest and takes it over.
@example(
    threads=2,
    steps=[[("snapshot", 0, 0)], [("snapshot", 0, 1)], [("snapshot", 0, 0)]],
)
def test_every_thread_reads_what_a_fresh_connection_resolves(pin, threads, steps):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ledger.db"
        ledger = Ledger(path)  # an empty ledger: every provider starts unresolvable
        provider = SnapshotDatasetProvider(str(path), snapshot=pin)
        callers = [ThreadPoolExecutor(max_workers=1) for _ in range(threads)]
        try:
            for actions in steps:
                for kind, index, variant in actions:
                    if kind != "noop":
                        ledger.mutate(index, variant)
                    if kind != "mutate":
                        ledger.commit()
                expected = _fresh(provider, path)
                for caller in callers:
                    assert caller.submit(_observe, provider).result() == expected
        finally:
            for caller in callers:
                caller.shutdown()
            ledger.close()


class TestReaderCost:
    def test_one_connection_per_thread_and_one_head_read_per_commit(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ledger.db"
        ledger = Ledger(path)
        ledger.mutate(0, 0)
        ledger.commit()
        opens, reads = Counter(), Counter()
        init = VulnerabilityDatabase.__init__

        def counting_init(database, *args, **kwargs):
            opens[threading.get_ident()] += 1
            init(database, *args, **kwargs)

        monkeypatch.setattr(VulnerabilityDatabase, "__init__", counting_init)
        provider = SnapshotDatasetProvider(str(path))
        resolve = provider._resolve

        def counting_resolve(store):
            reads[threading.get_ident()] += 1
            return resolve(store)

        monkeypatch.setattr(provider, "_resolve", counting_resolve)

        def call(times: int):
            states = {provider.current() for _ in range(times)}
            return threading.get_ident(), states

        callers = [ThreadPoolExecutor(max_workers=1) for _ in range(3)]
        try:
            main, states = call(200)
            assert (opens[main], reads[main], len(states)) == (1, 1, 1)
            for caller in callers:
                ident, states = caller.submit(call, 50).result()
                assert (opens[ident], reads[ident], len(states)) == (1, 1, 1)
            head = provider.current()

            ledger.mutate(0, 1)  # one commit on a foreign connection
            ledger.commit()
            expected = _fresh(provider, path)
            assert expected.digest != head.digest
            opened = sum(opens.values())
            main, states = call(50)
            assert (states, reads[main]) == ({expected}, 2)
            for caller in callers:
                ident, states = caller.submit(call, 50).result()
                assert (states, reads[ident]) == ({expected}, 2)
            assert sum(opens.values()) == opened
        finally:
            for caller in callers:
                caller.shutdown()
            ledger.close()
