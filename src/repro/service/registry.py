"""Digest-keyed corpus compilation: providers, artifacts and the registry.

The serving layer's core promise is **compile once per dataset state,
answer from memory**.  Three pieces deliver it:

* a *dataset provider* names the current dataset state cheaply
  (:class:`StaticDatasetProvider` for fixed entry sets,
  :class:`SnapshotDatasetProvider` for a snapshot store, where the state
  is the ledger head's content digest -- one SQL row, read again only
  after a commit, no entry loads) and materialises the entries only when
  a compile is actually needed;
* :class:`CorpusArtifacts` wraps one compiled
  :class:`~repro.analysis.dataset.VulnerabilityDataset` together with
  memoized derived artefacts (pair matrices, k-set totals, selectors,
  scoped digests) so repeated queries never recompute;
* :class:`ArtifactRegistry` memoizes artifacts **by dataset digest** with
  per-digest locks: N concurrent identical requests trigger exactly one
  compile (``compile_count`` counts them, which the concurrency tests
  assert), and an LRU bound keeps at most ``max_datasets`` corpora live
  across rolling snapshot deltas.  ``get`` is the only place a head is
  built: a miss whose snapshot's parent is cached derives the head from the
  parent's entries and a one-link diff (:meth:`ArtifactRegistry.patch`), on
  every engine and on every worker, so no worker decodes the ledger for a
  delta it has the parent of; any other miss loads the ledger.

Scoped digests are the content addresses the sweep cache keys on too
(:func:`repro.snapshots.digests.scope_digest`): the digest of the
sub-corpus a query can observe, hashed over the configuration view the
artifacts already compiled.  They are what response ``ETag``\\ s derive
from, so a snapshot delta that never touches a query's OSes leaves its
ETag -- and every conditional revalidation against it -- intact.  The
view's incidence index hands the recipe only the scope's own entries (the
OR of its OS masks), so a miss costs the scope's size, not the view's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.ksets import KSetAnalysis
from repro.analysis.selection import ReplicaSetSelector
from repro.core.enums import ServerConfiguration
from repro.core.models import VulnerabilityEntry
from repro.obs.clock import CLOCK, Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.service.errors import Conflict, NotFound
from repro.snapshots.digests import dataset_digest_of, scope_digest
from repro.snapshots.diff import SnapshotDiff
from repro.snapshots.store import SnapshotRecord

#: Scoped digests memoized per compiled corpus; scopes are client-chosen
#: (each distinct ``os=`` combination is one), so the memo is LRU-bounded.
#: A miss on a catalogued scope costs one OR of its OS masks and a pass
#: over the entries it selects; a global miss, one pass over the
#: configuration's view.  Entry digests are memoised per entry, so it
#: hashes nothing twice.
MAX_SCOPE_DIGESTS = 1024


@dataclass(frozen=True)
class DatasetState:
    """A cheap name for one dataset state: its digest plus provenance."""

    digest: str
    snapshot: Optional[SnapshotRecord] = None


class StaticDatasetProvider:
    """A fixed entry set (synthetic corpus, feeds directory, test fixture)."""

    def __init__(
        self,
        entries: Sequence[VulnerabilityEntry],
        os_names: Optional[Sequence[str]] = None,
        engine: str = "bitset",
        label: str = "static",
    ) -> None:
        self._entries = list(entries)
        self._os_names = tuple(os_names) if os_names is not None else None
        self._engine = engine
        self.label = label
        self._digest: Optional[str] = None

    @property
    def source(self) -> str:
        return self.label

    def current(self) -> DatasetState:
        """The (memoized) content digest of the fixed entry set."""
        if self._digest is None:
            self._digest = dataset_digest_of(self._entries)
        return DatasetState(digest=self._digest)

    def load(self, state: DatasetState) -> VulnerabilityDataset:
        if self._os_names is not None:
            return VulnerabilityDataset(
                self._entries, self._os_names, engine=self._engine
            )
        return VulnerabilityDataset(self._entries, engine=self._engine)

    # Ledger operations are meaningless without a snapshot store.

    def store(self):
        raise Conflict(
            "this server is not database-backed; snapshot and delta "
            "operations need `repro serve --db PATH`"
        )


class SnapshotDatasetProvider:
    """A PR-4 snapshot store: the state is the (pinned or head) ledger row.

    ``current()`` reads through one reader connection per calling thread
    (a SQLite connection belongs to the thread that opened it) and
    resolves the head or pin again only when the reader's ``PRAGMA
    data_version`` moves, which another connection's commit does -- an
    ingest on this worker, another worker process, ``repro ingest``: the
    ledger is read once per commit, not once per request.  The reader
    never writes, since its own commits would not move its
    ``data_version``.  ``load``, ``diff`` and ``store()`` open a fresh
    connection and close it before returning rather than keep a page
    cache alive per thread; the registry asks for a one-link ``diff`` when
    it can derive a head from a cached parent, and loads entries only when
    it cannot.
    """

    def __init__(
        self,
        db_path: str,
        snapshot: Optional[str] = None,
        engine: str = "bitset",
    ) -> None:
        if not Path(db_path).exists():
            raise NotFound(
                f"database {db_path} does not exist; run `repro ingest` first"
            )
        self._db_path = str(db_path)
        self._pin = snapshot
        self._engine = engine
        #: Per thread: ``store`` (the reader), ``version`` (its
        #: ``data_version`` when ``state`` was resolved) and ``state``.
        self._reader = threading.local()

    @property
    def source(self) -> str:
        pin = f"@{self._pin}" if self._pin else ""
        return f"db:{self._db_path}{pin}"

    @property
    def db_path(self) -> str:
        return self._db_path

    def _open(self):
        from repro.db.database import VulnerabilityDatabase

        return VulnerabilityDatabase(self._db_path)

    def _resolve(self, store) -> SnapshotRecord:
        from repro.core.exceptions import DatabaseError

        if self._pin is None:
            head = store.head()
            if head is None:
                raise Conflict(
                    f"database {self._db_path} has no snapshots; "
                    "run `repro ingest` first"
                )
            return head
        try:
            return store.resolve(self._pin)
        except DatabaseError as error:
            raise NotFound(str(error)) from error

    def current(self) -> DatasetState:
        """The ledger row the server currently serves (head unless pinned).

        Resolved again only when the calling thread's reader has seen a
        commit since the last resolution; a resolution that raises (an
        empty ledger, an unknown pin) caches nothing.
        """
        from repro.snapshots.store import SnapshotStore

        reader = self._reader
        store = getattr(reader, "store", None)
        if store is None:
            store = reader.store = SnapshotStore(self._open())
            reader.version = None
        # Read before resolving: a commit landing in between then moves
        # the version again and the next call resolves once more.
        (version,) = store.database.connection.execute(
            "PRAGMA data_version"
        ).fetchone()
        if version != reader.version:
            record = self._resolve(store)
            reader.state = DatasetState(digest=record.digest, snapshot=record)
            reader.version = version
        return reader.state

    def load(self, state: DatasetState) -> VulnerabilityDataset:
        from repro.snapshots.store import SnapshotStore

        with self._open() as database:
            return SnapshotStore(database).dataset_at(
                state.snapshot.snapshot_id, engine=self._engine
            )

    def diff(self, from_state: DatasetState, state: DatasetState) -> SnapshotDiff:
        """What changed from one snapshot state to another (read as ``load``)."""
        from repro.snapshots.store import SnapshotStore

        with self._open() as database:
            return SnapshotStore(database).diff(
                from_state.snapshot.snapshot_id, state.snapshot.snapshot_id
            )

    def store(self):
        """A fresh (database, SnapshotStore) pair; the caller closes it."""
        from repro.snapshots.store import SnapshotStore

        database = self._open()
        return database, SnapshotStore(database)


class CorpusArtifacts:
    """One compiled dataset plus memoized derived artefacts.

    Everything here is immutable-after-compute and guarded by one lock, so
    artefacts can be shared freely across request threads.  The compile
    itself (incidence bitmasks) happens in :meth:`compile`, which the
    registry calls exactly once per digest.
    """

    def __init__(self, dataset: VulnerabilityDataset, state: DatasetState) -> None:
        self.dataset = dataset
        self.state = state
        self._lock = threading.RLock()
        #: LRU-bounded: clients choose the scope (the OS set of a query),
        #: so an unbounded memo would grow with every distinct os=
        #: combination ever requested.
        self._scoped: "OrderedDict[Tuple[Optional[FrozenSet[str]], ServerConfiguration], str]" = (
            OrderedDict()
        )
        self._pair_matrices: Dict[ServerConfiguration, Dict[Tuple[str, str], int]] = {}
        self._selectors: Dict[ServerConfiguration, ReplicaSetSelector] = {}
        self._ksets: Dict[ServerConfiguration, KSetAnalysis] = {}

    @property
    def digest(self) -> str:
        return self.state.digest

    @property
    def os_names(self) -> Tuple[str, ...]:
        return self.dataset.os_names

    def compile(self) -> "CorpusArtifacts":
        """Build the bitset incidence index eagerly (the expensive step)."""
        self.dataset.compile()
        return self

    def valid_dataset(self) -> VulnerabilityDataset:
        """The valid-entry view most analyses run on (compiled lazily).

        The dataset memoises the view; the lock keeps its compile to one.
        """
        with self._lock:
            return self.dataset.valid().compile()

    def filtered_valid(
        self, configuration: ServerConfiguration
    ) -> VulnerabilityDataset:
        """The valid entries admitted by one server configuration, compiled
        once per configuration and shared by every query that needs it."""
        with self._lock:
            return self.valid_dataset().filtered(configuration).compile()

    # -- scoped content addresses ---------------------------------------------

    def scope_digest(
        self,
        os_names: Optional[Sequence[str]] = None,
        configuration: ServerConfiguration = ServerConfiguration.ISOLATED_THIN,
    ) -> str:
        """Digest of the sub-corpus a query over ``os_names`` can observe.

        ``None`` means the whole catalogue (global queries).  Hashed over
        :meth:`filtered_valid`, the configuration's view every query shares.
        Stable across snapshot deltas that do not touch the scope -- the
        property response ETags inherit.  A scope of catalogued OSes hands
        the recipe only the entries set in the OR of its OS masks in the
        view's incidence index, in view order -- the entries the recipe
        would select from the whole view -- so a miss never walks the view.
        A ``None`` scope, or one naming an uncatalogued OS, hashes the whole
        view.
        """
        scope = frozenset(os_names) if os_names is not None else None
        key = (scope, configuration)
        with self._lock:
            if key not in self._scoped:
                view = self.filtered_valid(configuration)
                pool: Sequence[VulnerabilityEntry] = view.entries
                if scope is not None and scope.issubset(view.os_names):
                    index = view.incidence
                    pool = index.decode(index.union_mask(scope))
                self._scoped[key] = scope_digest(pool, scope)
            self._scoped.move_to_end(key)
            while len(self._scoped) > MAX_SCOPE_DIGESTS:
                self._scoped.popitem(last=False)
            return self._scoped[key]

    # -- derived analyses -----------------------------------------------------

    def pair_matrix(
        self, configuration: ServerConfiguration
    ) -> Dict[Tuple[str, str], int]:
        """The full pairwise shared matrix under one configuration."""
        with self._lock:
            if configuration not in self._pair_matrices:
                view = self.filtered_valid(configuration)
                self._pair_matrices[configuration] = view.query_index().pair_matrix(
                    self.os_names
                )
            return self._pair_matrices[configuration]

    def selector(self, configuration: ServerConfiguration) -> ReplicaSetSelector:
        """A replica-set selector over this corpus (pair matrix compiled once)."""
        with self._lock:
            if configuration not in self._selectors:
                self._selectors[configuration] = ReplicaSetSelector(
                    pair_matrix=self.pair_matrix(configuration),
                    candidates=self.os_names,
                )
            return self._selectors[configuration]

    def ksets(self, configuration: ServerConfiguration) -> KSetAnalysis:
        """The k-set analysis under one configuration."""
        with self._lock:
            if configuration not in self._ksets:
                # Compile the view here, under the lock: KSetAnalysis takes
                # the dataset's memoised copy of it.
                self.filtered_valid(configuration)
                self._ksets[configuration] = KSetAnalysis(
                    self.dataset,
                    configuration=configuration,
                    os_names=self.os_names,
                )
            return self._ksets[configuration]

    def shared_count(
        self,
        os_names: Sequence[str],
        configuration: ServerConfiguration = ServerConfiguration.ISOLATED_THIN,
    ) -> int:
        """Vulnerabilities common to every named OS under a configuration."""
        return self.filtered_valid(configuration).shared_count(os_names)


class ArtifactRegistry:
    """Memoizes compiled corpora by dataset digest, one compile per digest.

    ``get(state, provider)`` returns the compiled artifacts for a dataset
    state, building them at most once per digest even under concurrent
    callers: a per-digest lock serialises the build while other digests
    proceed in parallel.  ``compile_count`` is the number of heads loaded
    and compiled from scratch -- the concurrency test drives N identical
    requests through a live server and asserts it stays at one -- and
    ``patched_count`` the number derived from a cached parent.
    """

    def __init__(
        self,
        max_datasets: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if max_datasets < 1:
            raise ValueError("the registry must hold at least one dataset")
        self._max = max_datasets
        self._artifacts: "OrderedDict[str, CorpusArtifacts]" = OrderedDict()
        self._locks: Dict[str, threading.Lock] = {}
        self._mutex = threading.Lock()
        # Tallies live in the (possibly shared) metrics registry; the int
        # properties below keep the original counter attribute API, so
        # /healthz and /metrics report from the same source.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self._clock = clock if clock is not None else CLOCK
        self._events = self._metrics.counter(
            "registry_events_total",
            "Artifact registry compiles, warm hits and incremental patches.",
            labels=("event",),
        )
        self._compile_seconds = self._metrics.histogram(
            "registry_compile_seconds",
            "Wall time of full corpus compiles.",
        )
        self._patch_seconds = self._metrics.histogram(
            "registry_patch_seconds",
            "Wall time of heads derived from a cached parent (ledger decode avoided).",
        )

    @property
    def compile_count(self) -> int:
        return int(self._events.value(event="compile"))

    @property
    def hit_count(self) -> int:
        return int(self._events.value(event="hit"))

    @property
    def patched_count(self) -> int:
        return int(self._events.value(event="patch"))

    def _record_span(self, name: str, started: float, elapsed: float) -> None:
        """Attach a compile/patch span to the active request trace, if any."""
        if self._tracer is None:
            return
        trace = self._tracer.current()
        if trace is not None:
            trace.record(name, started, elapsed)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._artifacts)

    def digests(self) -> List[str]:
        """Digests currently compiled, least recently used first."""
        with self._mutex:
            return list(self._artifacts)

    def get(self, state: DatasetState, provider) -> CorpusArtifacts:
        """The compiled artifacts for ``state``, built once if needed.

        The only place a head is built.  A miss whose snapshot's parent is
        cached derives the head from it (:meth:`patch`, with the one-link
        diff ``provider.diff`` reads); any other miss compiles what
        ``provider.load`` returns.  Either way the per-digest lock is held,
        so concurrent callers wait for the one build and share its object.
        """
        with self._mutex:
            artifacts = self._artifacts.get(state.digest)
            if artifacts is not None:
                self._artifacts.move_to_end(state.digest)
                self._events.inc(event="hit")
                return artifacts
            lock = self._locks.setdefault(state.digest, threading.Lock())
        with lock:
            # Double-checked: another thread may have built the head while
            # this one waited on the per-digest lock.
            with self._mutex:
                artifacts = self._artifacts.get(state.digest)
                if artifacts is not None:
                    self._events.inc(event="hit")
                    return artifacts
                parent = (
                    self._artifacts.get(state.snapshot.parent_digest)
                    if state.snapshot is not None
                    else None
                )
            if parent is not None:
                artifacts = self.patch(
                    parent, state, provider.diff(parent.state, state)
                )
            else:
                started = self._clock.perf()
                artifacts = CorpusArtifacts(provider.load(state), state).compile()
                elapsed = self._clock.perf() - started
                self._compile_seconds.observe(elapsed)
                self._record_span("registry.compile", started, elapsed)
                self._events.inc(event="compile")
            with self._mutex:
                self._artifacts[state.digest] = artifacts
                while len(self._artifacts) > self._max:
                    evicted, _ = self._artifacts.popitem(last=False)
                    self._locks.pop(evicted, None)
            return artifacts

    def patch(
        self,
        parent: CorpusArtifacts,
        state: DatasetState,
        diff: SnapshotDiff,
    ) -> CorpusArtifacts:
        """Derive ``state``'s artifacts from its parent's entries.

        :meth:`SnapshotDiff.apply <repro.snapshots.diff.SnapshotDiff.apply>`
        replays ``diff`` (parent to ``state``) on the parent's entries --
        every unchanged entry object, with its memoised digest, carries
        over -- and the new dataset compiles on the parent's engine, with
        no decode of the ledger.  ``diff.apply`` orders entries as
        ``entries_at`` does, so a derived head and a loaded one are
        identical datasets with identical scoped digests and ETags:
        deriving is a latency optimisation, observable only through
        ``patched_count``.  :meth:`get` calls it under the head's lock and
        registers the result.
        """
        started = self._clock.perf()
        dataset = VulnerabilityDataset(
            diff.apply(parent.dataset.entries),
            parent.dataset.os_names,
            engine=parent.dataset.engine,
            snapshot=state.snapshot,
        )
        patched = CorpusArtifacts(dataset, state).compile()
        elapsed = self._clock.perf() - started
        self._patch_seconds.observe(elapsed)
        self._record_span("registry.patch", started, elapsed)
        self._events.inc(event="patch")
        return patched

    def clear(self) -> None:
        """Drop every compiled dataset (the benchmark's cold-path reset)."""
        with self._mutex:
            self._artifacts.clear()
            self._locks.clear()
