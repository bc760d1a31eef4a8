"""In-memory analytic view over a collection of vulnerability entries.

The dataset is the single entry point for all analyses: it indexes entries by
OS, by year and by server-configuration filter, and exposes the Table I
validity summary.  It never consults the calibration targets -- every number
is computed from the entries it is given.

The shared-vulnerability primitives (``shared_count``, ``shared_between``,
``affecting_at_least``, ``compromising``) are thin façades over one of three
interchangeable engines:

* ``"bitset"`` (default) -- the precompiled incidence-matrix index of
  :mod:`repro.analysis.engine`, which answers intersection queries with
  big-integer AND + popcount and scales to catalogues of hundreds of OSes;
* ``"packed"`` -- the numpy packed-word index
  (:class:`repro.analysis.engine.PackedIndex`): the same incidence matrix
  as ``uint64`` word arrays with vectorised AND + popcount, the fastest
  path for wide pair/k-set workloads;
* ``"naive"`` -- the original per-entry set re-intersection, kept as the
  reference implementation for cross-checking (``--engine naive`` on the
  CLI, and the equivalence test suite).

All engines return identical values in identical order; derived datasets
(``valid()``, ``filtered()``, ``between()``) inherit the engine choice.

``valid()`` and ``filtered(configuration)`` are memoised on the dataset:
the first call builds the view, and every later call -- from any analysis
-- returns that same object, with its compiled index.  Derived views are
therefore shared and read-only: nothing may mutate one, since every holder
of the parent dataset sees it.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.engine import IncidenceIndex, PackedIndex
from repro.classify.filters import ServerConfigurationFilter, ValidityFilter
from repro.core.constants import OS_NAMES
from repro.core.enums import ServerConfiguration, ValidityStatus
from repro.core.models import VulnerabilityEntry

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.snapshots.store import SnapshotRecord

#: Engines understood by :class:`VulnerabilityDataset`.
ENGINES: Tuple[str, ...] = ("bitset", "naive", "packed")


@dataclass(frozen=True)
class ValiditySummary:
    """Per-OS and distinct counts of valid and excluded entries (Table I)."""

    per_os: Mapping[str, Mapping[ValidityStatus, int]]
    distinct: Mapping[ValidityStatus, int]

    def valid_count(self, os_name: str) -> int:
        return self.per_os.get(os_name, {}).get(ValidityStatus.VALID, 0)


class VulnerabilityDataset:
    """A queryable collection of vulnerability entries."""

    def __init__(
        self,
        entries: Iterable[VulnerabilityEntry],
        os_names: Sequence[str] = OS_NAMES,
        engine: str = "bitset",
        snapshot: Optional["SnapshotRecord"] = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self._entries: List[VulnerabilityEntry] = list(entries)
        self._os_names: Tuple[str, ...] = tuple(os_names)
        self._engine = engine
        self._snapshot = snapshot
        self._digest: Optional[str] = None
        self._incidence: Optional[IncidenceIndex] = None
        self._packed: Optional[PackedIndex] = None
        #: Derived views, built on first use: ``None`` keys the valid view,
        #: a configuration its filtered view.
        self._views: Dict[Optional[ServerConfiguration], "VulnerabilityDataset"] = {}
        self._by_os: Dict[str, List[VulnerabilityEntry]] = {name: [] for name in self._os_names}
        for entry in self._entries:
            for name in entry.affected_os:
                if name in self._by_os:
                    self._by_os[name].append(entry)

    # -- basic accessors -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> Sequence[VulnerabilityEntry]:
        return tuple(self._entries)

    @property
    def os_names(self) -> Tuple[str, ...]:
        return self._os_names

    @property
    def engine(self) -> str:
        """The shared-vulnerability engine this dataset routes through."""
        return self._engine

    @property
    def snapshot(self) -> Optional["SnapshotRecord"]:
        """The ledger record this dataset is pinned to, if it came from one.

        Set by :meth:`repro.snapshots.store.SnapshotStore.dataset_at`;
        ``None`` for datasets built directly from entries.  Derived datasets
        (``valid()``, ``filtered()``, ``between()``) are *not* pinned -- they
        no longer hold the snapshot's exact entry set.
        """
        return self._snapshot

    def digest(self) -> str:
        """Content address of this dataset's entry set (computed lazily).

        Equals the owning snapshot's ledger digest when the dataset is an
        unmodified snapshot materialisation, because both are
        :func:`repro.snapshots.digests.dataset_digest` over the same
        normalized entries -- the property that makes exported results
        traceable to an exact dataset state.
        """
        if self._digest is None:
            from repro.snapshots.digests import dataset_digest_of

            self._digest = dataset_digest_of(self._entries)
        return self._digest

    @property
    def incidence(self) -> IncidenceIndex:
        """The bitset incidence index over this dataset (built lazily).

        Available regardless of the configured engine, so callers can always
        reach the fast path (or cross-check it) explicitly.
        """
        if self._incidence is None:
            self._incidence = IncidenceIndex(self._entries, self._os_names)
        return self._incidence

    @property
    def packed(self) -> PackedIndex:
        """The numpy packed-word index over this dataset (built lazily).

        Like :attr:`incidence`, available regardless of the configured
        engine, so the vectorised pair/k-set paths are always reachable.
        """
        if self._packed is None:
            self._packed = PackedIndex(self._entries, self._os_names)
        return self._packed

    def query_index(self):
        """The compiled index the configured engine queries through.

        :class:`~repro.analysis.engine.PackedIndex` for ``engine="packed"``,
        the bitset :class:`~repro.analysis.engine.IncidenceIndex` otherwise
        (including ``"naive"``, whose façades bypass it but whose callers
        may still want the explicit fast path).  Both expose the same query
        API, so engine-aware callers dispatch through this single method.
        """
        if self._engine == "packed":
            return self.packed
        return self.incidence

    def compile(self) -> "VulnerabilityDataset":
        """Build the configured engine's index eagerly and return ``self``.

        The index is otherwise built lazily on first query; long-lived
        callers (the serving layer's artifact registry) call this once at
        registration time so the one-off compile cost never lands inside a
        latency-sensitive request.
        """
        _ = self.query_index()
        return self

    def with_engine(self, engine: str) -> "VulnerabilityDataset":
        """The same dataset routed through a different engine."""
        if engine == self._engine:
            return self
        return VulnerabilityDataset(
            self._entries, self._os_names, engine=engine, snapshot=self._snapshot
        )

    def for_os(self, os_name: str) -> List[VulnerabilityEntry]:
        """All entries affecting the given OS."""
        if os_name not in self._by_os:
            raise KeyError(f"unknown operating system {os_name!r}")
        return list(self._by_os[os_name])

    def valid(self) -> "VulnerabilityDataset":
        """A dataset restricted to valid entries (built once, then shared)."""
        return self._view(None)

    def _view(
        self, configuration: Optional[ServerConfiguration]
    ) -> "VulnerabilityDataset":
        """The memoised derived view: valid entries for ``None``, else the
        entries ``configuration`` admits.  ``setdefault`` keeps the first
        view stored, so threads racing on a first call still share one."""
        view = self._views.get(configuration)
        if view is None:
            if configuration is None:
                entries = [entry for entry in self._entries if entry.is_valid]
            else:
                entries = ServerConfigurationFilter(configuration).apply(self._entries)
            view = self._views.setdefault(
                configuration,
                VulnerabilityDataset(entries, self._os_names, engine=self._engine),
            )
        return view

    # -- validity (Table I) -----------------------------------------------------

    def validity_summary(self) -> ValiditySummary:
        """Per-OS and distinct counts per validity status."""
        per_os: Dict[str, Dict[ValidityStatus, int]] = {
            name: {status: 0 for status in ValidityStatus} for name in self._os_names
        }
        distinct: Dict[ValidityStatus, int] = {status: 0 for status in ValidityStatus}
        for entry in self._entries:
            distinct[entry.validity] += 1
            for name in entry.affected_os:
                if name in per_os:
                    per_os[name][entry.validity] += 1
        return ValiditySummary(per_os=per_os, distinct=distinct)

    def annotate_validity(self, validity_filter: Optional[ValidityFilter] = None) -> "VulnerabilityDataset":
        """Re-derive validity statuses from the description text."""
        validity_filter = validity_filter or ValidityFilter()
        return VulnerabilityDataset(
            validity_filter.annotate(self._entries), self._os_names, engine=self._engine
        )

    # -- filtering ----------------------------------------------------------------

    def filtered(
        self, configuration: ServerConfiguration | ServerConfigurationFilter
    ) -> "VulnerabilityDataset":
        """Dataset restricted to a server configuration (Fat/Thin/Isolated Thin).

        Built once per configuration, then shared; a filter and its
        configuration name the same view.
        """
        if isinstance(configuration, ServerConfigurationFilter):
            configuration = configuration.configuration
        return self._view(configuration)

    def between(self, start: _dt.date, end: _dt.date) -> "VulnerabilityDataset":
        """Dataset restricted to entries published in [start, end]."""
        if start > end:
            raise ValueError("start date must not be after end date")
        return VulnerabilityDataset(
            (entry for entry in self._entries if start <= entry.published <= end),
            self._os_names,
            engine=self._engine,
        )

    def years(self) -> List[int]:
        """Sorted list of publication years present in the dataset."""
        return sorted({entry.year for entry in self._entries})

    # -- shared-vulnerability primitives --------------------------------------------

    def count_for(self, os_name: str) -> int:
        """Number of entries affecting the OS."""
        return len(self._by_os.get(os_name, ()))

    def shared_between(self, os_names: Sequence[str]) -> List[VulnerabilityEntry]:
        """Entries affecting *all* the given OSes (common vulnerabilities)."""
        names = list(os_names)
        if not names:
            return []
        if self._engine != "naive":
            return self.query_index().shared_entries(names)
        smallest = min(names, key=lambda n: len(self._by_os.get(n, ())))
        return [
            entry
            for entry in self._by_os.get(smallest, ())
            if entry.affects_all(names)
        ]

    def shared_count(self, os_names: Sequence[str]) -> int:
        if self._engine != "naive":
            return self.query_index().shared_count(os_names)
        return len(self.shared_between(os_names))

    def affecting_at_least(self, k: int) -> List[VulnerabilityEntry]:
        """Entries affecting at least ``k`` of the catalogued OSes."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if self._engine != "naive":
            return self.query_index().affecting_at_least(k)
        catalog: Set[str] = set(self._os_names)
        return [
            entry
            for entry in self._entries
            if len(entry.affected_os & catalog) >= k
        ]

    def compromising(self, os_names: Sequence[str], threshold: int = 2) -> List[VulnerabilityEntry]:
        """Entries affecting at least ``threshold`` members of a replica group.

        With the default threshold of two this is the notion used by the
        Figure 3 evaluation: a vulnerability "breaks the diversity" of a
        replica group as soon as it is common to two of its members.  For a
        single-OS group every vulnerability of that OS counts.
        """
        names = list(os_names)
        if not names:
            return []
        if len(names) == 1:
            return list(self._by_os.get(names[0], ()))
        # The naive path matches group members against ``entry.affected_os``
        # directly, so names outside the catalogue still count, and a
        # threshold below one admits every entry; the index only scans the
        # group's own entries over catalogued names, hence the guards.
        if (
            self._engine != "naive"
            and threshold >= 1
            and all(name in self._by_os for name in names)
        ):
            return self.query_index().compromising_entries(names, threshold)
        return [
            entry
            for entry in self._entries
            if sum(1 for name in names if entry.affects(name)) >= threshold
        ]
