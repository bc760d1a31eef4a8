"""Snapshot diffs and their analysis blast radius.

A :class:`SnapshotDiff` is the answer to "what changed between two dataset
states, and which analysis results can that change touch?".  Beyond the raw
added/modified/removed CVE id sets it derives:

* :meth:`SnapshotDiff.affected_os_names` -- every OS that gains or loses a
  vulnerability (the union of old *and* new affected-OS sets of every
  changed entry: an entry that *stops* affecting an OS still changes that
  OS's counts);
* :meth:`SnapshotDiff.affected_pairs` / :meth:`SnapshotDiff.affected_ksets`
  -- the OS pairs / k-combinations whose shared counts can move, i.e. those
  drawn from a changed entry's affected-OS sets;
* :meth:`SnapshotDiff.touches_group` -- whether a replica configuration's
  result can differ between the two snapshots, which is exactly the
  predicate the sweep cache's scoped digests and the service's ETags
  enforce mechanically (:func:`repro.snapshots.digests.scope_digest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.models import VulnerabilityEntry
    from repro.snapshots.store import SnapshotRecord


@dataclass(frozen=True)
class SnapshotDiff:
    """Change set between two snapshots, plus its derived blast radius."""

    from_snapshot: "SnapshotRecord"
    to_snapshot: "SnapshotRecord"
    #: CVE ids present only in the target snapshot.
    added: Tuple[str, ...]
    #: CVE ids present in both but with different normalized content.
    modified: Tuple[str, ...]
    #: CVE ids present only in the source snapshot.
    removed: Tuple[str, ...]
    #: Pre-change entries of modified and removed CVEs.
    old_entries: Mapping[str, "VulnerabilityEntry"]
    #: Post-change entries of added and modified CVEs.
    new_entries: Mapping[str, "VulnerabilityEntry"]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.modified or self.removed)

    @property
    def changed(self) -> Tuple[str, ...]:
        """All changed CVE ids (added + modified + removed), sorted."""
        return tuple(sorted({*self.added, *self.modified, *self.removed}))

    # -- blast radius -----------------------------------------------------------

    def _changed_os_sets(self) -> List[FrozenSet[str]]:
        """The affected-OS set of every changed entry, old and new sides."""
        sets: List[FrozenSet[str]] = []
        for entry in self.old_entries.values():
            sets.append(entry.affected_os)
        for entry in self.new_entries.values():
            sets.append(entry.affected_os)
        return sets

    def affected_os_names(self) -> FrozenSet[str]:
        """Every OS whose per-OS counts can differ between the snapshots."""
        names: Set[str] = set()
        for os_set in self._changed_os_sets():
            names.update(os_set)
        return frozenset(names)

    def affected_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """OS pairs whose shared-vulnerability counts can differ.

        Only pairs *within* one changed entry's affected-OS set qualify: a
        shared count moves only when a changed entry covers both members.
        """
        return self.affected_ksets(2)

    def affected_ksets(self, k: int) -> FrozenSet[Tuple[str, ...]]:
        """Sorted k-combinations whose shared counts can differ."""
        if k < 1:
            raise ValueError("k must be at least 1")
        ksets: Set[Tuple[str, ...]] = set()
        for os_set in self._changed_os_sets():
            if len(os_set) < k:
                continue
            ksets.update(combinations(sorted(os_set), k))
        return frozenset(ksets)

    def touches_group(self, os_names: Sequence[str]) -> bool:
        """Whether a replica group's analysis/simulation results can change.

        True when any changed entry affects at least one member of the
        group; a warm sweep only needs to re-run cells for which this holds.
        """
        members = set(os_names)
        return any(os_set & members for os_set in self._changed_os_sets())

    # -- reporting --------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return {
            "added": len(self.added),
            "modified": len(self.modified),
            "removed": len(self.removed),
        }

    def summary(self) -> str:
        """Multi-line human-readable diff summary."""
        lines = [
            f"snapshot #{self.from_snapshot.snapshot_id} "
            f"({self.from_snapshot.short_digest}) -> "
            f"#{self.to_snapshot.snapshot_id} ({self.to_snapshot.short_digest})",
            f"  +{len(self.added)} added, ~{len(self.modified)} modified, "
            f"-{len(self.removed)} removed",
        ]
        affected = sorted(self.affected_os_names())
        if affected:
            lines.append("  affected OSes: " + ", ".join(affected))
            pairs = sorted(self.affected_pairs())
            preview = ", ".join("-".join(pair) for pair in pairs[:6])
            if len(pairs) > 6:
                preview += f", ... ({len(pairs)} total)"
            if pairs:
                lines.append("  affected pairs: " + preview)
        return "\n".join(lines)
