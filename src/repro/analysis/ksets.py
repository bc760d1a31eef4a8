"""Vulnerabilities shared by groups of three or more operating systems.

Section IV-B of the paper extends the pairwise study to larger OS groups and
reports how many vulnerabilities are still common as the group size grows,
naming the three CVEs with the widest reach.  This module provides both
interpretations of that count:

* :meth:`KSetAnalysis.affecting_at_least` -- vulnerabilities affecting at
  least ``k`` of the studied OSes (the most natural reading);
* :meth:`KSetAnalysis.per_combination_totals` -- the number of common
  vulnerabilities summed/maximised over every ``k``-OS combination, which is
  useful when sizing replica groups.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.core.constants import OS_NAMES
from repro.core.enums import ServerConfiguration
from repro.core.models import VulnerabilityEntry

#: Common-vulnerability count per k-OS combination (what
#: :meth:`KSetAnalysis.per_combination_totals` returns).
Totals = Mapping[Tuple[str, ...], int]


def best_of(totals: Totals, top: int) -> List[Tuple[Tuple[str, ...], int]]:
    """The ``top`` combinations with the fewest common vulnerabilities.

    Ties break on the combination itself, so the result equals
    ``sorted(totals.items(), key=lambda item: (item[1], item[0]))[:top]``;
    a bounded heap selection gets there without sorting every combination.
    """
    return heapq.nsmallest(top, totals.items(), key=lambda item: (item[1], item[0]))


def worst_of(totals: Totals, top: int) -> List[Tuple[Tuple[str, ...], int]]:
    """The ``top`` combinations with the most common vulnerabilities.

    The mirror of :func:`best_of` under the ``(-count, combination)`` key.
    """
    return heapq.nsmallest(top, totals.items(), key=lambda item: (-item[1], item[0]))


@dataclass(frozen=True)
class WideVulnerability:
    """A vulnerability together with the number of studied OSes it affects."""

    cve_id: str
    breadth: int
    affected_os: FrozenSet[str]


class KSetAnalysis:
    """Higher-order (k >= 3) shared-vulnerability analysis."""

    def __init__(
        self,
        dataset: VulnerabilityDataset,
        configuration: ServerConfiguration = ServerConfiguration.FAT,
        os_names: Optional[Sequence[str]] = None,
    ) -> None:
        self._os_names: Tuple[str, ...] = tuple(os_names or dataset.os_names or OS_NAMES)
        self._dataset = dataset.valid().filtered(configuration)

    # -- breadth of individual vulnerabilities --------------------------------------

    def breadth_histogram(self) -> Dict[int, int]:
        """Histogram of how many studied OSes each vulnerability affects."""
        histogram: Dict[int, int] = {}
        catalog = set(self._os_names)
        for entry in self._dataset:
            breadth = len(entry.affected_os & catalog)
            if breadth:
                histogram[breadth] = histogram.get(breadth, 0) + 1
        return dict(sorted(histogram.items()))

    def affecting_at_least(self, k: int) -> List[WideVulnerability]:
        """Vulnerabilities affecting at least ``k`` of the studied OSes.

        "Studied" means this analysis's ``os_names``: when they are narrower
        than the dataset's catalogue, breadth is still counted over the
        studied set only.
        """
        catalog = set(self._os_names)
        wide = []
        for entry in self._dataset.affecting_at_least(k):
            affected = frozenset(entry.affected_os & catalog)
            if len(affected) < k:
                continue
            wide.append(
                WideVulnerability(
                    cve_id=entry.cve_id, breadth=len(affected), affected_os=affected
                )
            )
        return sorted(wide, key=lambda w: (-w.breadth, w.cve_id))

    def widest(self, top: int = 3) -> List[WideVulnerability]:
        """The ``top`` vulnerabilities with the widest OS coverage.

        Only vulnerabilities affecting at least **two** of the studied OSes
        qualify (the list is seeded from :meth:`affecting_at_least` with
        ``k=2``), so single-OS entries never appear, even when ``top``
        exceeds the number of multi-OS vulnerabilities.  Ties are broken
        deterministically: decreasing breadth first, then ascending CVE
        identifier.
        """
        return self.affecting_at_least(2)[:top]

    def summary(self, ks: Sequence[int] = (3, 4, 5, 6)) -> Dict[int, int]:
        """Counts of vulnerabilities affecting at least ``k`` OSes, per ``k``."""
        return {k: len(self.affecting_at_least(k)) for k in ks}

    # -- per-combination view ----------------------------------------------------------

    def per_combination_totals(self, k: int) -> Dict[Tuple[str, ...], int]:
        """Common vulnerabilities for every ``k``-OS combination.

        The count for a combination is the number of vulnerabilities that
        affect *all* of its members.  Combinations with zero common
        vulnerabilities are included (they are exactly the candidates for a
        diverse replica group).
        """
        if not 2 <= k <= len(self._os_names):
            raise ValueError(f"k must be between 2 and {len(self._os_names)}")
        if self._dataset.engine != "naive":
            # Depth-first fold-AND with shared prefix intersections.
            return self._dataset.query_index().k_set_totals(self._os_names, k)
        totals: Dict[Tuple[str, ...], int] = {}
        for combo in itertools.combinations(self._os_names, k):
            totals[combo] = self._dataset.shared_count(combo)
        return totals

    def best_combinations(self, k: int, top: int = 5) -> List[Tuple[Tuple[str, ...], int]]:
        """The ``top`` k-OS combinations with the fewest common vulnerabilities."""
        return best_of(self.per_combination_totals(k), top)

    def worst_combinations(self, k: int, top: int = 5) -> List[Tuple[Tuple[str, ...], int]]:
        """The ``top`` k-OS combinations with the most common vulnerabilities."""
        return worst_of(self.per_combination_totals(k), top)

    def combinations_fully_covered(self, k: int) -> int:
        """Number of ``k``-OS combinations with at least one common vulnerability."""
        return sum(1 for count in self.per_combination_totals(k).values() if count > 0)
