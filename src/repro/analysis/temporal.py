"""Temporal distribution of vulnerability publications (Figure 2).

Produces per-OS yearly series, grouped by family panel exactly as in the
figure, plus the correlation analysis the paper uses to argue that peaks and
valleys coincide within the Windows and Linux families.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dataset import VulnerabilityDataset
from repro.core.constants import FAMILY_MEMBERS, OS_NAMES, STUDY_PERIOD
from repro.core.enums import OSFamily


class TemporalAnalysis:
    """Yearly vulnerability-count series per OS and per family."""

    def __init__(
        self,
        dataset: VulnerabilityDataset,
        first_year: Optional[int] = None,
        last_year: Optional[int] = None,
    ) -> None:
        self._dataset = dataset.valid()
        years = self._dataset.years()
        self._first_year = first_year if first_year is not None else (
            min(years) if years else STUDY_PERIOD[0].year
        )
        self._last_year = last_year if last_year is not None else (
            max(years) if years else STUDY_PERIOD[1].year
        )
        if self._first_year > self._last_year:
            raise ValueError("first_year must not be after last_year")

    # -- series -------------------------------------------------------------

    @property
    def years(self) -> List[int]:
        return list(range(self._first_year, self._last_year + 1))

    def series_for(self, os_name: str) -> Dict[int, int]:
        """Vulnerabilities published per year for one OS."""
        series = {year: 0 for year in self.years}
        for entry in self._dataset.for_os(os_name):
            if self._first_year <= entry.year <= self._last_year:
                series[entry.year] += 1
        return series

    def all_series(self, os_names: Sequence[str] = OS_NAMES) -> Dict[str, Dict[int, int]]:
        return {name: self.series_for(name) for name in os_names}

    def family_panels(self) -> Dict[OSFamily, Dict[str, Dict[int, int]]]:
        """The four panels of Figure 2: per-family, per-OS yearly series."""
        return {
            family: {name: self.series_for(name) for name in members}
            for family, members in FAMILY_MEMBERS.items()
        }

    def family_totals(self) -> Dict[OSFamily, Dict[int, int]]:
        """Total vulnerabilities per family per year."""
        totals: Dict[OSFamily, Dict[int, int]] = {}
        for family, panel in self.family_panels().items():
            family_series = {year: 0 for year in self.years}
            for series in panel.values():
                for year, count in series.items():
                    family_series[year] += count
            totals[family] = family_series
        return totals

    # -- derived observations -----------------------------------------------------

    def intra_family_correlation(self, family: OSFamily) -> float:
        """Mean pairwise Pearson correlation of yearly series within a family.

        The paper observes a strong correlation of peaks and valleys within
        the Windows and Linux families; this statistic quantifies it.  Only
        years where both OSes already existed are compared, and pairs without
        variance return 0.0.
        """
        members = FAMILY_MEMBERS[family]
        series = {name: self.series_for(name) for name in members}
        correlations: List[float] = []
        for i, name_a in enumerate(members):
            for name_b in members[i + 1:]:
                pairs = [
                    (series[name_a][year], series[name_b][year])
                    for year in self.years
                    if series[name_a][year] or series[name_b][year]
                ]
                if len(pairs) < 3:
                    continue
                a, b = zip(*pairs)
                if len(set(a)) == 1 or len(set(b)) == 1:
                    correlations.append(0.0)
                    continue
                correlations.append(statistics.correlation(a, b))
        if not correlations:
            return 0.0
        return statistics.fmean(correlations)

    def recent_vs_past(
        self, os_name: str, split_year: int = 2006
    ) -> Tuple[float, float]:
        """Average yearly count before and from ``split_year`` (recent-decline check)."""
        series = self.series_for(os_name)
        past = [count for year, count in series.items() if year < split_year]
        recent = [count for year, count in series.items() if year >= split_year]
        past_avg = statistics.fmean(past) if past else 0.0
        recent_avg = statistics.fmean(recent) if recent else 0.0
        return past_avg, recent_avg

    def entries_before_release(self, os_name: str) -> List[str]:
        """CVE ids published before the OS's first release year.

        Reproduces the paper's observation that Windows 2000 appears in seven
        entries published before 1999 (vulnerabilities inherited from Windows
        NT code).
        """
        from repro.core.constants import get_os

        first_year = get_os(os_name).first_release_year
        return [
            entry.cve_id
            for entry in self._dataset.for_os(os_name)
            if entry.year < first_year
        ]
