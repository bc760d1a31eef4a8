"""Tests for the temporal analysis (Figure 2) and the k-set study (Section IV-B)."""

import pytest

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.ksets import KSetAnalysis, best_of, worst_of
from repro.analysis.temporal import TemporalAnalysis
from repro.core.enums import ComponentClass, OSFamily, ServerConfiguration
from tests.conftest import make_entry


@pytest.fixture()
def temporal_dataset():
    entries = [
        make_entry(cve_id="CVE-2000-0001", oses=("Debian",), year=2000),
        make_entry(cve_id="CVE-2000-0002", oses=("Debian",), year=2000),
        make_entry(cve_id="CVE-2001-0003", oses=("Debian", "RedHat"), year=2001),
        make_entry(cve_id="CVE-2003-0004", oses=("RedHat",), year=2003),
        make_entry(cve_id="CVE-2007-0005", oses=("Debian",), year=2007),
    ]
    return VulnerabilityDataset(entries)


class TestTemporal:
    def test_series_for_counts_per_year(self, temporal_dataset):
        analysis = TemporalAnalysis(temporal_dataset, 2000, 2007)
        series = analysis.series_for("Debian")
        assert series[2000] == 2
        assert series[2001] == 1
        assert series[2002] == 0
        assert series[2007] == 1

    def test_years_span(self, temporal_dataset):
        analysis = TemporalAnalysis(temporal_dataset, 2000, 2005)
        assert analysis.years == list(range(2000, 2006))

    def test_invalid_year_range_rejected(self, temporal_dataset):
        with pytest.raises(ValueError):
            TemporalAnalysis(temporal_dataset, 2010, 2000)

    def test_family_panels_cover_all_four_families(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        panels = analysis.family_panels()
        assert set(panels) == set(OSFamily)
        assert set(panels[OSFamily.WINDOWS]) == {"Windows2000", "Windows2003", "Windows2008"}

    def test_family_totals_sum_of_members(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        totals = analysis.family_totals()
        panels = analysis.family_panels()
        for family in OSFamily:
            for year in analysis.years:
                assert totals[family][year] == sum(
                    series[year] for series in panels[family].values()
                )

    def test_series_sums_to_os_total(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        assert sum(analysis.series_for("Solaris").values()) == valid_dataset.count_for("Solaris")

    def test_recent_oses_have_no_early_vulnerabilities(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        win2008 = analysis.series_for("Windows2008")
        assert all(win2008[year] == 0 for year in range(1994, 2007))
        opensolaris = analysis.series_for("OpenSolaris")
        assert all(opensolaris[year] == 0 for year in range(1994, 2007))

    def test_recent_vs_past_decline_for_bsd(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        past, recent = analysis.recent_vs_past("OpenBSD")
        assert past > recent  # the paper notes fewer reports in the last 5 years

    def test_windows_family_correlation_positive(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        assert analysis.intra_family_correlation(OSFamily.WINDOWS) > 0.0

    def test_win2000_entries_before_release(self, valid_dataset):
        analysis = TemporalAnalysis(valid_dataset, 1994, 2010)
        early = analysis.entries_before_release("Windows2000")
        assert 1 <= len(early) <= 10


class TestKSets:
    @pytest.fixture()
    def kset_dataset(self):
        entries = [
            make_entry(cve_id="CVE-2005-0001", oses=("Debian", "RedHat", "Ubuntu")),
            make_entry(cve_id="CVE-2005-0002", oses=("Debian", "RedHat")),
            make_entry(cve_id="CVE-2005-0003", oses=("OpenBSD",)),
            make_entry(cve_id="CVE-2005-0004",
                       oses=("OpenBSD", "NetBSD", "FreeBSD", "Solaris")),
        ]
        return VulnerabilityDataset(entries)

    def test_breadth_histogram(self, kset_dataset):
        histogram = KSetAnalysis(kset_dataset).breadth_histogram()
        assert histogram == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_affecting_at_least(self, kset_dataset):
        analysis = KSetAnalysis(kset_dataset)
        assert len(analysis.affecting_at_least(3)) == 2
        assert analysis.affecting_at_least(4)[0].cve_id == "CVE-2005-0004"

    def test_widest(self, kset_dataset):
        widest = KSetAnalysis(kset_dataset).widest(2)
        assert [w.cve_id for w in widest] == ["CVE-2005-0004", "CVE-2005-0001"]

    def test_widest_floors_at_two_oses(self, kset_dataset):
        """widest() seeds from affecting_at_least(2): single-OS entries never
        appear, even when ``top`` exceeds the number of multi-OS entries."""
        widest = KSetAnalysis(kset_dataset).widest(top=10)
        assert [w.cve_id for w in widest] == [
            "CVE-2005-0004",
            "CVE-2005-0001",
            "CVE-2005-0002",
        ]
        assert all(w.breadth >= 2 for w in widest)
        # CVE-2005-0003 affects only OpenBSD and must stay out.
        assert "CVE-2005-0003" not in {w.cve_id for w in widest}

    def test_widest_floor_honours_custom_os_names(self):
        """With a narrower studied set, breadth is floored over that set."""
        entries = [
            make_entry(cve_id="CVE-2005-0001", oses=("OpenBSD", "NetBSD")),
            make_entry(cve_id="CVE-2005-0002", oses=("Debian", "RedHat")),
            make_entry(cve_id="CVE-2005-0003", oses=("Debian", "OpenBSD")),
        ]
        dataset = VulnerabilityDataset(entries)
        analysis = KSetAnalysis(dataset, os_names=("Debian", "RedHat"))
        widest = analysis.widest(top=5)
        # Only the entry affecting two *studied* OSes qualifies; the others
        # have breadth <= 1 over {Debian, RedHat} despite dataset breadth 2.
        assert [w.cve_id for w in widest] == ["CVE-2005-0002"]
        assert all(w.breadth >= 2 for w in widest)

    def test_widest_tie_breaking_order(self):
        """Equal-breadth entries are ordered by ascending CVE identifier."""
        entries = [
            make_entry(cve_id="CVE-2005-0009", oses=("Debian", "RedHat")),
            make_entry(cve_id="CVE-2005-0001", oses=("OpenBSD", "NetBSD")),
            make_entry(cve_id="CVE-2004-0005", oses=("Ubuntu", "Solaris")),
            make_entry(cve_id="CVE-2006-0002",
                       oses=("Debian", "RedHat", "Ubuntu")),
        ]
        widest = KSetAnalysis(VulnerabilityDataset(entries)).widest(top=4)
        assert [w.cve_id for w in widest] == [
            "CVE-2006-0002",   # breadth 3 first
            "CVE-2004-0005",   # then breadth 2, by CVE id
            "CVE-2005-0001",
            "CVE-2005-0009",
        ]

    def test_summary_is_monotone(self, valid_dataset):
        summary = KSetAnalysis(valid_dataset).summary((2, 3, 4, 5, 6))
        values = list(summary.values())
        assert values == sorted(values, reverse=True)

    def test_per_combination_totals(self, kset_dataset):
        analysis = KSetAnalysis(kset_dataset)
        totals = analysis.per_combination_totals(3)
        assert totals[("Debian", "Ubuntu", "RedHat")] == 1
        assert totals[("OpenBSD", "NetBSD", "FreeBSD")] == 1

    def test_per_combination_rejects_bad_k(self, kset_dataset):
        analysis = KSetAnalysis(kset_dataset)
        with pytest.raises(ValueError):
            analysis.per_combination_totals(1)
        with pytest.raises(ValueError):
            analysis.per_combination_totals(99)

    def test_best_and_worst_combinations(self, valid_dataset):
        analysis = KSetAnalysis(valid_dataset, ServerConfiguration.ISOLATED_THIN)
        best = analysis.best_combinations(4, top=3)
        worst = analysis.worst_combinations(4, top=1)
        assert best[0][1] <= best[-1][1]
        assert worst[0][1] >= best[0][1]
        # There is at least one four-OS combination with no vulnerability
        # common to all four members, while the worst combination (same-family
        # heavy) still has several.
        assert best[0][1] == 0
        assert worst[0][1] >= 2
        from repro.core.constants import family_of

        families = {family_of(name) for name in worst[0][0]}
        assert len(families) < 4

    def test_best_and_worst_break_ties_on_the_combination(self):
        totals = {("c", "d"): 1, ("a", "b"): 1, ("b", "c"): 0, ("a", "c"): 2}
        assert best_of(totals, 3) == [(("b", "c"), 0), (("a", "b"), 1), (("c", "d"), 1)]
        assert worst_of(totals, 3) == [(("a", "c"), 2), (("a", "b"), 1), (("c", "d"), 1)]

    def test_a_top_past_the_space_returns_every_combination(self, kset_dataset):
        totals = KSetAnalysis(kset_dataset).per_combination_totals(3)
        best = best_of(totals, len(totals) + 10)
        worst = worst_of(totals, len(totals) + 10)
        assert len(best) == len(worst) == len(totals)
        assert best == sorted(totals.items(), key=lambda item: (item[1], item[0]))
        assert worst == sorted(totals.items(), key=lambda item: (-item[1], item[0]))

    def test_special_cves_are_the_widest_on_corpus(self, valid_dataset):
        widest = KSetAnalysis(valid_dataset).widest(3)
        cve_ids = {w.cve_id for w in widest}
        assert "CVE-2008-1447" in cve_ids
        assert "CVE-2007-5365" in cve_ids

    def test_combinations_fully_covered(self, kset_dataset):
        analysis = KSetAnalysis(kset_dataset)
        assert analysis.combinations_fully_covered(4) == 1
