"""Tests for the in-memory vulnerability dataset."""

import datetime as dt
import gc
import sys
import threading
import weakref

import pytest

from repro.analysis.dataset import ENGINES, VulnerabilityDataset
from repro.analysis.engine import IncidenceIndex
from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import AccessVector, ComponentClass, ServerConfiguration, ValidityStatus
from repro.reports.experiments import EXPERIMENTS
from tests.conftest import make_entry


@pytest.fixture()
def small_dataset():
    entries = [
        make_entry(cve_id="CVE-2000-0001", oses=("Debian",), year=2000,
                   component_class=ComponentClass.KERNEL),
        make_entry(cve_id="CVE-2004-0002", oses=("Debian", "RedHat"), year=2004,
                   component_class=ComponentClass.APPLICATION),
        make_entry(cve_id="CVE-2007-0003", oses=("Debian", "RedHat", "OpenBSD"), year=2007,
                   component_class=ComponentClass.SYSTEM_SOFTWARE, access=AccessVector.LOCAL),
        make_entry(cve_id="CVE-2008-0004", oses=("Windows2000",), year=2008,
                   component_class=ComponentClass.KERNEL),
        make_entry(cve_id="CVE-2009-0005", oses=("Solaris",), year=2009,
                   validity=ValidityStatus.UNSPECIFIED, component_class=None),
    ]
    return VulnerabilityDataset(entries)


class TestBasics:
    def test_len_and_iteration(self, small_dataset):
        assert len(small_dataset) == 5
        assert len(list(small_dataset)) == 5

    def test_for_os(self, small_dataset):
        assert len(small_dataset.for_os("Debian")) == 3
        assert len(small_dataset.for_os("Windows2000")) == 1

    def test_for_os_unknown_raises(self, small_dataset):
        with pytest.raises(KeyError):
            small_dataset.for_os("TempleOS")

    def test_valid_excludes_non_valid(self, small_dataset):
        assert len(small_dataset.valid()) == 4

    def test_count_for(self, small_dataset):
        assert small_dataset.count_for("RedHat") == 2

    def test_years(self, small_dataset):
        assert small_dataset.years() == [2000, 2004, 2007, 2008, 2009]


class TestValiditySummary:
    def test_distinct_counts(self, small_dataset):
        summary = small_dataset.validity_summary()
        assert summary.distinct[ValidityStatus.VALID] == 4
        assert summary.distinct[ValidityStatus.UNSPECIFIED] == 1

    def test_per_os_counts(self, small_dataset):
        summary = small_dataset.validity_summary()
        assert summary.valid_count("Debian") == 3
        assert summary.per_os["Solaris"][ValidityStatus.UNSPECIFIED] == 1

    def test_annotate_validity_rederives_from_text(self):
        entries = [make_entry(summary="Unspecified vulnerability in the base system.")]
        dataset = VulnerabilityDataset(entries).annotate_validity()
        assert dataset.validity_summary().distinct[ValidityStatus.UNSPECIFIED] == 1


class TestFiltering:
    def test_filtered_by_configuration(self, small_dataset):
        fat = small_dataset.filtered(ServerConfiguration.FAT)
        thin = small_dataset.filtered(ServerConfiguration.THIN)
        isolated = small_dataset.filtered(ServerConfiguration.ISOLATED_THIN)
        assert len(fat) == 4
        assert len(thin) == 3           # drops the application entry
        assert len(isolated) == 2       # additionally drops the local entry

    def test_between(self, small_dataset):
        subset = small_dataset.between(dt.date(2004, 1, 1), dt.date(2008, 12, 31))
        assert len(subset) == 3

    def test_between_rejects_inverted_range(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.between(dt.date(2010, 1, 1), dt.date(2000, 1, 1))


class TestDerivedViews:
    """``valid()`` and ``filtered()`` build each view once, then share it."""

    def test_repeat_calls_return_the_same_view(self, small_dataset):
        assert small_dataset.valid() is small_dataset.valid()
        for configuration in ServerConfiguration:
            view = small_dataset.filtered(configuration)
            assert small_dataset.filtered(configuration) is view
            assert (
                small_dataset.filtered(ServerConfigurationFilter(configuration))
                is view
            )

    def test_a_filter_first_builds_its_configurations_view(self, small_dataset):
        thin = small_dataset.filtered(
            ServerConfigurationFilter(ServerConfiguration.THIN)
        )
        assert small_dataset.filtered(ServerConfiguration.THIN) is thin

    @pytest.mark.parametrize("engine", ENGINES)
    def test_views_equal_a_fresh_filter_entry_for_entry(self, corpus, engine):
        """One view per configuration, whichever dataset asks for it; a
        derived view is its own valid view."""
        dataset = VulnerabilityDataset(corpus.entries, engine=engine)
        valid = dataset.valid()
        expected = [entry for entry in corpus.entries if entry.is_valid]
        assert len(valid) == len(expected)
        assert all(got is want for got, want in zip(valid, expected))
        assert valid.engine == engine
        assert valid.valid() is valid
        for configuration in ServerConfiguration:
            admits = ServerConfigurationFilter(configuration).admits
            assert dataset.filtered(configuration) is valid.filtered(configuration)
            for parent in (dataset, valid):
                view = parent.filtered(configuration)
                expected = [entry for entry in parent if admits(entry)]
                assert len(view) == len(expected)
                assert all(got is want for got, want in zip(view, expected))
                assert view.engine == engine
                assert view.os_names == dataset.os_names
                assert view.valid() is view

    def test_threads_racing_on_first_calls_share_one_view(self, corpus):
        """A lost update would hand racing threads different views."""
        dataset = VulnerabilityDataset(corpus.entries)
        workers = 8
        barrier = threading.Barrier(workers)
        seen = [[] for _ in range(workers)]

        def derive(slot):
            barrier.wait(timeout=10)
            seen[slot].append(dataset.valid())
            seen[slot].extend(dataset.filtered(c) for c in ServerConfiguration)

        threads = [
            threading.Thread(target=derive, args=(slot,)) for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        first = seen[0]
        assert len(first) == 1 + len(ServerConfiguration)
        for views in seen[1:]:
            assert len(views) == len(first)
            assert all(view is shared for view, shared in zip(views, first))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_dropped_dataset_is_freed_without_the_cyclic_collector(
        self, corpus, engine
    ):
        """Views hold no reference back to their dataset or to themselves."""
        dataset = VulnerabilityDataset(corpus.entries, engine=engine)
        views = [dataset.valid(), *(dataset.filtered(c) for c in ServerConfiguration)]
        for view in views:
            view.compile()
        refs = [weakref.ref(dataset), *(weakref.ref(view) for view in views)]
        gc.disable()
        try:
            del dataset, views, view
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_runner_and_simulation_filter_nothing_over_built_views(
        self, corpus, monkeypatch
    ):
        """A sweep and a campaign take their pool from the shared view."""
        from repro.itsys.simulation import CompromiseSimulation
        from repro.runner import ExperimentGrid, GridRunner

        dataset = VulnerabilityDataset(corpus.entries)
        for configuration in ServerConfiguration:
            dataset.filtered(configuration)
        calls = []
        admits = ServerConfigurationFilter.admits

        def counting_admits(self, entry):
            calls.append(entry)
            return admits(self, entry)

        monkeypatch.setattr(ServerConfigurationFilter, "admits", counting_admits)
        grid = ExperimentGrid(
            configurations={
                "homogeneous-Debian": ("Debian",) * 4,
                "Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD"),
            },
            recovery_intervals=(None, 2.0),
            runs=5,
        )
        for configuration in ServerConfiguration:
            report = GridRunner.for_dataset(
                dataset, seed=3, configuration=configuration
            ).run(grid)
            assert report.simulated_cells == len(grid)
            for source in (dataset, dataset.valid()):
                simulation = CompromiseSimulation(source, configuration=configuration)
                simulation.run_configuration("Set1", ("Debian", "OpenBSD"), runs=5)
                simulation.single_exploit_analysis("Set1", ("Debian", "OpenBSD"))
        assert calls == []

    def test_an_experiments_pass_compiles_each_view_once(self, corpus, monkeypatch):
        """Every analysis of one pass shares one view and its index."""
        built = []
        original = IncidenceIndex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(IncidenceIndex, "__init__", counting_init)
        dataset = VulnerabilityDataset(corpus.entries)
        for experiment in EXPERIMENTS.values():
            experiment.run(dataset)
        assert len(built) == 13


class TestSharedPrimitives:
    def test_shared_between(self, small_dataset):
        shared = small_dataset.shared_between(("Debian", "RedHat"))
        assert {e.cve_id for e in shared} == {"CVE-2004-0002", "CVE-2007-0003"}

    def test_shared_count_triple(self, small_dataset):
        assert small_dataset.shared_count(("Debian", "RedHat", "OpenBSD")) == 1

    def test_shared_between_empty_input(self, small_dataset):
        assert small_dataset.shared_between(()) == []

    def test_affecting_at_least(self, small_dataset):
        assert len(small_dataset.affecting_at_least(2)) == 2
        assert len(small_dataset.affecting_at_least(3)) == 1

    def test_affecting_at_least_rejects_zero(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.affecting_at_least(0)

    def test_compromising_single_os_group(self, small_dataset):
        assert len(small_dataset.compromising(("Debian",))) == 3

    def test_compromising_diverse_group_requires_two_members(self, small_dataset):
        compromising = small_dataset.compromising(("Debian", "Windows2000"))
        assert compromising == []
        compromising = small_dataset.compromising(("Debian", "RedHat"))
        assert {e.cve_id for e in compromising} == {"CVE-2004-0002", "CVE-2007-0003"}

    def test_compromising_custom_threshold(self, small_dataset):
        group = ("Debian", "RedHat", "OpenBSD")
        assert len(small_dataset.compromising(group, threshold=3)) == 1


class TestCorpusLevelInvariants:
    def test_shared_is_symmetric_on_corpus(self, valid_dataset):
        assert valid_dataset.shared_count(("Debian", "RedHat")) == \
            valid_dataset.shared_count(("RedHat", "Debian"))

    def test_shared_monotone_under_filtering(self, valid_dataset):
        fat = valid_dataset.filtered(ServerConfiguration.FAT)
        isolated = valid_dataset.filtered(ServerConfiguration.ISOLATED_THIN)
        for pair in (("Debian", "RedHat"), ("Windows2000", "Windows2003"), ("OpenBSD", "NetBSD")):
            assert fat.shared_count(pair) >= isolated.shared_count(pair)

    def test_shared_never_exceeds_individual_counts(self, valid_dataset):
        for pair in (("Debian", "RedHat"), ("OpenBSD", "FreeBSD")):
            shared = valid_dataset.shared_count(pair)
            assert shared <= min(valid_dataset.count_for(pair[0]),
                                 valid_dataset.count_for(pair[1]))
