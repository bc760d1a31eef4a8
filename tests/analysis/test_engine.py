"""Unit tests for the bitset incidence-matrix engine."""

import itertools

import pytest

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.engine import IncidenceIndex
from repro.core.enums import ServerConfiguration
from tests.conftest import make_entry


@pytest.fixture()
def entries():
    return [
        make_entry(cve_id="CVE-2005-0001", oses=("Debian", "RedHat", "Ubuntu")),
        make_entry(cve_id="CVE-2005-0002", oses=("Debian", "RedHat")),
        make_entry(cve_id="CVE-2005-0003", oses=("OpenBSD",)),
        make_entry(cve_id="CVE-2005-0004", oses=("OpenBSD", "NetBSD", "FreeBSD")),
        make_entry(cve_id="CVE-2005-0005", oses=("Debian",)),
    ]


@pytest.fixture()
def index(entries):
    return IncidenceIndex(entries, ("Debian", "RedHat", "Ubuntu", "OpenBSD", "NetBSD", "FreeBSD"))


class TestMasks:
    def test_os_mask_bits_follow_entry_order(self, index):
        # Debian affects entries 0, 1 and 4.
        assert index.os_mask("Debian") == 0b10011
        assert index.os_mask("OpenBSD") == 0b01100

    def test_unknown_os_has_empty_mask(self, index):
        assert index.os_mask("Windows2000") == 0
        assert index.count_for("Windows2000") == 0

    def test_entry_mask_is_the_dual_view(self, index, entries):
        for position, entry in enumerate(entries):
            row = index.entry_mask(position)
            affected = {
                name
                for bit, name in enumerate(index.os_names)
                if row >> bit & 1
            }
            assert affected == set(entry.affected_os) & set(index.os_names)

    def test_count_for_is_popcount(self, index):
        assert index.count_for("Debian") == 3
        assert index.count_for("Ubuntu") == 1

    def test_len_and_entries(self, index, entries):
        assert len(index) == len(entries)
        assert list(index.entries) == entries


class TestSharedPrimitives:
    def test_shared_count_pairs(self, index):
        assert index.shared_count(("Debian", "RedHat")) == 2
        assert index.shared_count(("Debian", "OpenBSD")) == 0

    def test_shared_count_folds_over_many(self, index):
        assert index.shared_count(("Debian", "RedHat", "Ubuntu")) == 1
        assert index.shared_count(("OpenBSD", "NetBSD", "FreeBSD")) == 1

    def test_shared_count_empty_and_single(self, index):
        assert index.shared_count(()) == 0
        assert index.shared_count(("Debian",)) == 3

    def test_shared_entries_preserve_dataset_order(self, index):
        shared = index.shared_entries(("Debian", "RedHat"))
        assert [entry.cve_id for entry in shared] == ["CVE-2005-0001", "CVE-2005-0002"]

    def test_union_mask_of_no_names_is_empty(self, index):
        assert index.union_mask(()) == 0

    def test_union_mask_ignores_uncatalogued_names(self, index):
        assert index.union_mask(("Windows2000",)) == 0
        assert index.union_mask(("Ubuntu", "Windows2000")) == index.os_mask("Ubuntu")

    def test_union_mask_selects_what_a_per_entry_scan_selects(self, index, entries):
        # Every catalogued scope: the OR of its masks decodes to the entries
        # affecting any of its OSes, in dataset order.
        for size in range(len(index.os_names) + 1):
            for scope in itertools.combinations(index.os_names, size):
                assert index.decode(index.union_mask(scope)) == [
                    entry for entry in entries if entry.affected_os & set(scope)
                ]

    def test_affecting_at_least(self, index):
        assert len(index.affecting_at_least(2)) == 3
        assert [e.cve_id for e in index.affecting_at_least(3)] == [
            "CVE-2005-0001",
            "CVE-2005-0004",
        ]

    def test_breadth_histogram(self, index):
        assert index.breadth_histogram() == {1: 2, 2: 1, 3: 2}


class TestPairAndKSet:
    def test_pair_matrix_matches_pointwise_counts(self, index):
        names = index.os_names
        matrix = index.pair_matrix(names)
        assert len(matrix) == len(names) * (len(names) - 1) // 2
        for (os_a, os_b), count in matrix.items():
            assert count == index.shared_count((os_a, os_b))

    def test_k_set_totals_match_bruteforce(self, index):
        import itertools

        names = index.os_names
        for k in (2, 3, 4):
            totals = index.k_set_totals(names, k)
            expected = {
                combo: index.shared_count(combo)
                for combo in itertools.combinations(names, k)
            }
            assert totals == expected

    def test_k_set_totals_emit_combination_order(self, index):
        import itertools

        names = index.os_names
        totals = index.k_set_totals(names, 3)
        assert list(totals) == list(itertools.combinations(names, 3))

    def test_k_set_totals_rejects_bad_k(self, index):
        with pytest.raises(ValueError):
            index.k_set_totals(index.os_names, 0)
        with pytest.raises(ValueError):
            index.k_set_totals(index.os_names, 99)

    def test_k_set_totals_on_empty_corpus(self):
        index = IncidenceIndex((), ("A", "B", "C"))
        assert index.k_set_totals(("A", "B", "C"), 2) == {
            ("A", "B"): 0,
            ("A", "C"): 0,
            ("B", "C"): 0,
        }


class TestCompromising:
    def test_threshold_two(self, index):
        hit = index.compromising_entries(("Debian", "RedHat", "OpenBSD"))
        assert [e.cve_id for e in hit] == ["CVE-2005-0001", "CVE-2005-0002"]

    def test_threshold_one_is_the_union(self, index):
        hit = index.compromising_entries(("Ubuntu", "NetBSD"), threshold=1)
        assert [e.cve_id for e in hit] == ["CVE-2005-0001", "CVE-2005-0004"]

    def test_duplicates_count_with_multiplicity(self, index):
        # Two Debian replicas: every Debian vulnerability hits both.
        hit = index.compromising_entries(("Debian", "Debian"), threshold=2)
        assert [e.cve_id for e in hit] == [
            "CVE-2005-0001",
            "CVE-2005-0002",
            "CVE-2005-0005",
        ]

    def test_unknown_names_are_ignored(self, index):
        assert index.compromising_entries(("Windows2000", "Windows2003")) == []


class TestDatasetFacade:
    def test_engine_default_and_validation(self, entries):
        assert VulnerabilityDataset(entries).engine == "bitset"
        assert VulnerabilityDataset(entries, engine="naive").engine == "naive"
        with pytest.raises(ValueError):
            VulnerabilityDataset(entries, engine="quantum")

    def test_with_engine_round_trip(self, entries):
        dataset = VulnerabilityDataset(entries)
        assert dataset.with_engine("bitset") is dataset
        naive = dataset.with_engine("naive")
        assert naive.engine == "naive"
        assert naive.shared_count(("Debian", "RedHat")) == dataset.shared_count(
            ("Debian", "RedHat")
        )

    def test_derived_datasets_inherit_engine(self, entries):
        naive = VulnerabilityDataset(entries, engine="naive")
        assert naive.valid().engine == "naive"
        assert naive.filtered(ServerConfiguration.FAT).engine == "naive"
        import datetime as dt

        assert naive.between(dt.date(1994, 1, 1), dt.date(2010, 12, 31)).engine == "naive"

    def test_incidence_is_cached_and_always_available(self, entries):
        naive = VulnerabilityDataset(entries, engine="naive")
        assert naive.incidence is naive.incidence
        assert naive.incidence.shared_count(("Debian", "RedHat")) == 2

    def test_compromising_threshold_zero_matches_naive(self, entries):
        """threshold <= 0 admits every entry on both engines."""
        fast = VulnerabilityDataset(entries)
        naive = VulnerabilityDataset(entries, engine="naive")
        group = ("Debian", "RedHat")
        assert fast.compromising(group, 0) == naive.compromising(group, 0) == entries

    def test_facades_agree_with_naive_on_fixture(self, entries):
        fast = VulnerabilityDataset(entries)
        naive = VulnerabilityDataset(entries, engine="naive")
        for names in (("Debian",), ("Debian", "RedHat"), ("Debian", "OpenBSD", "NetBSD")):
            assert fast.shared_between(names) == naive.shared_between(names)
        for k in (1, 2, 3):
            assert fast.affecting_at_least(k) == naive.affecting_at_least(k)
        group = ("Debian", "RedHat", "OpenBSD")
        assert fast.compromising(group) == naive.compromising(group)


class TestPickling:
    """Compiled engine state must ship cleanly between runner processes."""

    def test_incidence_index_round_trips_through_pickle(self, index, entries):
        import pickle

        clone = pickle.loads(pickle.dumps(index))
        assert clone.os_names == index.os_names
        assert clone.entries == index.entries
        for name in index.os_names:
            assert clone.os_mask(name) == index.os_mask(name)
        for position in range(len(entries)):
            assert clone.entry_mask(position) == index.entry_mask(position)
        assert clone.pair_matrix(("Debian", "RedHat", "OpenBSD")) == index.pair_matrix(
            ("Debian", "RedHat", "OpenBSD")
        )

    def test_replica_incidence_round_trips_through_pickle(self, entries):
        import pickle

        from repro.analysis.engine import ReplicaIncidence

        incidence = ReplicaIncidence(entries, ("Debian", "Debian", "OpenBSD", "RedHat"))
        clone = pickle.loads(pickle.dumps(incidence))
        assert clone.replica_os_names == incidence.replica_os_names
        assert clone.victim_masks == incidence.victim_masks
        assert clone.victim_mask_for(("Debian",)) == incidence.victim_mask_for(("Debian",))

    def test_compromise_simulation_round_trips_through_pickle(self, entries):
        """The compiled pool survives pickling and keeps producing identical results."""
        import pickle

        from repro.itsys.simulation import CompromiseSimulation

        simulation = CompromiseSimulation(entries, seed=11)
        simulation._compiled_pool()  # force compilation before pickling
        clone = pickle.loads(pickle.dumps(simulation))
        group = ("Debian", "RedHat", "OpenBSD", "FreeBSD")
        assert clone.run_configuration(
            "g", group, runs=10, horizon=3.0
        ) == simulation.run_configuration("g", group, runs=10, horizon=3.0)
