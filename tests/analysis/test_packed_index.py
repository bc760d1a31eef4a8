"""Unit tests for the numpy packed-word engine (:class:`PackedIndex`).

The cross-engine behaviour is pinned by ``test_engine_equivalence.py``;
this file covers the packed-specific machinery: word packing and popcounts
(including the pre-numpy-2.0 ``unpackbits`` fallback), pickling for the
process-pool runner, the array APIs and the dense-count fallbacks.
"""

import pickle

import numpy as np
import pytest

import repro.analysis.engine as engine_module
from repro.analysis.engine import PackedIndex, pack_bool_matrix, word_popcounts
from tests.conftest import make_entry

CATALOGUE = ("Debian", "RedHat", "Ubuntu", "OpenBSD", "NetBSD", "FreeBSD")


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
    return PackedIndex(entries, CATALOGUE)


class TestWordPacking:
    def test_rows_follow_little_endian_bit_order(self, index):
        # Debian affects entries 0, 1 and 4 -> bits 0, 1 and 4 of word 0.
        assert int(index.os_row("Debian")[0]) == 0b10011
        assert int(index.os_row("OpenBSD")[0]) == 0b01100
        assert index.words_per_row == 1

    def test_unknown_os_resolves_to_zero_row(self, index):
        assert not index.os_row("Windows2000").any()
        assert index.count_for("Windows2000") == 0

    def test_padding_bits_are_zero(self):
        matrix = np.ones((2, 65), dtype=bool)
        packed = pack_bool_matrix(matrix)
        assert packed.shape == (2, 2)
        assert int(word_popcounts(packed).sum()) == 130

    @pytest.mark.parametrize("columns", (0, 1, 63, 64, 65, 200))
    def test_pack_round_trips_random_matrices(self, columns):
        rng = np.random.default_rng(columns)
        matrix = rng.random((5, columns)) < 0.4
        packed = pack_bool_matrix(matrix)
        assert packed.shape == (5, (columns + 63) // 64)
        assert word_popcounts(packed).sum() == matrix.sum()

    def test_unpackbits_fallback_matches_bitwise_count(self, monkeypatch, index):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**63, size=(4, 9), dtype=np.uint64)
        fast = word_popcounts(words)
        monkeypatch.setattr(engine_module, "_HAS_BITWISE_COUNT", False)
        slow = word_popcounts(words)
        assert np.array_equal(fast, slow)
        # Whole queries keep working on the fallback path too.
        assert index.shared_count(("Debian", "RedHat")) == 2
        assert index.pair_matrix(CATALOGUE) == PackedIndex(
            index.entries, CATALOGUE
        ).pair_matrix(CATALOGUE)


class TestPickling:
    """Packed state must ship cleanly between runner processes."""

    def test_round_trips_through_pickle(self, index, entries):
        clone = pickle.loads(pickle.dumps(index))
        assert clone.os_names == index.os_names
        assert clone.entries == index.entries
        assert np.array_equal(clone._bool, index._bool)
        assert np.array_equal(clone._rows, index._rows)
        assert clone.pair_matrix(CATALOGUE) == index.pair_matrix(CATALOGUE)
        assert clone.k_set_totals(CATALOGUE, 3) == index.k_set_totals(CATALOGUE, 3)

    def test_empty_index_round_trips(self):
        clone = pickle.loads(pickle.dumps(PackedIndex([], CATALOGUE)))
        assert len(clone) == 0
        assert clone.shared_count(("Debian", "RedHat")) == 0

    def test_packed_dataset_round_trips(self, entries):
        from repro.analysis.dataset import VulnerabilityDataset

        dataset = VulnerabilityDataset(entries, CATALOGUE, engine="packed").compile()
        clone = pickle.loads(pickle.dumps(dataset))
        assert clone.engine == "packed"
        assert clone.shared_between(("Debian", "RedHat")) == dataset.shared_between(
            ("Debian", "RedHat")
        )


class TestArrayApis:
    """The array-shaped counterparts of pair_matrix / k_set_totals."""

    def test_pair_count_matrix_mirrors_the_pair_dict(self, index):
        names = ("Debian", "RedHat", "OpenBSD", "Windows2000")
        counts = index.pair_count_matrix(names)
        pairs = index.pair_matrix(names)
        assert counts.shape == (4, 4)
        assert np.array_equal(counts, counts.T)
        for row, a in enumerate(names):
            for column, b in enumerate(names):
                if row < column:
                    assert counts[row, column] == pairs[(a, b)]
        # Unknown names occupy all-zero rows and columns.
        assert not counts[3].any() and not counts[:, 3].any()
        # The diagonal carries the per-OS totals.
        assert counts[0, 0] == index.count_for("Debian")

    def test_k_set_counts_mirrors_the_totals_dict(self, index):
        counts = index.k_set_counts(CATALOGUE, 3)
        totals = index.k_set_totals(CATALOGUE, 3)
        assert np.array_equal(counts, np.fromiter(totals.values(), dtype=np.int64))

    @pytest.mark.parametrize("k", (0, 7))
    def test_out_of_range_k_raises_like_the_bitset_engine(self, index, k):
        with pytest.raises(ValueError, match="k must be between 1 and 6"):
            index.k_set_counts(CATALOGUE, k)


class TestDenseFallbacks:
    """Above the combination cap the k-set path folds depth-first instead."""

    def test_dfs_fallback_matches_the_dense_counts(self, index, monkeypatch):
        dense = index.k_set_totals(CATALOGUE, 3)
        monkeypatch.setattr(engine_module, "_DENSE_COMBO_CAP", 1)
        assert index.k_set_totals(CATALOGUE, 3) == dense
        assert np.array_equal(
            index.k_set_counts(CATALOGUE, 3),
            np.fromiter(dense.values(), dtype=np.int64),
        )

    def test_combination_counts_respects_the_cap(self, index):
        over = engine_module.combination_counts(
            index._rows, len(index.entries), 2, cap=1
        )
        assert over is None
        exact = engine_module.combination_counts(index._rows, len(index.entries), 2)
        assert exact is not None and exact.sum() > 0

    @pytest.mark.parametrize("m,k", ((5, 0), (3, 4), (0, 1)))
    def test_combination_index_array_degenerate_shapes(self, m, k):
        combos = engine_module.combination_index_array(m, k)
        assert combos.shape[0] == 0
