"""Bitset incidence-matrix engine for shared-vulnerability analytics.

The naive analyses re-intersect Python sets per entry and per OS combination,
which is fine for the paper's 11 OSes but collapses combinatorially on larger
catalogues (a 100-OS catalogue has ~3.9 million 4-OS combinations).  This
module compiles a dataset once into two dual bitset views:

* an **OS mask** per operating system: an arbitrary-precision integer whose
  bit ``e`` is set when entry ``e`` affects that OS (a column of the
  OS x vulnerability incidence matrix);
* an **entry mask** per vulnerability: an integer whose bit ``o`` is set when
  the entry affects OS number ``o`` (the matching row).

With those in hand the core primitives become single machine-level
operations on big integers:

* ``shared_count(oses)``  -> ``popcount(AND over the OS masks)``;
* the entries an OS group can observe -> the set bits of the OR over its
  OS masks (``union_mask``), in dataset order;
* ``affecting_at_least(k)`` -> ``popcount(entry mask) >= k``;
* the Table III pair matrix -> one AND + popcount per pair;
* ``per_combination_totals(k)`` -> a depth-first fold-AND over the catalogue
  whose partial ANDs are shared between all combinations with a common
  prefix, with an early exit once a partial intersection is empty.

CPython's ``int`` stores 30 bits per digit and ``int.bit_count`` runs in C,
so each AND/popcount over a few-thousand-entry corpus touches only a few
hundred machine words -- near memory bandwidth, no per-entry Python
bytecode.

:class:`repro.analysis.dataset.VulnerabilityDataset` builds an
:class:`IncidenceIndex` lazily and routes its shared-vulnerability
primitives through it by default (``engine="bitset"``); the pre-engine
implementations remain available via ``engine="naive"`` for cross-checking
(see ``tests/analysis/test_engine_equivalence.py`` and the CLI's
``--engine`` flag).

A third engine, :class:`PackedIndex` (``engine="packed"``), stores the same
incidence matrix as numpy ``uint64`` word arrays (vectorised AND +
popcount for intersections) and answers whole pair/k-set workloads by
*column walking*: every entry contributes one count to each ``k``
-combination of the OSes it affects, binned in C with
:func:`combination_counts`, so catalogue-wide matrices cost work
proportional to the set bits rather than to combinations x entries.  All
three engines return identical values in identical order.

Only the packed engine uses numpy, so each function and method that does
imports it in its body: importing this module, or building and querying
the bitset index, does not load numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.models import VulnerabilityEntry

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import numpy as np

Pair = Tuple[str, str]

#: Whether :func:`word_popcounts` may use ``np.bitwise_count``, which landed
#: in numpy 2.0; ``None`` asks numpy on each call, so importing this module
#: does not load it.  Without it, popcounts fall back to ``unpackbits`` (same
#: values, one extra expansion pass).
_HAS_BITWISE_COUNT: Optional[bool] = None

#: Ceiling on the combination space (``C(m, k)`` ranks) and on the total
#: combination codes a sparse k-set count may materialise before
#: :meth:`PackedIndex.k_set_totals` falls back to the depth-first fold.
_DENSE_COMBO_CAP = 1 << 26

#: Combination codes are binned in chunks of at most this many codes so the
#: intermediate index arrays stay inside the cache-friendly tens of MB.
_COMBO_CHUNK = 1 << 24


def combination_index_array(m: int, k: int) -> np.ndarray:
    """All strictly-increasing ``k``-tuples over ``range(m)``, lexicographic.

    The ``(C(m, k), k)`` integer array mirror of
    ``itertools.combinations(range(m), k)``, built level by level with
    vectorised extension (no per-combination Python loop), so million-row
    combination tables cost milliseconds.
    """
    import numpy as np

    if k <= 0 or k > m:
        return np.zeros((0, max(k, 0)), dtype=np.int64)
    combos = np.arange(m - k + 1, dtype=np.int64)[:, None]
    for level in range(1, k):
        # Extend every prefix with each admissible next element; prefixes
        # are in lexicographic order and extensions ascend, so the order
        # is preserved at every level.
        last = combos[:, -1]
        limit = m - k + 1 + level
        extensions = limit - 1 - last
        repeats = np.repeat(np.arange(combos.shape[0]), extensions)
        starts = np.concatenate(([0], np.cumsum(extensions)[:-1]))
        offsets = np.arange(extensions.sum(), dtype=np.int64) - starts[repeats]
        combos = np.concatenate(
            [combos[repeats], (last[repeats] + 1 + offsets)[:, None]], axis=1
        )
    return combos


def packed_set_positions(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` coordinates of every set bit in packed word rows.

    ``rows`` is an ``(m, W)`` uint64 block from :func:`pack_bool_matrix`.
    Returns two ``int64`` arrays in row-major order.  Only the *non-zero
    words* are expanded (``unpackbits`` over their bytes), so the cost
    scales with the number of set bits, not with ``m * 64 * W`` -- two
    orders of magnitude cheaper than ``np.nonzero`` on the boolean matrix
    for sparse incidence data.
    """
    import numpy as np

    word_rows, word_columns = np.nonzero(rows)
    if not word_rows.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    words = np.ascontiguousarray(rows[word_rows, word_columns])
    # A word's memory bytes are exactly the little-bit-order packbits bytes
    # it was built from, so unpacking them recovers in-word bit positions
    # on any platform.
    bits = np.unpackbits(
        words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    # flatnonzero over the boolean view hits numpy's fast bool counting
    # path; the flat offsets then split into (word, bit) with two shifts.
    flat = np.flatnonzero(bits.view(bool).ravel())
    word_index = flat >> 6
    bit = flat & 63
    return (
        word_rows[word_index].astype(np.int64),
        word_columns[word_index].astype(np.int64) * 64 + bit,
    )


def combination_counts(
    rows: np.ndarray,
    n_columns: int,
    k: int,
    cap: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Shared counts for every ``k``-combination of the packed ``rows``.

    The result is a flat ``int64`` array of length ``C(m, k)`` in
    ``itertools.combinations(range(m), k)`` order: slot ``r`` holds how
    many of the ``n_columns`` entry columns are set in *all* rows of the
    rank-``r`` combination.

    Instead of AND-ing row combinations (work proportional to
    ``C(m, k) * n_columns``), this walks the *columns*: an entry affecting
    ``b`` rows contributes one count to each of its ``C(b, k)`` row
    combinations, whose lexicographic ranks are computed directly via the
    combinatorial number system and binned with one ``bincount``.  The work
    is proportional to the set bits -- a few per entry on real
    vulnerability corpora -- and every step (bit extraction, rank lookup,
    bincount) runs in C.  If ``cap`` is given and the total number of
    contributed combinations would exceed it (very broad entries), returns
    ``None`` so the caller can fall back to the depth-first fold.
    """
    import numpy as np

    m = rows.shape[0]
    acc = np.zeros(math.comb(m, k), dtype=np.int64)
    set_rows, set_columns = packed_set_positions(rows)
    if not set_rows.size:
        return acc
    order = np.argsort(set_columns, kind="stable")
    flat = set_rows[order]
    breadths = np.bincount(set_columns, minlength=n_columns)
    classes, class_sizes = np.unique(breadths, return_counts=True)
    if cap is not None:
        total = sum(
            int(count) * math.comb(int(b), k)
            for b, count in zip(classes, class_sizes)
            if b >= k
        )
        if total > cap:
            return None
    # Lexicographic rank of a combination (c_0 < ... < c_k-1) over range(m):
    # ``C(m, k) - 1 - sum_i C(m - 1 - c_i, k - i)`` -- one table lookup and
    # subtraction per digit, no per-combination enumeration of the space.
    # Clamped at the rank-space size: every cell a valid combination can
    # touch is bounded by it, and the clamp keeps huge-k binomials (never
    # looked up) from overflowing int64.
    table = np.array(
        [[min(math.comb(n, r), acc.size) for r in range(k + 1)] for n in range(m)],
        dtype=np.int64,
    )
    top = acc.size - 1
    segment_starts = np.concatenate(([0], np.cumsum(breadths)[:-1]))
    pending: List[np.ndarray] = []
    pending_size = 0
    for b in classes:
        b = int(b)
        if b < k:
            continue
        columns = np.nonzero(breadths == b)[0]
        positions = flat[
            segment_starts[columns][:, None] + np.arange(b, dtype=np.int64)
        ]
        combos = combination_index_array(b, k)
        step = max(1, _COMBO_CHUNK // combos.shape[0])
        for start in range(0, columns.size, step):
            chunk = positions[start : start + step][:, combos]
            ranks = np.full(chunk.shape[:-1], top, dtype=np.int64)
            for digit in range(k):
                ranks -= table[m - 1 - chunk[..., digit], k - digit]
            pending.append(ranks.ravel())
            pending_size += ranks.size
            if pending_size >= _COMBO_CHUNK:
                acc += np.bincount(np.concatenate(pending), minlength=acc.size)
                pending, pending_size = [], 0
    if pending:
        acc += np.bincount(np.concatenate(pending), minlength=acc.size)
    return acc


def word_popcounts(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array, any shape.

    Uses the vectorised ``np.bitwise_count`` where available and an
    ``unpackbits`` expansion otherwise -- both lookup-free and endianness
    -agnostic (each word is counted whole).
    """
    import numpy as np

    fast = _HAS_BITWISE_COUNT
    if fast is None:
        fast = hasattr(np, "bitwise_count")
    if fast:
        return np.bitwise_count(words)
    as_bytes = np.ascontiguousarray(words).view(np.uint8).reshape(words.shape + (8,))
    return np.unpackbits(as_bytes, axis=-1).sum(axis=-1, dtype=np.uint64)


def pack_bool_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pack an ``(n, m)`` boolean matrix into ``(n, ceil(m/64))`` uint64 rows.

    Bit ``b`` of word ``w`` in a packed row corresponds to column
    ``64*w + b`` of the source matrix (little-endian bit order within each
    byte and native word order across bytes); padding bits beyond ``m`` are
    zero, so popcounts over whole rows never over-count.
    """
    import numpy as np

    rows, columns = matrix.shape
    words = (columns + 63) // 64
    packed = np.packbits(matrix, axis=1, bitorder="little")
    if packed.shape[1] < words * 8:
        pad = np.zeros((rows, words * 8 - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    return np.ascontiguousarray(packed).view(np.uint64)


class IncidenceIndex:
    """Precompiled OS x vulnerability incidence matrix over integer bitsets.

    The index is immutable and references (does not copy) the entry sequence
    it was built from; bit ``e`` in every OS mask refers to ``entries[e]`` in
    construction order, so decoded entry lists preserve dataset order.
    OS names outside ``os_names`` are ignored at build time and resolve to an
    empty mask at query time, mirroring the naive per-OS index.
    """

    __slots__ = ("_entries", "_os_names", "_os_index", "_os_masks", "_entry_masks")

    def __init__(
        self, entries: Sequence[VulnerabilityEntry], os_names: Sequence[str]
    ) -> None:
        self._entries: Tuple[VulnerabilityEntry, ...] = tuple(entries)
        self._os_names: Tuple[str, ...] = tuple(os_names)
        self._os_index: Dict[str, int] = {
            name: position for position, name in enumerate(self._os_names)
        }
        os_masks = [0] * len(self._os_names)
        entry_masks = [0] * len(self._entries)
        for entry_bit, entry in enumerate(self._entries):
            bit = 1 << entry_bit
            row = 0
            for name in entry.affected_os:
                position = self._os_index.get(name)
                if position is not None:
                    os_masks[position] |= bit
                    row |= 1 << position
            entry_masks[entry_bit] = row
        self._os_masks: Tuple[int, ...] = tuple(os_masks)
        self._entry_masks: Tuple[int, ...] = tuple(entry_masks)

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> Tuple[object, ...]:
        """Explicit pickle support for the ``__slots__`` layout.

        The parallel experiment runner (:mod:`repro.runner`) ships compiled
        state between worker processes, so the compiled index must pickle
        identically on every supported interpreter rather than relying on the
        version-dependent default reduction for slotted classes.
        """
        return (
            self._entries,
            self._os_names,
            self._os_index,
            self._os_masks,
            self._entry_masks,
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        (
            self._entries,
            self._os_names,
            self._os_index,
            self._os_masks,
            self._entry_masks,
        ) = state

    # -- basic accessors --------------------------------------------------------

    @property
    def os_names(self) -> Tuple[str, ...]:
        return self._os_names

    @property
    def entries(self) -> Tuple[VulnerabilityEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def os_mask(self, os_name: str) -> int:
        """Bitmask of entries affecting the OS (0 for an uncatalogued name)."""
        position = self._os_index.get(os_name)
        if position is None:
            return 0
        return self._os_masks[position]

    def entry_mask(self, entry_index: int) -> int:
        """Bitmask of catalogued OSes affected by entry ``entry_index``."""
        return self._entry_masks[entry_index]

    def count_for(self, os_name: str) -> int:
        """Number of entries affecting the OS."""
        return self.os_mask(os_name).bit_count()

    def decode(self, mask: int) -> List[VulnerabilityEntry]:
        """Entries selected by an entry bitmask, in dataset order."""
        entries = self._entries
        selected: List[VulnerabilityEntry] = []
        while mask:
            low_bit = mask & -mask
            selected.append(entries[low_bit.bit_length() - 1])
            mask ^= low_bit
        return selected

    # -- shared-vulnerability primitives ---------------------------------------

    def intersection_mask(self, os_names: Sequence[str]) -> int:
        """Fold-AND of the OS masks (0 for an empty name list)."""
        names = iter(os_names)
        try:
            mask = self.os_mask(next(names))
        except StopIteration:
            return 0
        for name in names:
            if not mask:
                return 0
            mask &= self.os_mask(name)
        return mask

    def union_mask(self, os_names: Iterable[str]) -> int:
        """Fold-OR of the OS masks: the entries affecting *any* given OS
        (0 for an empty name list; an uncatalogued name contributes 0)."""
        mask = 0
        for name in os_names:
            mask |= self.os_mask(name)
        return mask

    def shared_count(self, os_names: Sequence[str]) -> int:
        """Number of entries affecting *all* the given OSes."""
        return self.intersection_mask(os_names).bit_count()

    def shared_entries(self, os_names: Sequence[str]) -> List[VulnerabilityEntry]:
        """Entries affecting all the given OSes, in dataset order."""
        return self.decode(self.intersection_mask(os_names))

    def breadth(self, entry_index: int) -> int:
        """How many catalogued OSes entry ``entry_index`` affects."""
        return self._entry_masks[entry_index].bit_count()

    def affecting_at_least(self, k: int) -> List[VulnerabilityEntry]:
        """Entries affecting at least ``k`` catalogued OSes, in dataset order."""
        entries = self._entries
        return [
            entries[index]
            for index, row in enumerate(self._entry_masks)
            if row.bit_count() >= k
        ]

    def breadth_histogram(self) -> Dict[int, int]:
        """Histogram of per-entry breadth over the catalogued OSes (breadth >= 1)."""
        histogram: Dict[int, int] = {}
        for row in self._entry_masks:
            breadth = row.bit_count()
            if breadth:
                histogram[breadth] = histogram.get(breadth, 0) + 1
        return dict(sorted(histogram.items()))

    # -- pair and k-set analytics ----------------------------------------------

    def pair_matrix(self, os_names: Sequence[str]) -> Dict[Pair, int]:
        """Shared counts for every unordered pair, in combination order."""
        masks = [(name, self.os_mask(name)) for name in os_names]
        return {
            (name_a, name_b): (mask_a & mask_b).bit_count()
            for (name_a, mask_a), (name_b, mask_b) in itertools.combinations(masks, 2)
        }

    def k_set_totals(self, os_names: Sequence[str], k: int) -> Dict[Tuple[str, ...], int]:
        """Shared counts for every ``k``-combination of ``os_names``.

        Combinations are emitted in ``itertools.combinations(os_names, k)``
        order, zero counts included.  Partial intersections are computed once
        per combination *prefix* and reused for every completion, and once a
        partial AND is empty the remaining combinations under it are filled
        with zero without touching the masks again.
        """
        names = tuple(os_names)
        if not 0 < k <= len(names):
            raise ValueError(f"k must be between 1 and {len(names)}")
        masks = [self.os_mask(name) for name in names]
        totals: Dict[Tuple[str, ...], int] = {}

        def expand(start: int, prefix: Tuple[str, ...], acc: int) -> None:
            depth_left = k - len(prefix)
            if depth_left == 0:
                totals[prefix] = acc.bit_count()
                return
            if depth_left == 1 and acc:
                for index in range(start, len(names)):
                    totals[prefix + (names[index],)] = (acc & masks[index]).bit_count()
                return
            if not acc:
                # The prefix intersection is already empty: every completion
                # shares zero vulnerabilities, no further ANDs needed.  The
                # map/fromkeys pair keeps the (possibly huge) zero fill in C.
                totals.update(
                    dict.fromkeys(
                        map(
                            prefix.__add__,
                            itertools.combinations(names[start:], depth_left),
                        ),
                        0,
                    )
                )
                return
            for index in range(start, len(names) - depth_left + 1):
                expand(index + 1, prefix + (names[index],), acc & masks[index])

        expand(0, (), (1 << len(self._entries)) - 1)
        return totals

    # -- replica-group primitives -----------------------------------------------

    def compromising_entries(
        self, os_names: Sequence[str], threshold: int = 2
    ) -> List[VulnerabilityEntry]:
        """Entries affecting at least ``threshold`` members of a replica group.

        Duplicate names in ``os_names`` count with their multiplicity, like
        the naive per-entry membership sum.
        """
        weights: Dict[int, int] = {}
        union = 0
        for name in os_names:
            position = self._os_index.get(name)
            if position is None:
                continue
            weights[position] = weights.get(position, 0) + 1
            union |= self._os_masks[position]
        if not weights:
            return []
        group = list(weights.items())
        entry_masks = self._entry_masks
        selected = 0
        while union:
            low_bit = union & -union
            union ^= low_bit
            row = entry_masks[low_bit.bit_length() - 1]
            hits = sum(weight for position, weight in group if row >> position & 1)
            if hits >= threshold:
                selected |= low_bit
        return self.decode(selected)


class PackedIndex:
    """Packed-word incidence matrix over numpy ``uint64`` arrays.

    The third engine (``engine="packed"``): the same OS x vulnerability
    incidence matrix as :class:`IncidenceIndex`, stored as

    * a boolean matrix ``(n_os, n_entries)``, which decoding queries read,
      and
    * one packed ``uint64`` word row per OS (``(n_os, ceil(n_entries/64))``,
      via :func:`pack_bool_matrix`) -- the operand of every AND + popcount.

    Queries mirror :class:`IncidenceIndex` exactly -- same values, same
    orderings, same ``ValueError`` messages, unknown OS names resolving to an
    all-zero row -- but the hot paths (pair matrices, k-set totals) count
    whole combination blocks at once: a cached Gram matrix for pairs and a
    column-walking :func:`combination_counts` bincount for k-sets, with
    :func:`word_popcounts` intersections for individual groups.  That is
    what unlocks 500-OS catalogues, where per-combination big-int ANDs are
    interpreter-bound.
    """

    __slots__ = (
        "_entries",
        "_os_names",
        "_os_index",
        "_bool",
        "_rows",
        "_gram",
    )

    def __init__(
        self, entries: Sequence[VulnerabilityEntry], os_names: Sequence[str]
    ) -> None:
        import numpy as np

        self._entries: Tuple[VulnerabilityEntry, ...] = tuple(entries)
        self._os_names: Tuple[str, ...] = tuple(os_names)
        self._os_index: Dict[str, int] = {
            name: position for position, name in enumerate(self._os_names)
        }
        matrix = np.zeros((len(self._os_names), len(self._entries)), dtype=bool)
        for column, entry in enumerate(self._entries):
            for name in entry.affected_os:
                position = self._os_index.get(name)
                if position is not None:
                    matrix[position, column] = True
        self._bool: np.ndarray = matrix
        self._rows: np.ndarray = pack_bool_matrix(matrix)
        self._gram: Optional[np.ndarray] = None

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> Tuple[object, ...]:
        """Explicit pickle support for the ``__slots__`` layout.

        Only the entries, catalogue and boolean matrix travel; the word rows
        and the name index are recomputed on arrival so a pickle produced on
        one platform unpacks to an identical index on any other
        (see :meth:`IncidenceIndex.__getstate__` for why this is explicit).
        """
        import numpy as np

        return (
            self._entries,
            self._os_names,
            np.packbits(self._bool, axis=1),
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        import numpy as np

        entries, os_names, packed_bool = state
        self._entries = entries
        self._os_names = os_names
        self._os_index = {
            name: position for position, name in enumerate(os_names)
        }
        self._bool = np.unpackbits(
            packed_bool, axis=1, count=len(entries)
        ).astype(bool)
        self._rows = pack_bool_matrix(self._bool)
        self._gram = None

    # -- basic accessors --------------------------------------------------------

    @property
    def os_names(self) -> Tuple[str, ...]:
        return self._os_names

    @property
    def entries(self) -> Tuple[VulnerabilityEntry, ...]:
        return self._entries

    @property
    def words_per_row(self) -> int:
        """Number of 64-bit words in each packed OS row."""
        return self._rows.shape[1]

    def __len__(self) -> int:
        return len(self._entries)

    def os_row(self, os_name: str) -> np.ndarray:
        """Packed word row of the OS (all-zero for an uncatalogued name)."""
        import numpy as np

        position = self._os_index.get(os_name)
        if position is None:
            return np.zeros(self._rows.shape[1], dtype=np.uint64)
        return self._rows[position]

    def count_for(self, os_name: str) -> int:
        """Number of entries affecting the OS."""
        return int(word_popcounts(self.os_row(os_name)).sum())

    # -- shared-vulnerability primitives ---------------------------------------

    def _intersection_row(self, os_names: Sequence[str]) -> Optional[np.ndarray]:
        """Fold-AND of packed rows (``None`` for an empty name list)."""
        acc: Optional[np.ndarray] = None
        for name in os_names:
            row = self.os_row(name)
            acc = row if acc is None else acc & row
        return acc

    def shared_count(self, os_names: Sequence[str]) -> int:
        """Number of entries affecting *all* the given OSes."""
        acc = self._intersection_row(tuple(os_names))
        if acc is None:
            return 0
        return int(word_popcounts(acc).sum())

    def shared_entries(self, os_names: Sequence[str]) -> List[VulnerabilityEntry]:
        """Entries affecting all the given OSes, in dataset order."""
        import numpy as np

        names = tuple(os_names)
        if not names or not self._entries:
            return []
        acc: Optional[np.ndarray] = None
        for name in names:
            position = self._os_index.get(name)
            if position is None:
                return []
            row = self._bool[position]
            acc = row if acc is None else acc & row
        entries = self._entries
        return [entries[index] for index in np.nonzero(acc)[0]]

    def breadth(self, entry_index: int) -> int:
        """How many catalogued OSes entry ``entry_index`` affects."""
        return int(self._bool[:, entry_index].sum())

    def affecting_at_least(self, k: int) -> List[VulnerabilityEntry]:
        """Entries affecting at least ``k`` catalogued OSes, in dataset order."""
        import numpy as np

        if not self._entries:
            return []
        counts = self._bool.sum(axis=0)
        entries = self._entries
        return [entries[index] for index in np.nonzero(counts >= k)[0]]

    def breadth_histogram(self) -> Dict[int, int]:
        """Histogram of per-entry breadth over the catalogued OSes (breadth >= 1)."""
        import numpy as np

        if not self._entries:
            return {}
        counts = np.bincount(self._bool.sum(axis=0))
        return {
            breadth: int(count)
            for breadth, count in enumerate(counts)
            if breadth and count
        }

    # -- pair and k-set analytics ----------------------------------------------

    def _gather_rows(self, os_names: Sequence[str]) -> np.ndarray:
        """Packed rows for the names, unknown names as all-zero rows."""
        import numpy as np

        gathered = np.zeros((len(os_names), self._rows.shape[1]), dtype=np.uint64)
        for slot, name in enumerate(os_names):
            position = self._os_index.get(name)
            if position is not None:
                gathered[slot] = self._rows[position]
        return gathered

    def _pair_gram(self) -> np.ndarray:
        """Symmetric ``(n_os, n_os)`` matrix of catalogue-wide shared counts.

        ``gram[i, j]`` is the number of entries affecting both OS ``i`` and
        OS ``j`` (the diagonal holds per-OS totals).  Computed once per
        index via :func:`combination_counts` -- cost proportional to the set
        bits of the incidence matrix, not to ``n_os**2 * n_entries`` -- and
        cached, so every subsequent pair query is a pure gather.
        """
        import numpy as np

        if self._gram is None:
            n = len(self._os_names)
            gram = np.zeros((n, n), dtype=np.int64)
            if n >= 2:
                gram[np.triu_indices(n, k=1)] = combination_counts(
                    self._rows, len(self._entries), 2
                )
            gram = gram + gram.T
            if self._entries and n:
                np.fill_diagonal(
                    gram, word_popcounts(self._rows).sum(axis=1, dtype=np.int64)
                )
            self._gram = gram
        return self._gram

    def pair_count_matrix(self, os_names: Sequence[str]) -> np.ndarray:
        """Shared counts for the names as a symmetric ``int64`` matrix.

        Entry ``[a, b]`` is ``shared_count((names[a], names[b]))``; the
        diagonal holds per-OS totals; unknown names yield all-zero rows and
        columns.  This is the array-shaped sibling of :meth:`pair_matrix`
        for consumers (benchmarks, selection) that do not need dict keys.
        """
        import numpy as np

        names = tuple(os_names)
        gram = self._pair_gram()
        positions = np.fromiter(
            (self._os_index.get(name, -1) for name in names),
            dtype=np.intp,
            count=len(names),
        )
        known = positions >= 0
        counts = gram[np.ix_(np.where(known, positions, 0), np.where(known, positions, 0))]
        counts[~known, :] = 0
        counts[:, ~known] = 0
        return counts

    def pair_matrix(self, os_names: Sequence[str]) -> Dict[Pair, int]:
        """Shared counts for every unordered pair, in combination order.

        One gather from the cached :meth:`_pair_gram` Gram matrix; the dict
        is assembled in a single C-level ``tolist``/``zip`` pass, so the
        per-pair cost is dict insertion, not AND + popcount.
        """
        import numpy as np

        names = tuple(os_names)
        count = len(names)
        if count < 2:
            return {}
        counts = self.pair_count_matrix(names)
        upper = np.triu_indices(count, k=1)
        return dict(zip(itertools.combinations(names, 2), counts[upper].tolist()))

    def k_set_counts(self, os_names: Sequence[str], k: int) -> np.ndarray:
        """Shared counts of every ``k``-combination as a flat ``int64`` array.

        Values are in ``itertools.combinations(os_names, k)`` order (the
        array-shaped sibling of :meth:`k_set_totals`).  When the mixed-radix
        code space ``len(os_names) ** k`` fits :data:`_DENSE_COMBO_CAP`, the
        counts come from one column-walking :func:`combination_counts` pass;
        otherwise from the depth-first fold.
        """
        import numpy as np

        names = tuple(os_names)
        m = len(names)
        if not 0 < k <= m:
            raise ValueError(f"k must be between 1 and {m}")
        counts = self._dense_k_set_counts(names, k)
        if counts is not None:
            return counts
        totals = self._k_set_totals_dfs(names, k)
        return np.fromiter(totals.values(), dtype=np.int64, count=len(totals))

    def _dense_k_set_counts(
        self, names: Tuple[str, ...], k: int
    ) -> Optional[np.ndarray]:
        """The bincount path, or ``None`` when the rank space is too large."""
        m = len(names)
        if not self._entries or math.comb(m, k) > _DENSE_COMBO_CAP:
            return None
        return combination_counts(
            self._gather_rows(names),
            len(self._entries),
            k,
            cap=_DENSE_COMBO_CAP,
        )

    def k_set_totals(self, os_names: Sequence[str], k: int) -> Dict[Tuple[str, ...], int]:
        """Shared counts for every ``k``-combination of ``os_names``.

        Identical keys, values, ordering and ``ValueError`` to
        :meth:`IncidenceIndex.k_set_totals`; the counts come from the
        column-walking bincount where it fits and from the vectorised
        depth-first fold otherwise.
        """
        names = tuple(os_names)
        if not 0 < k <= len(names):
            raise ValueError(f"k must be between 1 and {len(names)}")
        counts = self._dense_k_set_counts(names, k)
        if counts is not None:
            return dict(zip(itertools.combinations(names, k), counts.tolist()))
        return self._k_set_totals_dfs(names, k)

    def _k_set_totals_dfs(
        self, names: Tuple[str, ...], k: int
    ) -> Dict[Tuple[str, ...], int]:
        """The shared-prefix depth-first fold over packed rows.

        Same shape as :meth:`IncidenceIndex.k_set_totals` -- combination
        order, zero fill for dead prefixes -- but the innermost level ANDs
        the accumulator against the whole remaining row block at once and
        popcounts it in one vectorised pass.
        """
        import numpy as np

        rows = self._gather_rows(names)
        totals: Dict[Tuple[str, ...], int] = {}

        def expand(start: int, prefix: Tuple[str, ...], acc: np.ndarray) -> None:
            depth_left = k - len(prefix)
            if depth_left == 0:
                totals[prefix] = int(word_popcounts(acc).sum())
                return
            alive = bool(acc.any())
            if depth_left == 1 and alive:
                block = rows[start:]
                counts = word_popcounts(acc[None, :] & block).sum(
                    axis=-1, dtype=np.int64
                )
                totals.update(
                    zip(
                        map(prefix.__add__, ((name,) for name in names[start:])),
                        counts.tolist(),
                    )
                )
                return
            if not alive:
                totals.update(
                    dict.fromkeys(
                        map(
                            prefix.__add__,
                            itertools.combinations(names[start:], depth_left),
                        ),
                        0,
                    )
                )
                return
            for index in range(start, len(names) - depth_left + 1):
                expand(index + 1, prefix + (names[index],), acc & rows[index])

        full = np.full(
            self._rows.shape[1], 0xFFFFFFFFFFFFFFFF, dtype=np.uint64
        )
        tail_bits = len(self._entries) % 64
        if tail_bits and full.size:
            full[-1] = np.uint64((1 << tail_bits) - 1)
        expand(0, (), full)
        return totals

    # -- replica-group primitives -----------------------------------------------

    def compromising_entries(
        self, os_names: Sequence[str], threshold: int = 2
    ) -> List[VulnerabilityEntry]:
        """Entries affecting at least ``threshold`` members of a replica group.

        Duplicate names count with their multiplicity, exactly like
        :meth:`IncidenceIndex.compromising_entries`; the weighted membership
        sum is one integer matrix-vector product over the boolean rows.
        """
        import numpy as np

        weights: Dict[int, int] = {}
        for name in os_names:
            position = self._os_index.get(name)
            if position is None:
                continue
            weights[position] = weights.get(position, 0) + 1
        if not weights or not self._entries:
            return []
        positions = np.fromiter(weights.keys(), dtype=np.intp, count=len(weights))
        multiplicity = np.fromiter(
            weights.values(), dtype=np.int64, count=len(weights)
        )
        hits = multiplicity @ self._bool[positions]
        # The bitset index only ever scans the group's union, so a
        # sub-one threshold still admits only entries touching the group.
        entries = self._entries
        return [entries[index] for index in np.nonzero(hits >= max(threshold, 1))[0]]


class ReplicaIncidence:
    """Per-exploit victim bitmasks over the replica positions of one group.

    Where :class:`IncidenceIndex` maps OS *names* to entry bitmasks, this
    maps pool *entries* to replica-position bitmasks: bit ``i`` of
    ``victim_mask(e)`` is set when replica position ``i`` runs an OS affected
    by pool entry ``e``.  Duplicate OS names (homogeneous groups) set one bit
    per position, so a popcount is exactly the naive per-replica victim scan.

    The Monte-Carlo simulation compiles this once per configuration and then
    answers "how many replicas does this exploit newly compromise?" with one
    AND-NOT + popcount per event, instead of re-walking the replica list.
    """

    __slots__ = ("_victim_masks", "_replica_os")

    def __init__(
        self,
        entries: Iterable[VulnerabilityEntry],
        replica_os_names: Sequence[str],
    ) -> None:
        self._replica_os: Tuple[str, ...] = tuple(replica_os_names)
        position_masks: Dict[str, int] = {}
        for position, name in enumerate(replica_os_names):
            position_masks[name] = position_masks.get(name, 0) | (1 << position)
        masks: List[int] = []
        get_mask = position_masks.get
        for entry in entries:
            mask = 0
            for name in entry.affected_os:
                positions = get_mask(name)
                if positions:
                    mask |= positions
            masks.append(mask)
        self._victim_masks: Tuple[int, ...] = tuple(masks)

    def __getstate__(self) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        """Explicit pickle support (see :meth:`IncidenceIndex.__getstate__`)."""
        return (self._victim_masks, self._replica_os)

    def __setstate__(self, state: Tuple[Tuple[int, ...], Tuple[str, ...]]) -> None:
        self._victim_masks, self._replica_os = state

    @property
    def group_size(self) -> int:
        return len(self._replica_os)

    @property
    def replica_os_names(self) -> Tuple[str, ...]:
        return self._replica_os

    @property
    def victim_masks(self) -> Tuple[int, ...]:
        """One replica-position bitmask per pool entry, in pool order."""
        return self._victim_masks

    def victim_mask(self, entry_index: int) -> int:
        return self._victim_masks[entry_index]

    def victim_mask_for(self, affected_os: Sequence[str]) -> int:
        """Victim bitmask for an ad-hoc exploit (e.g. the smart opening shot)."""
        affected = set(affected_os)
        mask = 0
        for position, name in enumerate(self._replica_os):
            if name in affected:
                mask |= 1 << position
        return mask
