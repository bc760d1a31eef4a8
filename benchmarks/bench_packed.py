"""Packed-word numpy engine vs bitset: catalogue-wide queries.

Two corpora are exercised:

* the **paper-sized** calibrated corpus (11 OSes, ~2.2k entries), where all
  three engines run the full workload and must agree entry for entry;
* a **scaled** 500-OS catalogue (25 families x 20 releases, 20000 entries)
  from :func:`repro.synthetic.generator.generate_scaled_catalogue`, carrying
  the acceptance gate of the packed engine: the catalogue-wide query
  workload (full pair matrix + k=3 over 100 OSes + k=4 over 40 OSes) must
  run >= 10x faster on the packed engine's array APIs
  (:meth:`~repro.analysis.engine.PackedIndex.pair_count_matrix`,
  :meth:`~repro.analysis.engine.PackedIndex.k_set_counts`) than on the
  bitset engine -- per-combination big-int ANDs are interpreter-bound at
  this scale, column-walking :func:`~repro.analysis.engine.combination_counts`
  is not.

Run the paper-sized smoke subset (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_packed.py -q -k paper

or the full comparison, including the 500-OS speedup gate::

    PYTHONPATH=src python -m pytest benchmarks/bench_packed.py -q
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.pairs import PairAnalysis
from repro.core.enums import ServerConfiguration
from repro.synthetic.generator import generate_scaled_catalogue

SPEEDUP_FLOOR = 10.0  # packed vs bitset on the 500-OS query workload


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# paper-sized corpus (CI smoke subset: -k paper)
# ---------------------------------------------------------------------------


def test_paper_sized_three_engine_pair_matrices_agree(dataset):
    """Full Table III pair matrices: three engines, identical values."""
    views = {engine: dataset.with_engine(engine) for engine in ("naive", "bitset", "packed")}
    views["bitset"].incidence  # build the indexes outside the timed region
    views["packed"].packed
    print("\n=== paper-sized pair matrix (55 pairs, three engines) ===")
    for configuration in ServerConfiguration:
        matrices = {}
        timings = {}
        for engine, view in views.items():
            matrices[engine], timings[engine] = _timed(
                PairAnalysis(view).shared_matrix, configuration
            )
        assert matrices["naive"] == matrices["bitset"] == matrices["packed"]
        print(
            f"  {configuration.value:24s} "
            + "  ".join(
                f"{engine}={timings[engine] * 1e3:7.2f}ms" for engine in views
            )
        )


def test_paper_sized_packed_ksets_agree(dataset):
    """k-set totals on the 11-OS catalogue: packed equals bitset, k=2..4."""
    bitset = dataset.with_engine("bitset").valid()
    packed = dataset.with_engine("packed").valid()
    names = dataset.os_names
    print("\n=== paper-sized k-set totals (bitset vs packed) ===")
    for k in (2, 3, 4):
        bitset_totals, bitset_s = _timed(bitset.query_index().k_set_totals, names, k)
        packed_totals, packed_s = _timed(packed.query_index().k_set_totals, names, k)
        assert bitset_totals == packed_totals
        print(
            f"  k={k}: {len(bitset_totals):4d} combos  "
            f"bitset={bitset_s * 1e3:7.2f}ms  packed={packed_s * 1e3:7.2f}ms"
        )


# ---------------------------------------------------------------------------
# scaled 500-OS catalogue (the acceptance gate)
# ---------------------------------------------------------------------------


def _scaled_catalogue():
    catalogue = generate_scaled_catalogue(n_families=25, releases_per_family=20)
    assert len(catalogue.os_names) == 500
    return catalogue


def test_scaled_catalogue_query_workload_speedup():
    """Pair matrix + k-set workload on 500 OSes: packed >= 10x bitset."""
    catalogue = _scaled_catalogue()
    names = catalogue.os_names
    bitset = catalogue.dataset(engine="bitset").query_index()
    packed = catalogue.dataset(engine="packed").query_index()

    def bitset_workload():
        return (
            bitset.pair_matrix(names),
            bitset.k_set_totals(names[:100], 3),
            bitset.k_set_totals(names[:40], 4),
        )

    def packed_workload():
        return (
            packed.pair_count_matrix(names),
            packed.k_set_counts(names[:100], 3),
            packed.k_set_counts(names[:40], 4),
        )

    (bitset_pairs, bitset_k3, bitset_k4), bitset_s = _timed(bitset_workload)
    # The packed timing is *cold*: it includes building the Gram matrix.
    (packed_pairs, packed_k3, packed_k4), packed_s = _timed(packed_workload)

    # Same numbers, engine for engine (outside the timed region: assembling
    # 124 750-key dicts costs more than the packed query itself).
    assert packed.pair_matrix(names) == bitset_pairs
    assert packed.k_set_totals(names[:100], 3) == bitset_k3
    assert packed.k_set_totals(names[:40], 4) == bitset_k4
    assert np.array_equal(packed_k3, np.fromiter(bitset_k3.values(), dtype=np.int64))
    assert np.array_equal(packed_k4, np.fromiter(bitset_k4.values(), dtype=np.int64))

    speedup = bitset_s / packed_s
    print("\n=== scaled catalogue: 500-OS query workload ===")
    print(f"  pair matrix: {len(bitset_pairs)} pairs; "
          f"k=3 over 100 OSes: {len(bitset_k3)} combos; "
          f"k=4 over 40 OSes: {len(bitset_k4)} combos")
    print(f"  bitset: {bitset_s * 1e3:7.1f}ms   packed: {packed_s * 1e3:6.1f}ms (cold)")
    print(f"  speedup: x{speedup:.1f}  (floor: x{SPEEDUP_FLOOR:.0f})")
    assert speedup >= SPEEDUP_FLOOR
