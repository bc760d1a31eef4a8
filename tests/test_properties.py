"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import datetime as dt

from hypothesis import given, settings, strategies as st

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.pairs import PairAnalysis
from repro.analysis.selection import ReplicaSetSelector
from repro.core.constants import OS_NAMES
from repro.core.enums import AccessVector, ComponentClass, ServerConfiguration, ValidityStatus
from repro.core.models import CVSSVector, VulnerabilityEntry
from repro.itsys.replica import ReplicaGroup

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

os_subsets = st.sets(st.sampled_from(OS_NAMES), min_size=1, max_size=5)

entries_strategy = st.lists(
    st.builds(
        lambda index, oses, cls, access, year, valid: VulnerabilityEntry(
            cve_id=f"CVE-{year}-{1000 + index}",
            published=dt.date(year, 1 + index % 12, 1 + index % 28),
            summary="generated entry",
            cvss=CVSSVector(access_vector=access),
            affected_os=frozenset(oses),
            component_class=cls,
            validity=ValidityStatus.VALID if valid else ValidityStatus.UNKNOWN,
        ),
        index=st.integers(min_value=0, max_value=9999),
        oses=os_subsets,
        cls=st.sampled_from(list(ComponentClass)),
        access=st.sampled_from(list(AccessVector)),
        year=st.integers(min_value=1994, max_value=2010),
        valid=st.booleans(),
    ),
    min_size=0,
    max_size=60,
    unique_by=lambda entry: entry.cve_id,
)


# ---------------------------------------------------------------------------
# dataset invariants
# ---------------------------------------------------------------------------


@given(entries=entries_strategy)
@settings(max_examples=60, deadline=None)
def test_filters_are_nested_subsets(entries):
    """Fat ⊇ Thin ⊇ Isolated-Thin, for any collection of entries."""
    dataset = VulnerabilityDataset(entries)
    fat = {e.cve_id for e in dataset.filtered(ServerConfiguration.FAT)}
    thin = {e.cve_id for e in dataset.filtered(ServerConfiguration.THIN)}
    isolated = {e.cve_id for e in dataset.filtered(ServerConfiguration.ISOLATED_THIN)}
    assert isolated <= thin <= fat
    valid_ids = {e.cve_id for e in dataset.valid()}
    assert fat <= valid_ids


@given(entries=entries_strategy)
@settings(max_examples=60, deadline=None)
def test_validity_summary_totals_are_consistent(entries):
    dataset = VulnerabilityDataset(entries)
    summary = dataset.validity_summary()
    assert sum(summary.distinct.values()) == len(dataset)
    # Per-OS counts never exceed the number of entries affecting that OS.
    for name in OS_NAMES:
        assert sum(summary.per_os[name].values()) == dataset.count_for(name)


@given(entries=entries_strategy, a=st.sampled_from(OS_NAMES), b=st.sampled_from(OS_NAMES))
@settings(max_examples=60, deadline=None)
def test_shared_counts_are_symmetric_and_bounded(entries, a, b):
    dataset = VulnerabilityDataset(entries).valid()
    if a == b:
        return
    shared_ab = dataset.shared_count((a, b))
    shared_ba = dataset.shared_count((b, a))
    assert shared_ab == shared_ba
    assert shared_ab <= min(dataset.count_for(a), dataset.count_for(b))
    # Adding a third OS can only shrink the intersection.
    for c in OS_NAMES[:3]:
        if c not in (a, b):
            assert dataset.shared_count((a, b, c)) <= shared_ab


@given(entries=entries_strategy)
@settings(max_examples=40, deadline=None)
def test_pair_analysis_reduction_is_bounded(entries):
    dataset = VulnerabilityDataset(entries)
    analysis = PairAnalysis(dataset, OS_NAMES[:5])
    reduction = analysis.reduction_between(
        ServerConfiguration.FAT, ServerConfiguration.ISOLATED_THIN
    )
    assert 0.0 <= reduction <= 100.0


@given(entries=entries_strategy, names=st.lists(st.sampled_from(OS_NAMES), min_size=2, max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_three_engines_answer_every_query_identically(entries, names):
    """naive, bitset and packed are observationally equivalent datasets."""
    naive, bitset, packed = (
        VulnerabilityDataset(entries, engine=engine).valid()
        for engine in ("naive", "bitset", "packed")
    )
    group = tuple(names)
    assert naive.shared_count(group) == bitset.shared_count(group) == packed.shared_count(group)
    assert naive.shared_between(group) == bitset.shared_between(group) == packed.shared_between(group)
    for k in (1, 2, len(group)):
        assert (
            len(naive.affecting_at_least(k))
            == len(bitset.affecting_at_least(k))
            == len(packed.affecting_at_least(k))
        )
    assert naive.compromising(group, threshold=2) == bitset.compromising(
        group, threshold=2
    ) == packed.compromising(group, threshold=2)


# ---------------------------------------------------------------------------
# selection invariants
# ---------------------------------------------------------------------------

pair_matrices = st.dictionaries(
    keys=st.tuples(st.sampled_from(OS_NAMES[:6]), st.sampled_from(OS_NAMES[:6])).filter(
        lambda pair: pair[0] < pair[1]
    ),
    values=st.integers(min_value=0, max_value=50),
    min_size=6,
    max_size=15,
)


@given(matrix=pair_matrices, n=st.integers(min_value=2, max_value=4))
@settings(max_examples=50, deadline=None)
def test_exhaustive_selection_is_optimal(matrix, n):
    selector = ReplicaSetSelector(pair_matrix=matrix)
    if n > len(selector.candidates):
        return
    best = selector.exhaustive(n, top=1)[0]
    greedy = selector.greedy(n)
    graph = selector.graph_based(n)
    # Exhaustive search is the optimum; heuristics can only be worse or equal.
    assert best.pairwise_shared <= greedy.pairwise_shared
    assert best.pairwise_shared <= graph.pairwise_shared
    # Every returned group has the right size and no duplicates.
    for result in (best, greedy, graph):
        assert len(result.os_names) == n
        assert len(set(result.os_names)) == n


# ---------------------------------------------------------------------------
# replica-group invariants
# ---------------------------------------------------------------------------


@given(
    oses=st.lists(st.sampled_from(OS_NAMES), min_size=1, max_size=10),
    exploit_sets=st.lists(os_subsets, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_replica_group_compromise_monotone(oses, exploit_sets):
    """Compromised count only grows, never exceeds n, and safety follows f."""
    group = ReplicaGroup(list(oses))
    previous = 0
    for index, affected in enumerate(exploit_sets):
        group.apply_exploit(float(index), f"CVE-{index}", affected)
        current = group.compromised_count()
        assert previous <= current <= group.n
        previous = current
        assert group.safety_violated == (current > group.f)
