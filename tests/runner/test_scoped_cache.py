"""Scoped digests: one recipe behind sweep cache keys and response ETags.

:func:`repro.snapshots.digests.scope_digest` is the only implementation.
The grid runner feeds it the entries its configuration admits; the service
registry feeds it the compiled configuration view, narrowed through the
view's incidence index to the scope's entries when every scope name is
catalogued.  The oracle below restates the documented recipe with neither
the memo nor a shared filter, and both callers -- the service on every
engine -- must agree with it.
"""

import dataclasses
import hashlib
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dataset import ENGINES, VulnerabilityDataset
from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import (
    AccessVector,
    ComponentClass,
    ServerConfiguration,
    ValidityStatus,
)
from repro.runner import ArrivalSpec, ExperimentGrid, GridCell, GridRunner, ResultCache
from repro.service.registry import CorpusArtifacts, DatasetState
from repro.snapshots import digests as digests_module
from repro.snapshots.digests import canonical_json, entry_digest, entry_payload, scope_digest
from repro.synthetic import generate_scaled_catalogue
from tests.conftest import make_entry

CATALOGUE = ("Debian", "RedHat", "Solaris", "OpenBSD", "NetBSD",
             "Windows2000", "Windows2003")
#: Names outside the catalogue: scopes match them like any other name.
FOREIGN = ("Plan9", "Haiku")


def _corpus():
    return [
        make_entry("CVE-2005-0001", oses=("Debian",)),
        make_entry("CVE-2005-0002", oses=("Solaris", "OpenBSD")),
        make_entry("CVE-2005-0003", oses=("Windows2000", "Windows2003")),
        make_entry("CVE-2005-0004", oses=("Debian", "RedHat")),
        make_entry("CVE-2005-0005", oses=("NetBSD",),
                   access=AccessVector.LOCAL),
        make_entry("CVE-2005-0006", oses=("NetBSD",),
                   component_class=ComponentClass.APPLICATION),
    ]


def _admitted(entry, configuration):
    """The paper's configuration filter (Section IV-B), restated."""
    if entry.validity is not ValidityStatus.VALID:
        return False
    if (configuration is not ServerConfiguration.FAT
            and entry.component_class is ComponentClass.APPLICATION):
        return False
    return not (configuration is ServerConfiguration.ISOLATED_THIN
                and entry.cvss.access_vector is AccessVector.LOCAL)


def _recipe(entries, os_names, configuration):
    """sha256 over ``entry_digest + "\\n"`` of each admitted entry affecting
    one of ``os_names`` (all when ``None``), in corpus order, unmemoised."""
    hasher = hashlib.sha256()
    for entry in entries:
        if not _admitted(entry, configuration):
            continue
        if os_names is not None and not entry.affected_os & set(os_names):
            continue
        hasher.update((_unmemoised_digest(entry) + "\n").encode("ascii"))
    return hasher.hexdigest()


def _unmemoised_digest(entry):
    return hashlib.sha256(
        canonical_json(entry_payload(entry)).encode("utf-8")
    ).hexdigest()


def _cell(os_names, targeted):
    return GridCell(
        configuration="group", os_names=tuple(os_names), quorum_model="3f+1",
        recovery_interval=None, arrival=ArrivalSpec(),
        adversary="standard" if targeted else "untargeted",
        runs=1, exploit_rate=1.0, horizon=1.0,
    )


def _callers(entries, os_names, targeted, configuration):
    """Scope digests of one group over ``entries``: the service's on each
    of ``ENGINES``, then the runner's."""
    service = tuple(
        CorpusArtifacts(
            VulnerabilityDataset(entries, CATALOGUE, engine=engine),
            DatasetState(digest="oracle"),
        ).scope_digest(os_names if targeted else None, configuration)
        for engine in ENGINES
    )
    runner = GridRunner(entries, configuration=configuration)
    return service + (runner.scope_digest(_cell(os_names, targeted)),)


def _agreeing(digest):
    """What :func:`_callers` returns when every caller computes ``digest``."""
    return (digest,) * (len(ENGINES) + 1)


_entry_spec = st.tuples(
    st.sets(st.sampled_from(CATALOGUE + FOREIGN), min_size=1, max_size=3),
    st.sampled_from(list(ValidityStatus)),
    st.sampled_from(list(AccessVector)),
    st.sampled_from([None, *ComponentClass]),
)


class TestScopeDigestOracle:
    @pytest.mark.parametrize("configuration", list(ServerConfiguration))
    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(_entry_spec, max_size=12),
        group=st.lists(st.sampled_from(CATALOGUE + FOREIGN), min_size=1, max_size=4),
        targeted=st.booleans(),
    )
    def test_service_and_runner_agree_with_the_recipe(
        self, configuration, specs, group, targeted
    ):
        entries = [
            make_entry(f"CVE-2005-{index:04d}", oses=oses, validity=validity,
                       access=access, component_class=component_class)
            for index, (oses, validity, access, component_class) in enumerate(specs)
        ]
        expected = _recipe(entries, group if targeted else None, configuration)
        assert _callers(entries, group, targeted, configuration) == _agreeing(
            expected
        )

    @pytest.mark.parametrize(
        "order, group, targeted, configuration, selected",
        [
            # Targeting keeps only the group's entries.
            (1, ("Debian", "RedHat"), True, ServerConfiguration.ISOLATED_THIN,
             ("CVE-2005-0001", "CVE-2005-0004")),
            # Untargeted scopes hash the whole admitted pool; Isolated Thin
            # drops the local and the application entry.
            (1, ("Debian",), False, ServerConfiguration.ISOLATED_THIN,
             ("CVE-2005-0001", "CVE-2005-0002", "CVE-2005-0003",
              "CVE-2005-0004")),
            # The configuration filter applies before targeting.
            (1, ("NetBSD",), True, ServerConfiguration.FAT,
             ("CVE-2005-0005", "CVE-2005-0006")),
            (1, ("NetBSD",), True, ServerConfiguration.ISOLATED_THIN, ()),
            # Corpus order, not catalogue or id order.
            (-1, ("Debian", "RedHat"), True, ServerConfiguration.ISOLATED_THIN,
             ("CVE-2005-0004", "CVE-2005-0001")),
        ],
    )
    def test_scope_hashes_the_selected_entries_in_corpus_order(
        self, order, group, targeted, configuration, selected
    ):
        entries = _corpus()[::order]
        by_id = {entry.cve_id: entry for entry in entries}
        hasher = hashlib.sha256()
        for cve_id in selected:
            hasher.update((entry_digest(by_id[cve_id]) + "\n").encode("ascii"))
        assert _callers(entries, group, targeted, configuration) == _agreeing(
            hasher.hexdigest()
        )

    def test_scaled_catalogue_scopes_match_the_whole_view(self):
        # 100 OSes and 4000 entries: OS masks span 63 64-bit words.  Seeded
        # 2-4-OS scopes take the narrowed pool on every engine and must
        # digest as the recipe does over the whole configuration view.
        dataset = generate_scaled_catalogue().dataset()
        assert (len(dataset.os_names), len(dataset)) == (100, 4000)
        rng = random.Random(20110627)
        for configuration in ServerConfiguration:
            scopes = [
                tuple(rng.sample(dataset.os_names, rng.randint(2, 4)))
                for _ in range(100)
            ]
            view = dataset.valid().filtered(configuration)
            expected = [scope_digest(view.entries, scope) for scope in scopes]
            for engine in ENGINES:
                artifacts = CorpusArtifacts(
                    dataset.with_engine(engine), DatasetState(digest="scaled")
                )
                assert [
                    artifacts.scope_digest(scope, configuration)
                    for scope in scopes
                ] == expected, (configuration, engine)


def _scoped(entries, os_names):
    """The Isolated Thin scope digest, over a pool filtered here."""
    pool = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).apply(entries)
    return scope_digest(pool, os_names)


class TestScopedDigest:
    def test_unrelated_change_keeps_scoped_digest(self):
        before = _corpus()
        after = list(before)
        after[2] = make_entry("CVE-2005-0003", oses=("Windows2000", "Windows2003"),
                              summary="A revised Windows flaw, remote attack.")
        group = ("Debian", "RedHat")
        assert _scoped(before, group) == _scoped(after, group)
        windows = ("Windows2000", "Windows2003")
        assert _scoped(before, windows) != _scoped(
            after, windows
        )

    def test_membership_change_moves_the_digest(self):
        before = _corpus()
        after = list(before)
        # CVE-2005-0004 stops affecting RedHat: it leaves the group's scope.
        after[3] = make_entry("CVE-2005-0004", oses=("Debian",))
        group = ("RedHat",)
        assert _scoped(before, group) != _scoped(
            after, group
        )

    def test_untargeted_digest_tracks_any_admitted_change(self):
        before = _corpus()
        after = list(before)
        after[0] = make_entry("CVE-2005-0001", oses=("Debian",),
                              summary="A revised Debian flaw, remote attack.")
        assert _scoped(before, None) != _scoped(after, None)


class TestSelectiveInvalidation:
    GRID = dict(runs=6, horizon=1.5)

    def _grid(self):
        return ExperimentGrid(
            configurations={
                "debians": ("Debian", "Debian", "Debian", "Debian"),
                "windows": ("Windows2000", "Windows2003", "Windows2000",
                            "Windows2003"),
            },
            **self.GRID,
        )

    def test_warm_sweep_reruns_only_touched_cells(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        before = _corpus()
        cold = GridRunner(before, seed=3, cache=cache).run(self._grid())
        assert all(not cell.cached for cell in cold.cells)

        # Modify only the Windows entry.
        after = list(before)
        after[2] = make_entry("CVE-2005-0003", oses=("Windows2000", "Windows2003"),
                              summary="A revised Windows flaw, remote attack.")
        warm = GridRunner(after, seed=3, cache=cache).run(self._grid())
        by_name = {cell.cell.configuration: cell for cell in warm.cells}
        assert by_name["debians"].cached is True
        assert by_name["windows"].cached is False

        # The untouched cell's result is byte-identical to the cold run.
        cold_by_name = {cell.cell.configuration: cell for cell in cold.cells}
        assert by_name["debians"].result == cold_by_name["debians"].result
        assert by_name["debians"].scope_digest == cold_by_name["debians"].scope_digest

    def test_untargeted_cells_invalidate_on_any_change(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        grid = ExperimentGrid(
            configurations={"debians": ("Debian",) * 4},
            adversaries=("untargeted",),
            **self.GRID,
        )
        before = _corpus()
        GridRunner(before, seed=3, cache=cache).run(grid)
        after = list(before)
        after[2] = make_entry("CVE-2005-0003", oses=("Windows2000", "Windows2003"),
                              summary="A revised Windows flaw, remote attack.")
        warm = GridRunner(after, seed=3, cache=cache).run(grid)
        assert warm.cells[0].cached is False

    def test_report_carries_scope_digests(self, tmp_path):
        report = GridRunner(_corpus(), seed=3).run(self._grid())
        payload = report.to_json_payload()
        for cell_payload, cell in zip(payload["cells"], report.cells):
            assert cell_payload["scope_digest"] == cell.scope_digest
            assert len(cell.scope_digest) == 64
        headers = report.CSV_HEADERS
        rows = report.csv_rows()
        assert "scope_digest" in headers and "corpus_digest" in headers
        digest_column = headers.index("scope_digest")
        assert rows[0][digest_column] == report.cells[0].scope_digest


class TestEntryDigestMemo:
    @pytest.fixture()
    def hashed(self, monkeypatch):
        """Counts payload serialisations -- the hashing work -- per object."""
        calls = Counter()
        original = digests_module.entry_payload

        def counting(entry):
            calls[id(entry)] += 1
            return original(entry)

        monkeypatch.setattr(digests_module, "entry_payload", counting)
        return calls

    def test_each_entry_object_is_hashed_once(self, hashed):
        entries = _corpus()
        dataset = VulnerabilityDataset(entries)
        artifacts = CorpusArtifacts(dataset, DatasetState(digest=dataset.digest()))
        for configuration in ServerConfiguration:
            for scope in (None, ("Debian",), ("NetBSD", "Windows2000")):
                artifacts.scope_digest(scope, configuration)
            runner = GridRunner(entries, configuration=configuration)
            for targeted in (True, False):
                runner.scope_digest(_cell(("Debian", "Solaris"), targeted))
        assert hashed == Counter({id(entry): 1 for entry in entries})

    def test_copies_hash_afresh(self, hashed):
        entry = make_entry()
        digest = entry_digest(entry)
        copies = (
            entry.with_validity(ValidityStatus.DISPUTED),
            entry.with_class(ComponentClass.APPLICATION),
            dataclasses.replace(entry, summary="A revised kernel flaw."),
            dataclasses.replace(entry),
        )
        for copy in copies:
            assert entry_digest(copy) == _unmemoised_digest(copy)
            assert hashed[id(copy)] == 1
        assert entry_digest(copies[-1]) == digest
        assert hashed[id(entry)] == 1

    def test_memo_is_invisible(self):
        entry, twin = make_entry(), make_entry()
        before = (repr(entry), dataclasses.asdict(entry), pickle.dumps(entry))
        entry_digest(entry)
        after = (repr(entry), dataclasses.asdict(entry), pickle.dumps(entry))
        assert entry == twin
        assert after == before
        assert pickle.dumps(twin) == before[2]
        # What a pool worker unpickles is equal and carries no memo.
        shipped = pickle.loads(pickle.dumps(entry))
        assert shipped == entry
        assert vars(shipped) == vars(twin)
        assert entry_digest(shipped) == entry_digest(entry)
